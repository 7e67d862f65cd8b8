"""Checks that name the field or argument: types and ranges of fields, shapes of finite arrays."""

import reprlib
import sys

import numpy as np


def check_fields(values, kind, names=None, least=0, above=False):
    """Raise ValueError naming the first of ``names`` (default: all) whose entry
    in ``values`` (a dataclass's ``vars``, or arguments by name) is not of
    ``kind`` (int: an integer, float: a finite real; never a bool) at least
    ``least``, or above it when ``above``."""
    kinds = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
    for name in names or values:
        v = values[name]
        # abs(v) <= the largest float: finite, and a huge int compares without overflow
        if (isinstance(v, (bool, np.bool_)) or not isinstance(v, kinds)
                or kind is float and not abs(v) <= sys.float_info.max
                or (v <= least if above else v < least)):
            raise ValueError(f"{name} must be {'an integer' if kind is int else 'a finite number'}"
                             f" {'above' if above else 'at least'} {least}, got {v!r}")


def check_numbers(name, value, *shapes):
    """``value`` as a float array (a float64 array itself), or ValueError naming
    ``name`` unless it holds numbers, not strings, in one of ``shapes``, tuples in
    which None matches any length."""
    try:
        a = np.asarray(value)
        # numpy would parse strings of digits: "1" is not a number here
        strings = a.dtype.kind in "SU" or a.dtype.kind == "O" and any(
            isinstance(v, (str, bytes)) for v in a.flat)
        a = None if strings else a.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        a = None
    # exact shapes first: the per-solve checks take this path
    if a is None or a.shape not in shapes and not any(
            a.ndim == len(s) and all(n in (None, m) for n, m in zip(s, a.shape)) for s in shapes):
        got = reprlib.repr(value) if a is None or not a.ndim else f"shape {a.shape}"
        raise ValueError(f"{name} must be numbers of shape {' or '.join(map(str, shapes))}, "
                         f"got {got}")
    return a


def check_array(name, value, *shapes):
    """``check_numbers``, then ValueError naming ``name`` unless the array is finite."""
    a = check_numbers(name, value, *shapes)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite, got {reprlib.repr(value)}")
    return a
