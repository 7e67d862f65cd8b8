"""Type and range checks on config fields and on sized arguments, naming the field."""

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
