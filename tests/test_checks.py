"""checks.check_numbers and check_array: a (finite) float array of one of the
given shapes, or a ValueError naming the argument."""

import re
import reprlib

import numpy as np
import pytest

from flowpose.checks import check_array, check_numbers

POSE = ((None, 4), (None, None, 4))     # pose_init: K quaternions, or K per view


@pytest.mark.parametrize("value, shapes, shape", [
    ([[1, 2], [3, 4], [5, 6]], ((None, 2),), (3, 2)),
    (np.zeros((0, 2)), ((None, 2),), (0, 2)),
    ([[1, 0, 0, 0]] * 3, POSE, (3, 4)),
    ([[[1, 0, 0, 0]] * 3] * 2, POSE, (2, 3, 4)),
    (np.eye(3, dtype=np.float32)[None], ((1, 3, 3),), (1, 3, 3))])
def test_check_array_returns_the_values_as_floats(value, shapes, shape):
    a = check_array("x", value, *shapes)
    assert a.dtype == np.float64 and a.shape == shape
    np.testing.assert_array_equal(a, np.asarray(value, float))


@pytest.mark.parametrize("shape", [(8, 3, 3), (None, 3, 3)])
def test_a_float64_array_comes_back_as_itself(shape):
    a = np.zeros((8, 3, 3))
    assert check_array("pose_init", a, shape) is a


@pytest.mark.parametrize("value, shapes, problem", [
    ([[1, 2], [3]], ((None, 2),), "numbers of shape (None, 2)"),
    ("abc", ((None, 2),), "numbers of shape (None, 2)"),
    (None, ((3,),), "numbers of shape (3,)"),
    ([["1", "0"]], ((None, 2),), "numbers of shape (None, 2)"),
    ([["1", "0", "0", "0"]], POSE, "numbers of shape (None, 4) or (None, None, 4)"),
    (np.zeros((8, 3, 3)).astype(str), ((8, 3, 3),), "numbers of shape (8, 3, 3)"),
    ([0.1, np.nan, 0.3], ((3,),), "finite"),
    ([[1, 0, 0, np.inf]], POSE, "finite"),
    ([[-np.inf, 0.0]], ((None, 2),), "finite"),
    (5.0, ((3,),), "numbers of shape (3,)"),
    ([1, "2", 3], ((3,),), "numbers of shape (3,)"),
    ([2 ** 70, "1"], ((2,),), "numbers of shape (2,)"),
    ([b"1", b"2"], ((2,),), "numbers of shape (2,)"),
    ([10 ** 400], ((1,),), "numbers of shape (1,)")])
def test_check_array_names_what_it_rejects(value, shapes, problem):
    expected = f"x must be {problem}, got {reprlib.repr(value)}"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        check_array("x", value, *shapes)


@pytest.mark.parametrize("value, shapes, shape", [
    ([[1, 2, 3]], ((None, 2),), (1, 3)),
    ([1, 0, 0, 0], POSE, (4,)),
    (np.zeros((7, 3, 3)), ((8, 3, 3),), (7, 3, 3))])
def test_a_misshapen_array_is_reported_by_its_shape(value, shapes, shape):
    expected = f"x must be numbers of shape {' or '.join(map(str, shapes))}, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        check_array("x", value, *shapes)


def test_check_numbers_leaves_the_finiteness_check_to_check_array():
    a = check_numbers("beta_prior", [1.0, np.nan, np.inf], (None,))
    assert a.dtype == np.float64 and np.array_equal(a, [1.0, np.nan, np.inf], equal_nan=True)
