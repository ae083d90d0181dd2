"""The one comparison of a solver certificate with its bound: ``errors.certify``."""

import math

import numpy as np
import pytest

from entrep.errors import NoConvergence, NotHurwitz, certify


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("strict", [False, True])
def test_non_finite_values_fail(value, strict):
    # -inf is below every bound, and still no certificate
    with pytest.raises(NoConvergence, match=f"= {value}, not"):
        certify(value, 1.0, NoConvergence, "residual", strict=strict)
    with pytest.raises(NoConvergence, match=r"\(slice 1\)"):
        certify(np.array([0.5, value]), 1.0, NoConvergence, "residual", strict=strict)


def test_equality_passes_a_bound_and_fails_a_strict_one():
    assert certify(-1e-12, -1e-12, NotHurwitz, "margin") == -1e-12
    with pytest.raises(NotHurwitz, match="= -1e-12, not < -1e-12"):
        certify(-1e-12, -1e-12, NotHurwitz, "margin", strict=True)
    assert certify(np.nextafter(-1e-12, -1.0), -1e-12, NotHurwitz, "margin", strict=True)


def test_a_stack_names_its_first_failing_slice():
    values = np.array([0.0, 2.0, 0.5, 3.0])
    with pytest.raises(NoConvergence, match=r"^residual \(slice 1\) = 2, not <= 1$"):
        certify(values, 1.0, NoConvergence, "residual")
    # rows of an (S, K) stack, and a bound per slice
    rows = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 4.0]])
    with pytest.raises(NoConvergence, match=r"\(slice 2\) = 4, not <= 3$"):
        certify(rows, np.array([[1.0], [2.0], [3.0]]), NoConvergence, "residual")


def test_a_scalar_names_no_slice():
    with pytest.raises(NoConvergence) as caught:
        certify(np.float64(2.0), 1.0, NoConvergence, "residual")
    assert str(caught.value) == "residual = 2, not <= 1"
    assert "slice" not in str(caught.value)


def test_the_message_carries_the_value_and_the_bound():
    with pytest.raises(NoConvergence) as caught:
        certify(np.array([3.25e-5]), 2.5e-10, NoConvergence, "Sylvester residual")
    assert str(caught.value) == "Sylvester residual (slice 0) = 3.25e-05, not <= 2.5e-10"


def test_the_values_come_back_unchanged():
    values = np.array([-0.0, 0.25, 1.0])
    assert certify(values, 1.0, NoConvergence, "residual") is values
    assert np.array_equal(values, [-0.0, 0.25, 1.0]) and np.signbit(values[0])
    assert certify(0.5, 1.0, NoConvergence, "residual") == 0.5
    assert certify(3, 3, NoConvergence, "info") == 3
