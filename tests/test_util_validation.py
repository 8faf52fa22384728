"""Tests for argument validation helpers (repro.util.validation)."""

import math

import pytest

from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 2.5) == 2.5

    def test_returns_float(self):
        out = check_positive("x", 3)
        assert isinstance(out, float) and out == 3.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", -1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            check_positive("x", math.nan)

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            check_positive("x", math.inf)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive("x", True)

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            check_positive("x", "3")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0.0

    def test_accepts_positive(self):
        assert check_non_negative("x", 1.5) == 1.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x"):
            check_non_negative("x", -0.001)


class TestCheckPositiveInt:
    def test_accepts_one(self):
        assert check_positive_int("n", 1) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="n"):
            check_positive_int("n", 0)

    def test_rejects_float(self):
        with pytest.raises(TypeError, match="n"):
            check_positive_int("n", 2.0)

    def test_rejects_bool(self):
        with pytest.raises(TypeError, match="n"):
            check_positive_int("n", True)

    def test_error_names_argument(self):
        with pytest.raises(ValueError, match="widgets"):
            check_positive_int("widgets", -3)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_closed_interval(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, 5])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError, match="p"):
            check_probability("p", value)

