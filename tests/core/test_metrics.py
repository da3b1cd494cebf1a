"""Tests of the accuracy metrics."""

import numpy as np
import pytest

from repro.core import mae, rmse


class TestRmse:
    def test_perfect_prediction(self):
        x = np.asarray([1.0, 2.0, 3.0])
        assert rmse(x, x) == 0.0

    def test_known_value(self):
        assert np.isclose(rmse(np.asarray([0.0, 0.0]), np.asarray([3.0, 4.0])), np.sqrt(12.5))

    def test_flattens_matrices(self):
        a = np.ones((2, 3))
        b = np.zeros((2, 3))
        assert np.isclose(rmse(a, b), 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            rmse(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rmse(np.zeros(0), np.zeros(0))


class TestMae:
    def test_known_value(self):
        assert np.isclose(mae(np.asarray([1.0, -1.0]), np.zeros(2)), 1.0)

    def test_upper_bounds_by_rmse(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=50), rng.normal(size=50)
        assert mae(a, b) <= rmse(a, b) + 1e-12

