"""Tests of the training fitters (Eq. 10 regression, precision, CONCORD)."""

import numpy as np
import pytest

from repro.core import (
    NaturalAnnealingEngine,
    TrainingConfig,
    fit_precision,
    fit_precision_masked,
    fit_regression,
    normalization_stats,
    regression_loss,
    rmse,
)


class TestTrainingConfig:
    def test_rejects_negative_ridge(self):
        with pytest.raises(ValueError, match="ridge"):
            TrainingConfig(ridge=-1.0)

    def test_rejects_bad_rail_fraction(self):
        with pytest.raises(ValueError, match="rail"):
            TrainingConfig(target_rail_fraction=0.0)

    def test_rejects_bad_margin(self):
        with pytest.raises(ValueError, match="margin"):
            TrainingConfig(margin=-0.1)


class TestNormalizationStats:
    def test_maps_std_to_rail_fraction(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(3.0, 2.0, size=(5000, 4))
        mean, scale = normalization_stats(samples, target_rail_fraction=0.25)
        z = (samples - mean) / scale
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z.std(axis=0), 0.25, atol=1e-9)

    def test_constant_column_gets_unit_scale(self):
        samples = np.ones((10, 2))
        _mean, scale = normalization_stats(samples, 0.3)
        assert np.all(np.isfinite(scale)) and np.all(scale > 0)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="num_samples"):
            normalization_stats(np.zeros(5))


class TestFitPrecision:
    def test_model_is_convex(self, gaussian_samples, trained_model):
        assert trained_model.convexity_margin() > 0

    def test_predictions_beat_marginal_baseline(self, gaussian_samples, trained_model):
        samples, cov = gaussian_samples
        rng = np.random.default_rng(42)
        test = rng.multivariate_normal(np.zeros(10), cov, size=200)
        engine = NaturalAnnealingEngine(trained_model)
        observed = np.arange(6)
        predictions = np.stack(
            [
                engine.infer_equilibrium(observed, s[observed]).prediction
                for s in test
            ]
        )
        targets = test[:, 6:]
        model_rmse = rmse(predictions, targets)
        marginal_rmse = rmse(np.zeros_like(targets), targets)
        assert model_rmse < 0.95 * marginal_rmse

    def test_prediction_approaches_gaussian_conditional(self, gaussian_samples):
        """The clamped fixed point must match the optimal linear estimate
        of the generating Gaussian in the large-sample limit."""
        samples, cov = gaussian_samples
        model = fit_precision(samples, TrainingConfig(ridge=1e-4, margin=1e-6))
        engine = NaturalAnnealingEngine(model)
        observed = np.arange(5)
        hidden = np.arange(5, 10)
        x_obs = np.random.default_rng(1).normal(size=5)
        conditional = cov[np.ix_(hidden, observed)] @ np.linalg.solve(
            cov[np.ix_(observed, observed)], x_obs
        )
        prediction = engine.infer_equilibrium(observed, x_obs).prediction
        assert np.allclose(prediction, conditional, atol=0.25)

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match="two samples"):
            fit_precision(np.zeros((1, 3)))

    def test_metadata_recorded(self, gaussian_samples):
        samples, _ = gaussian_samples
        model = fit_precision(samples, metadata={"dataset": "unit"})
        assert model.metadata["fitter"] == "precision"
        assert model.metadata["dataset"] == "unit"


class TestFitPrecisionMasked:
    def test_support_respected(self, gaussian_samples):
        samples, _ = gaussian_samples
        n = samples.shape[1]
        rng = np.random.default_rng(3)
        mask = rng.random((n, n)) < 0.3
        mask = mask | mask.T
        np.fill_diagonal(mask, False)
        model = fit_precision_masked(samples, mask)
        assert np.all(model.J[~mask] == 0.0)
        assert model.convexity_margin() > 0

    def test_full_mask_approaches_dense_fit(self, gaussian_samples):
        samples, _ = gaussian_samples
        n = samples.shape[1]
        mask = ~np.eye(n, dtype=bool)
        dense = fit_precision(samples, TrainingConfig(ridge=1e-2))
        masked = fit_precision_masked(samples, mask, TrainingConfig(ridge=1e-2))
        # Same optimum family: predictions should agree closely.
        engine_a = NaturalAnnealingEngine(dense)
        engine_b = NaturalAnnealingEngine(masked)
        observed = np.arange(6)
        x = samples[0][observed]
        pa = engine_a.infer_equilibrium(observed, x).prediction
        pb = engine_b.infer_equilibrium(observed, x).prediction
        assert np.allclose(pa, pb, atol=0.3)

    def test_nested_supports_do_not_degrade_training_fit(self, traffic_setup):
        """CONCORD on a superset support must fit training data at least as
        well — the monotonicity behind Fig. 10."""
        from repro.decompose import prune_to_density

        model = traffic_setup["model"]
        samples = traffic_setup["samples"]
        small = prune_to_density(model.J, 0.05) != 0
        large = small | (prune_to_density(model.J, 0.15) != 0)
        cfg = TrainingConfig(ridge=1e-2)
        m_small = fit_precision_masked(samples, small, cfg)
        m_large = fit_precision_masked(samples, large, cfg)

        def training_objective(m):
            z = (samples - m.mean) / m.scale
            return regression_loss(m.J, m.h, z)

        assert training_objective(m_large) <= training_objective(m_small) * 1.05

    def test_empty_mask_yields_diagonal_model(self, gaussian_samples):
        samples, _ = gaussian_samples
        n = samples.shape[1]
        model = fit_precision_masked(samples, np.zeros((n, n), dtype=bool))
        assert np.count_nonzero(model.J) == 0
        assert np.all(model.h < 0)

    def test_mask_shape_validated(self, gaussian_samples):
        samples, _ = gaussian_samples
        with pytest.raises(ValueError, match="mask"):
            fit_precision_masked(samples, np.zeros((3, 3), dtype=bool))

    def test_constant_variable_without_ridge_is_rejected(self):
        samples = np.random.default_rng(0).normal(size=(50, 4))
        samples[:, 2] = 0.0
        mask = ~np.eye(4, dtype=bool)
        with pytest.raises(ValueError, match="variable 2 .*ridge > 0"):
            fit_precision_masked(samples, mask, TrainingConfig(ridge=0.0))
        # Any ridge gives the constant variable a positive variance.
        model = fit_precision_masked(samples, mask, TrainingConfig(ridge=1e-2))
        assert np.all(np.isfinite(model.J)) and np.all(model.h < 0)


class TestFitRegression:
    def test_learns_gaussian_structure(self, gaussian_samples):
        samples, _ = gaussian_samples
        model = fit_regression(
            samples[:400], TrainingConfig(epochs=30, lr=0.05, seed=0)
        )
        assert model.convexity_margin() > 0
        # The training loss of the fitted model beats the all-zero-J model.
        z = (samples[:400] - model.mean) / model.scale
        fitted = regression_loss(model.J, model.h, z)
        null = regression_loss(np.zeros_like(model.J), model.h, z)
        assert fitted < null

    def test_mask_respected(self, gaussian_samples):
        samples, _ = gaussian_samples
        n = samples.shape[1]
        mask = np.zeros((n, n), dtype=bool)
        mask[0, 1] = mask[1, 0] = True
        model = fit_regression(
            samples[:200], TrainingConfig(epochs=5), mask=mask
        )
        off = model.J.copy()
        off[0, 1] = off[1, 0] = 0.0
        assert np.count_nonzero(off) == 0

    def test_warm_start_reuses_normalization(self, gaussian_samples, trained_model):
        samples, _ = gaussian_samples
        tuned = fit_regression(
            samples[:200], TrainingConfig(epochs=2), init=trained_model
        )
        assert np.allclose(tuned.mean, trained_model.mean)
        assert np.allclose(tuned.scale, trained_model.scale)

    def test_h_stays_negative(self, gaussian_samples):
        samples, _ = gaussian_samples
        model = fit_regression(samples[:100], TrainingConfig(epochs=3))
        assert np.all(model.h < 0)
