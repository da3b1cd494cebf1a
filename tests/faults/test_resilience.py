"""Tests of the divergence guard and the random-restart policy."""

import numpy as np
import pytest

from repro import obs
from repro.core import IntegrationConfig, NaturalAnnealingEngine
from repro.core.dynamics import CircuitSimulator
from repro.faults import (
    DivergenceError,
    RestartOutcome,
    RestartPolicy,
    check_finite,
)


def _explosive_run(check_every):
    """An unrailed positive-feedback circuit that overflows quickly."""
    simulator = CircuitSimulator(
        config=IntegrationConfig(
            dt=1.0, rail=None, divergence_check_every=check_every
        ),
        rng=np.random.default_rng(0),
    )
    return simulator.run(
        lambda s: 1e10 * s**3, np.ones(3), duration=20.0
    )


class TestCheckFinite:
    def test_finite_state_passes(self):
        check_finite(np.zeros(5), "test", 1, 0.1)

    def test_nan_raises_with_diagnostics(self):
        sigma = np.array([0.0, np.nan, np.inf])
        with pytest.raises(DivergenceError, match="non-contractive") as info:
            check_finite(sigma, "unit", 7, 3.5)
        error = info.value
        assert error.where == "unit"
        assert error.step == 7
        assert error.time_ns == 3.5
        assert error.bad_nodes == 2
        assert "step 7" in str(error)

    def test_counter_and_event_recorded(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with obs.observe(trace_path=trace):
            with pytest.raises(DivergenceError):
                check_finite(np.array([np.nan]), "unit", 1, 0.5)
            assert (
                obs.metrics().counter("faults.divergence_errors").value == 1
            )
        assert "circuit.divergence" in trace.read_text()


class TestIntegrationGuard:
    def test_config_validated(self):
        with pytest.raises(ValueError, match="divergence_check_every"):
            IntegrationConfig(divergence_check_every=-1)

    def test_guard_off_returns_garbage_silently(self):
        with np.errstate(all="ignore"):
            run = _explosive_run(check_every=0)
        assert not np.isfinite(run.final_state).all()

    def test_guard_raises_mid_integration(self):
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match="circuit"):
                _explosive_run(check_every=1)


class _FlakyEngine:
    """Wraps a real engine, failing the first ``fail_times`` batch calls."""

    def __init__(self, inner, fail_times):
        self.inner = inner
        self.operator = inner.operator
        self.fail_times = fail_times
        self.calls = 0

    def infer_batch(self, *args, **kwargs):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise DivergenceError("stub", 3, 1.5, 2)
        return self.inner.infer_batch(*args, **kwargs)


class TestRestartPolicy:
    def test_parameters_validated(self):
        with pytest.raises(ValueError, match="restarts"):
            RestartPolicy(restarts=0)
        with pytest.raises(ValueError, match="max_retries"):
            RestartPolicy(max_retries=-1)

    def test_best_energy_survivor_selected(self, trained_model):
        engine = NaturalAnnealingEngine(trained_model)
        policy = RestartPolicy(restarts=4, seed=1)
        outcome = policy.infer(
            engine, np.arange(3), np.zeros(3), duration=10.0
        )
        assert isinstance(outcome, RestartOutcome)
        assert outcome.energies.shape == (4,)
        assert outcome.best_index == int(np.argmin(outcome.energies))
        assert outcome.attempts == 1
        assert outcome.diverged == 0
        assert outcome.state.shape == (trained_model.n,)
        assert outcome.prediction.shape == (trained_model.n - 3,)

    def test_deterministic_given_seed(self, trained_model):
        engine = NaturalAnnealingEngine(trained_model)
        a = RestartPolicy(restarts=3, seed=5).infer(
            engine, np.arange(3), np.zeros(3), duration=10.0
        )
        b = RestartPolicy(restarts=3, seed=5).infer(
            engine, np.arange(3), np.zeros(3), duration=10.0
        )
        assert np.array_equal(a.state, b.state)
        assert np.array_equal(a.energies, b.energies)

    def test_is_one_batched_inference(self, trained_model):
        """The restart pool is one ``infer_batch`` over ``restarts`` copies
        of the sample, drawing initial states and noise from the policy's
        seed; the lowest-energy member wins."""
        engine = NaturalAnnealingEngine(
            trained_model,
            config=IntegrationConfig(dt=0.05, node_noise_std=0.02),
        )
        observed = np.arange(3)
        values = np.array([0.4, -1.1, 0.7])
        outcome = RestartPolicy(restarts=5, seed=13).infer(
            engine, observed, values, duration=5.0
        )
        batch = engine.infer_batch(
            observed, np.repeat(values[None, :], 5, axis=0), duration=5.0,
            rng=np.random.default_rng(13),
        )
        energies = engine.operator.energy(batch.states)
        assert np.array_equal(outcome.energies, energies)
        # A non-default member wins here, so the selection is load-bearing.
        assert outcome.best_index == int(np.argmin(energies)) > 0
        assert np.array_equal(outcome.state, batch.states[outcome.best_index])
        assert np.array_equal(
            outcome.prediction, batch.predictions[outcome.best_index]
        )

    def test_recovers_after_divergence(self, trained_model):
        engine = _FlakyEngine(NaturalAnnealingEngine(trained_model), 1)
        policy = RestartPolicy(restarts=2, max_retries=2, seed=0)
        outcome = policy.infer(
            engine, np.arange(3), np.zeros(3), duration=10.0
        )
        assert outcome.diverged == 1
        assert outcome.attempts == 2
        assert np.isfinite(outcome.energies).all()

    def test_exhausted_retries_reraise(self, trained_model):
        engine = _FlakyEngine(NaturalAnnealingEngine(trained_model), 99)
        policy = RestartPolicy(restarts=2, max_retries=1, seed=0)
        with pytest.raises(DivergenceError, match="restart_policy"):
            policy.infer(engine, np.arange(3), np.zeros(3), duration=10.0)
        assert engine.calls == 2

    def test_recovery_counters_flow_through_obs(self, trained_model, tmp_path):
        engine = _FlakyEngine(NaturalAnnealingEngine(trained_model), 1)
        policy = RestartPolicy(restarts=3, max_retries=1, seed=0)
        with obs.observe(trace_path=tmp_path / "trace.jsonl"):
            policy.infer(engine, np.arange(3), np.zeros(3), duration=10.0)
            registry = obs.metrics()
            assert registry.counter("faults.restart_runs").value == 1
            assert registry.counter("faults.restarts").value == 3
            assert registry.counter("faults.restart_divergences").value == 1
