"""Tests of natural-annealing inference (Sec. III.C)."""

import numpy as np
import pytest

from repro import obs
from repro.core import (
    IntegrationConfig,
    NaturalAnnealingEngine,
    symmetrize_coupling,
)
from repro.core.dynamics import CircuitSimulator
from repro.core.model import DSGLModel
from repro.faults import FaultModel
from repro.obs import read_trace


def _engine(seed=0, **config_kwargs):
    rng = np.random.default_rng(seed)
    n = 8
    J = symmetrize_coupling(rng.normal(size=(n, n)) * 0.5)
    h = -(np.abs(J).sum(axis=1) + 1.0)
    model = DSGLModel(
        J=J,
        h=h,
        mean=rng.normal(size=n),
        scale=rng.uniform(0.5, 1.5, size=n),
    )
    return NaturalAnnealingEngine(
        model, config=IntegrationConfig(dt=0.02, **config_kwargs)
    )


def _reference_run(engine, observed, values, duration):
    """The full ``run_batch`` that ``engine.infer_batch`` stands for.

    Same seed, initial states, clamps, simulator and energy; the drift is
    the operator's own (or, under coupler noise, the engine's perturbed
    one).  Returns ``(trajectory, predictions)``.
    """
    model = engine.model
    clamp = (values - model.mean[observed]) / model.scale[observed]
    rng = np.random.default_rng(engine.seed)
    sigma0 = rng.uniform(-1.0, 1.0, size=(values.shape[0], model.n))
    sigma0[:, observed] = clamp
    simulator = CircuitSimulator(
        config=engine.config, rng=rng, faults=engine.faults
    )
    operator = engine.operator
    trajectory = simulator.run_batch(
        engine._drift_function(simulator, operator),
        sigma0,
        duration,
        clamp_index=observed,
        clamp_value=clamp,
        energy=operator.energy,
    )
    free = np.setdiff1d(np.arange(model.n), observed)
    predictions = (
        trajectory.final_states[:, free] * model.scale[free] + model.mean[free]
    )
    return trajectory, predictions


class TestEquilibriumInference:
    def test_prediction_matches_direct_solve(self):
        engine = _engine()
        model = engine.model
        observed = np.asarray([0, 2, 5])
        raw = np.asarray([1.0, -0.5, 0.3])
        result = engine.infer_equilibrium(observed, raw)
        normalized = (raw - model.mean[observed]) / model.scale[observed]
        expected_state = model.hamiltonian().fixed_point(observed, normalized)
        assert np.allclose(result.state, expected_state)
        free = np.setdiff1d(np.arange(8), observed)
        expected = expected_state[free] * model.scale[free] + model.mean[free]
        assert np.allclose(result.prediction, expected)

    def test_infinite_annealing_time(self):
        engine = _engine()
        result = engine.infer_equilibrium(np.asarray([0]), np.asarray([1.0]))
        assert result.annealing_time_ns == float("inf")
        assert result.trajectory is None


class TestCircuitInference:
    def test_converges_to_equilibrium(self):
        engine = _engine()
        observed = np.asarray([0, 3])
        raw = np.asarray([0.5, -0.2])
        circuit = engine.infer(observed, raw, duration=300.0)
        equilibrium = engine.infer_equilibrium(observed, raw)
        assert np.allclose(circuit.prediction, equilibrium.prediction, atol=1e-4)

    def test_trajectory_recorded_with_decreasing_energy(self):
        engine = _engine(seed=1)
        result = engine.infer(np.asarray([1]), np.asarray([0.4]), duration=50.0)
        assert result.trajectory is not None
        assert np.all(np.diff(result.trajectory.energies) <= 1e-9)

    def test_noise_produces_different_but_close_result(self):
        quiet = _engine(seed=2)
        noisy = _engine(seed=2, node_noise_std=0.02)
        observed = np.asarray([0, 1])
        raw = np.asarray([0.2, 0.6])
        a = quiet.infer(observed, raw, duration=100.0).prediction
        b = noisy.infer(observed, raw, duration=100.0).prediction
        assert not np.allclose(a, b)
        assert np.max(np.abs(a - b)) < 1.0

    def test_seeded_runs_are_reproducible(self):
        engine = _engine(seed=3)
        observed = np.asarray([2])
        raw = np.asarray([0.1])
        a = engine.infer(observed, raw, duration=20.0).prediction
        b = engine.infer(observed, raw, duration=20.0).prediction
        assert np.allclose(a, b)


class TestValidation:
    def test_duplicate_observed_rejected(self):
        engine = _engine()
        with pytest.raises(ValueError, match="duplicates"):
            engine.infer_equilibrium(np.asarray([1, 1]), np.asarray([0.0, 0.0]))

    def test_out_of_range_observed_rejected(self):
        engine = _engine()
        with pytest.raises(ValueError, match="range"):
            engine.infer_equilibrium(np.asarray([99]), np.asarray([0.0]))

    def test_length_mismatch_rejected(self):
        engine = _engine()
        with pytest.raises(ValueError, match="length"):
            engine.infer_equilibrium(np.asarray([0, 1]), np.asarray([0.0]))


class TestEndToEnd:
    def test_traffic_prediction_beats_persistence(self, traffic_setup):
        """DS-GL on the traffic dataset must beat the trivial last-frame
        predictor — the sanity bar for the whole pipeline."""
        from repro.core import rmse

        tw = traffic_setup["windowing"]
        model = traffic_setup["model"]
        test = traffic_setup["test"].series
        engine = NaturalAnnealingEngine(model)
        predictions, persistence, targets = [], [], []
        for t in tw.prediction_frames(test)[:30]:
            history = tw.history_of(test, t)
            predictions.append(
                engine.infer_equilibrium(tw.observed_index, history).prediction
            )
            persistence.append(test[t - 1])
            targets.append(test[t])
        model_rmse = rmse(np.asarray(predictions), np.asarray(targets))
        persistence_rmse = rmse(np.asarray(persistence), np.asarray(targets))
        assert model_rmse < persistence_rmse


class TestFactorizationCache:
    def test_cache_starts_empty_and_grows_per_observed_set(self):
        engine = _engine()
        assert engine.cache_size == 0
        observed = np.asarray([0, 2, 5])
        raw = np.asarray([1.0, -0.5, 0.3])
        engine.infer_equilibrium(observed, raw)
        assert engine.cache_size == 1
        # Same observed set: the factorization is reused, not re-added.
        engine.infer_equilibrium(observed, raw * 0.5)
        assert engine.cache_size == 1
        # A different observed set gets its own entry.
        engine.infer_equilibrium(np.asarray([1, 4]), np.asarray([0.2, 0.1]))
        assert engine.cache_size == 2

    def test_single_and_batch_share_one_entry(self):
        engine = _engine()
        observed = np.asarray([0, 3, 6])
        engine.infer_equilibrium(observed, np.asarray([0.1, 0.2, 0.3]))
        engine.infer_equilibrium_batch(
            observed, np.asarray([[0.1, 0.2, 0.3], [-0.4, 0.0, 0.9]])
        )
        assert engine.cache_size == 1

    def test_clear_cache_resets(self):
        engine = _engine()
        engine.infer_equilibrium(np.asarray([0]), np.asarray([0.5]))
        assert engine.cache_size == 1
        engine.clear_cache()
        assert engine.cache_size == 0

    def test_cached_path_matches_fresh_engine(self):
        """A warm cache must not change results."""
        warm = _engine()
        observed = np.asarray([0, 2, 5])
        first = np.asarray([1.0, -0.5, 0.3])
        second = np.asarray([-0.7, 0.9, 0.0])
        warm.infer_equilibrium(observed, first)
        cached = warm.infer_equilibrium(observed, second).prediction
        fresh = _engine().infer_equilibrium(observed, second).prediction
        assert np.allclose(cached, fresh)


class TestBatchInference:
    def test_equilibrium_batch_matches_per_sample(self):
        engine = _engine()
        observed = np.asarray([0, 2, 5])
        rng = np.random.default_rng(9)
        values = rng.uniform(-1, 1, size=(6, observed.size))
        batched = engine.infer_equilibrium_batch(observed, values)
        assert batched.shape == (6, 8 - observed.size)
        for i in range(values.shape[0]):
            single = engine.infer_equilibrium(observed, values[i]).prediction
            assert np.allclose(batched[i], single, atol=1e-10)

    def test_circuit_batch_converges_to_equilibrium(self):
        engine = _engine()
        observed = np.asarray([0, 3])
        values = np.asarray([[0.5, -0.2], [-0.1, 0.8], [0.0, 0.0]])
        result = engine.infer_batch(observed, values, duration=300.0)
        expected = engine.infer_equilibrium_batch(observed, values)
        assert result.predictions.shape == expected.shape
        assert np.allclose(result.predictions, expected, atol=1e-4)

    def test_batch_trajectory_shapes_and_energy(self):
        engine = _engine(seed=1)
        observed = np.asarray([1, 4])
        values = np.asarray([[0.4, -0.3], [0.2, 0.6]])
        result = engine.infer_batch(observed, values, duration=20.0)
        trajectory = result.trajectory
        assert trajectory.batch_size == 2
        # infer_batch keeps only the last two recorded frames.
        assert trajectory.states.shape == (2, 2, 8)
        assert trajectory.energies.shape == (2, 2)
        assert result.annealing_time_ns == 20.0

    def test_run_batch_energy_never_increases(self):
        """H_RV never increases at any step of the run infer_batch stands
        for: same model, clamps, operator drift and energy."""
        engine = _engine(seed=1)
        observed = np.asarray([1, 4])
        values = np.asarray([[0.4, -0.3], [0.2, 0.6]])
        trajectory, _ = _reference_run(engine, observed, values, 20.0)
        # 20 ns at dt=0.02 ns: the initial state and all 1000 steps.
        assert trajectory.energies.shape == (1001, 2)
        assert np.all(np.diff(trajectory.energies, axis=0) <= 1e-9)
        tail = engine.infer_batch(observed, values, duration=20.0).trajectory
        assert np.array_equal(tail.energies, trajectory.energies[-2:])

    def test_batch_rejects_bad_shapes(self):
        engine = _engine()
        observed = np.asarray([0, 2])
        with pytest.raises(ValueError, match="batch, num_observed"):
            engine.infer_batch(observed, np.asarray([0.1, 0.2]))
        with pytest.raises(ValueError, match="batch, num_observed"):
            engine.infer_equilibrium_batch(observed, np.zeros((3, 5)))


class TestBatchTail:
    """``infer_batch`` computes only what it returns, bit for bit.

    It keeps the last two recorded frames, evaluates H_RV for those two,
    and on the sparse backend without coupler noise multiplies only the
    free rows of ``J``.  Everything it returns must equal the full
    :func:`_reference_run` exactly.
    """

    POLICIES = {
        "fixed": {},
        "early_exit": {"early_exit": True},
        "adaptive": {"adaptive": True, "rtol": 1e-3},
        "rk4": {"method": "rk4"},
    }
    OBSERVED = np.arange(0, 20, 3)

    @staticmethod
    def _make_engine(backend, **config_kwargs):
        rng = np.random.default_rng(4)
        n = 20
        raw = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.3)
        J = symmetrize_coupling(raw)
        h = -(np.abs(J).sum(axis=1) + 1.0)
        model = DSGLModel(
            J=J,
            h=h,
            mean=rng.normal(size=n),
            scale=rng.uniform(0.5, 1.5, size=n),
        )
        return NaturalAnnealingEngine(
            model,
            config=IntegrationConfig(dt=0.05, **config_kwargs),
            seed=5,
            backend=backend,
        )

    def _assert_matches_reference(self, engine, duration=4.0):
        values = np.random.default_rng(6).normal(size=(4, self.OBSERVED.size))
        result = engine.infer_batch(self.OBSERVED, values, duration=duration)
        reference, predictions = _reference_run(
            engine, self.OBSERVED, values, duration
        )
        tail = result.trajectory
        assert reference.times.size > 2
        assert tail.states.shape == (2, 4, engine.model.n)
        assert np.array_equal(result.predictions, predictions)
        assert np.array_equal(result.states, reference.final_states)
        assert np.array_equal(tail.times, reference.times[-2:])
        assert np.array_equal(tail.states, reference.states[-2:])
        assert np.array_equal(tail.energies, reference.energies[-2:])
        assert np.array_equal(
            tail.settled_fraction(), reference.settled_fraction()
        )

    @pytest.mark.parametrize("record_every", [1, 5])
    @pytest.mark.parametrize("node_noise_std", [0.0, 0.02])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("backend", ["sparse", "dense"])
    def test_matches_full_run(
        self, backend, policy, node_noise_std, record_every
    ):
        engine = self._make_engine(
            backend,
            node_noise_std=node_noise_std,
            record_every=record_every,
            **self.POLICIES[policy],
        )
        self._assert_matches_reference(engine)

    def test_coupler_noise_matches_full_run(self):
        engine = self._make_engine("sparse", coupling_noise_std=0.05)
        self._assert_matches_reference(engine)

    def test_faults_match_full_run(self):
        engine = self._make_engine("sparse", node_noise_std=0.02)
        scenario = FaultModel.uniform(0.05, seed=6).sample(
            engine.model.n, engine.model.J
        )
        # One node stuck among the observed and one among the free ones,
        # beside dead and drifting couplers.
        assert np.intersect1d(scenario.stuck_index, self.OBSERVED).size
        assert np.setdiff1d(scenario.stuck_index, self.OBSERVED).size
        assert scenario.summary()["dead_couplers"]
        engine.set_faults(scenario)
        self._assert_matches_reference(engine)

    def test_sparse_drift_multiplies_only_free_rows(self, tmp_path):
        free = 20 - self.OBSERVED.size
        values = np.zeros((2, self.OBSERVED.size))
        for backend, rows in (("sparse", free), ("dense", 20)):
            path = tmp_path / f"{backend}.jsonl"
            with obs.observe(trace_path=path):
                self._make_engine(backend).infer_batch(
                    self.OBSERVED, values, duration=1.0
                )
            (span,) = [
                r for r in read_trace(path)
                if r["kind"] == "span" and r["name"] == "engine.infer_batch"
            ]
            assert span["attributes"]["drift_rows"] == rows


class TestCacheBound:
    """The reduced-system cache is an LRU bounded at cache_capacity.

    Regression tests for the unbounded-growth leak: before the bound, a
    serving workload rotating through distinct observed sets grew one
    SuperLU factorization per set forever.
    """

    def _bounded_engine(self, capacity):
        base = _engine()
        return NaturalAnnealingEngine(
            base.model, config=base.config, cache_capacity=capacity
        )

    def test_cache_plateaus_at_capacity(self):
        engine = self._bounded_engine(3)
        for start in range(10):
            observed = np.asarray([start % 8, (start + 1) % 8])
            engine.infer_equilibrium(observed, np.asarray([0.1, -0.2]))
        assert engine.cache_size == 3
        assert engine.cache_evictions == 10 - 3

    def test_evicted_entry_refactors_and_matches(self):
        engine = self._bounded_engine(1)
        first = (np.asarray([0, 2]), np.asarray([0.5, -0.1]))
        second = (np.asarray([1, 4]), np.asarray([0.3, 0.7]))
        baseline = engine.infer_equilibrium(*first).prediction
        engine.infer_equilibrium(*second)  # evicts the first entry
        assert engine.cache_evictions == 1
        again = engine.infer_equilibrium(*first).prediction
        assert engine.cache_evictions == 2
        assert np.allclose(again, baseline)

    def test_lru_order_keeps_recently_used(self):
        engine = self._bounded_engine(2)
        a = np.asarray([0, 1])
        b = np.asarray([2, 3])
        c = np.asarray([4, 5])
        values = np.asarray([0.1, 0.2])
        engine.infer_equilibrium(a, values)
        engine.infer_equilibrium(b, values)
        engine.infer_equilibrium(a, values)  # refresh a's recency
        engine.infer_equilibrium(c, values)  # must evict b, not a
        hits = engine.cache_hits
        engine.infer_equilibrium(a, values)
        assert engine.cache_hits == hits + 1  # a survived

    def test_capacity_validated(self):
        base = _engine()
        with pytest.raises(ValueError, match="cache_capacity"):
            NaturalAnnealingEngine(base.model, cache_capacity=0)

    def test_clear_cache_resets_eviction_counter(self):
        engine = self._bounded_engine(1)
        engine.infer_equilibrium(np.asarray([0]), np.asarray([0.5]))
        engine.infer_equilibrium(np.asarray([1]), np.asarray([0.5]))
        assert engine.cache_evictions == 1
        engine.clear_cache()
        assert engine.cache_evictions == 0


class TestStaleFingerprint:
    """In-place model mutations must not be served stale cached solves.

    Regression tests for the documented stale-cache hazard: before the
    fingerprint check, mutating ``model.J`` in place after a solve kept
    serving the factorization of the old parameters.
    """

    def test_inplace_mutation_invalidates_equilibrium(self):
        engine = _engine()
        observed = np.asarray([0, 2, 5])
        raw = np.asarray([1.0, -0.5, 0.3])
        stale = engine.infer_equilibrium(observed, raw).prediction
        engine.model.J *= 1.5  # in place, no clear_cache()
        served = engine.infer_equilibrium(observed, raw).prediction
        fresh = NaturalAnnealingEngine(engine.model).infer_equilibrium(
            observed, raw
        ).prediction
        assert engine.stale_invalidations == 1
        assert np.allclose(served, fresh)
        assert not np.allclose(served, stale)

    def test_inplace_mutation_invalidates_operator(self):
        engine = _engine()
        before = engine.operator.to_dense().copy()
        engine.model.J *= 2.0
        after = engine.operator.to_dense()
        assert engine.stale_invalidations == 1
        assert not np.allclose(before, after)

    def test_h_mutation_detected(self):
        engine = _engine()
        observed = np.asarray([1, 3])
        raw = np.asarray([0.4, -0.6])
        engine.infer_equilibrium(observed, raw)
        engine.model.h *= 1.1
        engine.infer_equilibrium(observed, raw)
        assert engine.stale_invalidations == 1
        assert engine.cache_size == 1  # rebuilt against the new h

    def test_unmutated_model_never_invalidates(self):
        engine = _engine()
        observed = np.asarray([0, 4])
        for _ in range(5):
            engine.infer_equilibrium(observed, np.asarray([0.2, 0.8]))
        assert engine.stale_invalidations == 0
        assert engine.cache_hits == 4

    def test_explicit_clear_cache_still_works(self):
        engine = _engine()
        observed = np.asarray([0, 2])
        raw = np.asarray([0.3, 0.1])
        engine.infer_equilibrium(observed, raw)
        engine.model.J *= 1.5
        engine.clear_cache()  # the sample-proof path
        served = engine.infer_equilibrium(observed, raw).prediction
        fresh = NaturalAnnealingEngine(engine.model).infer_equilibrium(
            observed, raw
        ).prediction
        assert np.allclose(served, fresh)
        # clear_cache reset the stored fingerprint, so the rebuild does
        # not double-count as a detected stale invalidation.
        assert engine.stale_invalidations == 0
