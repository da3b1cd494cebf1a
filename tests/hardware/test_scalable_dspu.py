"""Tests of the Scalable DSPU co-annealing simulator."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro import obs
from repro.core import NaturalAnnealingEngine, rmse
from repro.core.model import DSGLModel
from repro.decompose.pipeline import DecomposedSystem, DecompositionConfig
from repro.decompose.redistribute import PlacementResult
from repro.hardware import HardwareConfig, ScalableDSPU
from repro.hardware.scalable_dspu import (
    _clamp_stage,
    _forcing_integral,
    _interval_stage,
    _pairs_matrix,
)
from repro.obs import read_trace


@pytest.fixture(scope="module")
def dspu(decomposed_traffic):
    config = HardwareConfig(
        grid_shape=(3, 3),
        pe_capacity=decomposed_traffic.placement.capacity,
        lanes=8,
    )
    return ScalableDSPU(
        decomposed_traffic, config, node_time_constant_ns=500.0
    )


class TestConstruction:
    def test_mode_reflects_schedule(self, dspu):
        assert dspu.mode in ("spatial", "temporal+spatial")
        assert dspu.num_phases >= 1

    def test_pes_match_placement(self, dspu, decomposed_traffic):
        assert len(dspu.pes) == 9
        for pe, group in zip(dspu.pes, decomposed_traffic.placement.groups):
            assert np.array_equal(pe.nodes, group)

    def test_utilization_in_unit_interval(self, dspu):
        assert 0.0 < dspu.utilization() <= 1.0

    def test_duty_compensated_average_equals_trained_dynamics(self, dspu):
        """Time-average of the boosted per-phase matrices must equal the
        full scaled dynamics — the invariant behind PWM co-annealing."""
        model = dspu.model
        trained = (model.J + np.diag(model.h)) * dspu.time_scale
        phases = dspu._A_inter_boosted.reshape(-1, model.n, model.n)
        assert len(phases) == dspu.num_phases
        average = dspu._A_local + phases.sum(axis=0) / len(phases)
        assert np.allclose(average, trained, atol=1e-12)

    def test_rejects_bad_time_constant(self, decomposed_traffic):
        with pytest.raises(ValueError, match="time_constant"):
            ScalableDSPU(
                decomposed_traffic,
                HardwareConfig(
                    grid_shape=(3, 3),
                    pe_capacity=decomposed_traffic.placement.capacity,
                ),
                node_time_constant_ns=0.0,
            )


class TestAnnealing:
    def _one_inference(self, dspu, traffic_setup, **kwargs):
        tw = traffic_setup["windowing"]
        test = traffic_setup["test"].series
        history = tw.history_of(test, 3)
        return tw, test, dspu.anneal(tw.observed_index, history, **kwargs)

    def test_converges_to_equilibrium(self, dspu, traffic_setup, decomposed_traffic):
        tw = traffic_setup["windowing"]
        test = traffic_setup["test"].series
        history = tw.history_of(test, 3)
        outcome = dspu.anneal(tw.observed_index, history, duration_ns=100000.0)
        engine = NaturalAnnealingEngine(decomposed_traffic.model)
        equilibrium = engine.infer_equilibrium(tw.observed_index, history)
        gap = np.max(np.abs(outcome.prediction - equilibrium.prediction))
        assert gap < 0.12

    def test_accuracy_improves_with_latency(self, dspu, traffic_setup):
        tw = traffic_setup["windowing"]
        test = traffic_setup["test"].series
        frames = tw.prediction_frames(test)[:8]

        def score(duration):
            predictions, targets = [], []
            for t in frames:
                history = tw.history_of(test, t)
                out = dspu.anneal(tw.observed_index, history, duration_ns=duration)
                predictions.append(out.prediction)
                targets.append(test[t])
            return rmse(np.asarray(predictions), np.asarray(targets))

        short = score(2000.0)
        long = score(50000.0)
        assert long < short

    def test_observed_nodes_clamped(self, dspu, traffic_setup):
        tw, test, outcome = self._one_inference(
            dspu, traffic_setup, duration_ns=2000.0
        )
        clamp = dspu._normalize_subset(
            tw.observed_index, tw.history_of(test, 3)
        )
        assert np.allclose(outcome.state[tw.observed_index], clamp)

    def test_latency_reported(self, dspu, traffic_setup):
        _tw, _test, outcome = self._one_inference(
            dspu, traffic_setup, duration_ns=4000.0
        )
        assert np.isclose(outcome.latency_ns, 4000.0, rtol=0.1)

    def test_latency_never_undershoots_request(self, dspu, traffic_setup):
        """Regression: 500 ns at a 200 ns sync interval used to round down
        to 2 intervals (400 ns), annealing less than requested."""
        _tw, _test, outcome = self._one_inference(
            dspu, traffic_setup, duration_ns=500.0, sync_interval_ns=200.0
        )
        assert outcome.latency_ns == 600.0
        for duration in (100.0, 250.0, 999.0, 1000.0):
            _tw, _test, out = self._one_inference(
                dspu, traffic_setup,
                duration_ns=duration, sync_interval_ns=200.0,
            )
            assert out.latency_ns >= duration
            # Exact multiples stay exact — no spurious extra interval.
            if duration % 200.0 == 0.0:
                assert out.latency_ns == duration

    def test_phases_completed_counts_executed_phases(
        self, dspu, traffic_setup
    ):
        """Regression: the counter only advanced when a new rotation began,
        so e.g. 4 intervals over 4 phases reported 0 phases."""
        phases = dspu.num_phases
        assert phases > 1  # the mapping must exercise the rotation
        for extra in (0, 2):
            intervals = phases + extra
            _tw, _test, outcome = self._one_inference(
                dspu, traffic_setup,
                duration_ns=200.0 * intervals, sync_interval_ns=200.0,
            )
            assert outcome.phases_completed == intervals

    def test_spatial_only_mode_flagged(self, dspu, traffic_setup):
        _tw, _test, outcome = self._one_inference(
            dspu, traffic_setup, duration_ns=2000.0, force_spatial_only=True
        )
        assert outcome.mode == "spatial"

    def test_noise_degrades_gracefully(self, dspu, traffic_setup):
        tw = traffic_setup["windowing"]
        test = traffic_setup["test"].series
        frames = tw.prediction_frames(test)[:6]

        def score(noise):
            predictions, targets = [], []
            for t in frames:
                history = tw.history_of(test, t)
                out = dspu.anneal(
                    tw.observed_index,
                    history,
                    duration_ns=20000.0,
                    node_noise_std=noise * 0.1,
                    coupling_noise_std=noise,
                )
                predictions.append(out.prediction)
                targets.append(test[t])
            return rmse(np.asarray(predictions), np.asarray(targets))

        clean = score(0.0)
        noisy = score(0.15)
        assert noisy < 2.0 * clean  # Sec. V.G: impact "not significant"

    def test_reproducible_with_seed(self, dspu, traffic_setup):
        tw = traffic_setup["windowing"]
        test = traffic_setup["test"].series
        history = tw.history_of(test, 4)
        a = dspu.anneal(
            tw.observed_index, history, duration_ns=2000.0,
            rng=np.random.default_rng(5),
        )
        b = dspu.anneal(
            tw.observed_index, history, duration_ns=2000.0,
            rng=np.random.default_rng(5),
        )
        assert np.allclose(a.prediction, b.prediction)

    def test_validation(self, dspu, traffic_setup):
        tw = traffic_setup["windowing"]
        history = tw.history_of(traffic_setup["test"].series, 3)
        with pytest.raises(ValueError, match="duration"):
            dspu.anneal(tw.observed_index, history, duration_ns=0.0)
        with pytest.raises(ValueError, match="sync"):
            dspu.anneal(
                tw.observed_index, history, duration_ns=100.0,
                sync_interval_ns=0.0,
            )

    def test_rejects_negative_observed_index(self, dspu):
        """Regression: ``-1`` clamped node n-1 and still returned it as a
        free prediction."""
        with pytest.raises(ValueError, match="out of range"):
            dspu.anneal(np.array([-1, 0]), np.zeros(2), duration_ns=200.0)

    def test_rejects_duplicate_observed_index(self, dspu):
        """Regression: conflicting values for one node kept the last."""
        with pytest.raises(ValueError, match="duplicates"):
            dspu.anneal(
                np.array([3, 3]), np.array([0.1, 0.9]), duration_ns=200.0
            )

    def test_rejects_observed_values_length_mismatch(
        self, dspu, traffic_setup
    ):
        """Regression: one value was broadcast over every clamped node."""
        tw = traffic_setup["windowing"]
        with pytest.raises(ValueError, match="length"):
            dspu.anneal(tw.observed_index, np.array([0.5]), duration_ns=200.0)


class TestEnergyTrace:
    def test_trace_recorded_and_descending_overall(self, dspu, traffic_setup):
        tw = traffic_setup["windowing"]
        test = traffic_setup["test"].series
        history = tw.history_of(test, 3)
        outcome = dspu.anneal(
            tw.observed_index, history, duration_ns=20000.0, record_energy=True
        )
        trace = outcome.energy_trace
        assert trace is not None
        assert len(trace) >= 10
        # Overall descent: final energy far below initial (ripple allowed).
        assert trace[-1] < trace[0]
        # The last quarter of the run is near-stationary.
        tail = trace[-len(trace) // 4 :]
        assert np.std(tail) < 0.2 * (trace[0] - trace[-1] + 1e-9)

    def test_trace_absent_by_default(self, dspu, traffic_setup):
        tw = traffic_setup["windowing"]
        history = tw.history_of(traffic_setup["test"].series, 3)
        outcome = dspu.anneal(tw.observed_index, history, duration_ns=1000.0)
        assert outcome.energy_trace is None


class TestSparseBackend:
    def test_backend_attribute_and_validation(self, decomposed_traffic):
        config = HardwareConfig(
            grid_shape=(3, 3),
            pe_capacity=decomposed_traffic.placement.capacity,
            lanes=8,
        )
        for backend in ("dense", "sparse"):
            dspu = ScalableDSPU(
                decomposed_traffic,
                config,
                node_time_constant_ns=500.0,
                backend=backend,
            )
            assert dspu.backend == backend
        with pytest.raises(ValueError, match="backend"):
            ScalableDSPU(
                decomposed_traffic,
                config,
                node_time_constant_ns=500.0,
                backend="tpu",
            )

    def test_duplicate_pairs_accumulate_identically(self):
        """Regression: the dense path assigned (last-write-wins) while the
        CSR constructor summed duplicate (i, j) entries, so any schedule
        emitting the same pair twice silently diverged across backends."""
        entries = [(0, 1, 2.0), (0, 1, 3.0), (1, 2, -1.0)]
        dense = _pairs_matrix(entries, 4, sparse=False)
        sparse = _pairs_matrix(entries, 4, sparse=True)
        assert dense[0, 1] == dense[1, 0] == 5.0
        assert np.allclose(dense, sparse.toarray())
        assert np.allclose(dense, dense.T)

    def test_sparse_anneal_matches_dense(self, decomposed_traffic, traffic_setup):
        """The CSR phase matrices must reproduce dense anneal outcomes
        bit-for-bit given identical seeds, clean and noisy alike."""
        config = HardwareConfig(
            grid_shape=(3, 3),
            pe_capacity=decomposed_traffic.placement.capacity,
            lanes=8,
        )
        tw = traffic_setup["windowing"]
        test = traffic_setup["test"].series
        history = tw.history_of(test, 3)
        kwargs_grid = [
            dict(duration_ns=20000.0),
            dict(
                duration_ns=20000.0,
                node_noise_std=0.01,
                coupling_noise_std=0.05,
            ),
        ]
        for kwargs in kwargs_grid:
            outcomes = {}
            for backend in ("dense", "sparse"):
                dspu = ScalableDSPU(
                    decomposed_traffic,
                    config,
                    node_time_constant_ns=500.0,
                    backend=backend,
                )
                outcomes[backend] = dspu.anneal(
                    tw.observed_index,
                    history,
                    rng=np.random.default_rng(7),
                    **kwargs,
                )
            assert np.allclose(
                outcomes["dense"].prediction,
                outcomes["sparse"].prediction,
                atol=1e-8,
            )
            assert np.isclose(
                outcomes["dense"].latency_ns, outcomes["sparse"].latency_ns
            )


class TestSingularPropagators:
    def test_forcing_integral_zero_block(self):
        """An isolated free node (zero self-dynamics) integrates to t*I."""
        integral = _forcing_integral(np.zeros((1, 1)), 3.0, np.eye(1))
        assert np.allclose(integral, 3.0)

    def test_forcing_integral_singular_matches_quadrature(self):
        B = np.array([[-1.0, 1.0], [1.0, -1.0]])  # eigenvalues 0 and -2
        t = 2.0
        phi = expm(B * t)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(B, phi - np.eye(2))  # the old closed form
        integral = _forcing_integral(B, t, phi)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        s = np.linspace(0.0, t, 4001)
        samples = np.stack([expm(B * si) for si in s])
        reference = trapezoid(samples, s, axis=0)
        assert np.allclose(integral, reference, atol=1e-6)

    def test_forcing_integral_regular_matches_solve(self):
        rng = np.random.default_rng(0)
        B = rng.normal(size=(5, 5))
        B = -(B @ B.T) - np.eye(5)
        t = 1.5
        phi = expm(B * t)
        expected = np.linalg.solve(B, phi - np.eye(5))
        assert np.allclose(_forcing_integral(B, t, phi), expected, atol=1e-12)

    def test_build_propagators_handle_singular_free_block(self):
        B = np.array([[-1.0, 1.0], [1.0, -1.0]])
        stage = _clamp_stage(
            B, np.zeros((2, 2)), np.array([0, 1]), np.zeros(0, dtype=int)
        )
        ((phi, integral),) = _interval_stage(stage, 1.0).propagators
        assert np.isfinite(phi).all()
        assert np.isfinite(integral).all()

    def test_anneal_with_singular_dynamics(self):
        """Regression: a mapping whose free-node block is exactly singular
        (here J12 = |h|, a realistic trained configuration) crashed
        the propagator build with ``LinAlgError: Singular matrix``."""
        machine = _two_node_machine(coupling=1.0, h=(-1.0, -1.0))
        outcome = machine.anneal(
            np.zeros(0, dtype=int), np.zeros(0), duration_ns=1000.0
        )
        assert np.isfinite(outcome.state).all()
        assert np.isfinite(outcome.prediction).all()


def _two_node_machine(coupling: float, h: tuple) -> ScalableDSPU:
    """Two coupled nodes mapped onto one PE of a 1x1 grid."""
    J = np.array([[0.0, coupling], [coupling, 0.0]])
    model = DSGLModel(J=J, h=np.array(h))
    placement = PlacementResult(
        pe_of_node=np.zeros(2, dtype=int),
        grid_shape=(1, 1),
        capacity=2,
        groups=[np.arange(2)],
    )
    system = DecomposedSystem(
        model=model,
        placement=placement,
        mask=np.ones((2, 2), dtype=bool),
        config=DecompositionConfig(grid_shape=(1, 1)),
        dense_model=model,
    )
    return ScalableDSPU(
        system,
        HardwareConfig(grid_shape=(1, 1), pe_capacity=2),
        node_time_constant_ns=500.0,
    )


class TestRailClipping:
    """The ±rail clip of the anneal loop, counted when metrics are on."""

    def _clips(self, clamped_value, tmp_path):
        # Node 1 clamped drives free node 0 at gain 0.45 / 0.5 = 0.9: the
        # free node settles at 0.9x the clamped value.
        machine = _two_node_machine(coupling=0.45, h=(-0.5, -1.0))
        path = tmp_path / "trace.jsonl"
        with obs.observe(trace_path=path) as (registry, _tracer):
            outcome = machine.anneal(
                np.array([1]), np.array([clamped_value]),
                duration_ns=40000.0,
            )
            counters = registry.snapshot()["counters"]
        (span,) = [
            r["attributes"] for r in read_trace(path)
            if r["kind"] == "span" and r["name"] == "dspu.anneal"
        ]
        return outcome, counters["dspu.rail_clips"], span["clipped_intervals"]

    def test_equilibrium_beyond_the_rail_clips(self, tmp_path):
        outcome, clips, intervals = self._clips(1.5, tmp_path)
        # The free node heads for 1.35 and the clip holds it at the rail.
        assert outcome.prediction[0] == 1.0
        assert intervals > 0
        assert clips == intervals  # one free node, so one value per interval

    def test_clamped_value_beyond_the_rail_is_not_a_clip(self, tmp_path):
        # The clamped node sits outside the rail and is re-asserted after
        # every clip; its free neighbour settles inside at 0.945.
        outcome, clips, intervals = self._clips(1.05, tmp_path)
        assert 0.9 < outcome.prediction[0] < 1.0
        assert clips == intervals == 0
