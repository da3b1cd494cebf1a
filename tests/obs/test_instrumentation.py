"""End-to-end telemetry: the instrumented stack feeds the obs sinks."""

import numpy as np
import pytest

from repro import obs
from repro.core import (
    CircuitSimulator,
    IntegrationConfig,
    NaturalAnnealingEngine,
)
from repro.gnn import GNNTrainConfig, GNNTrainer, GraphWaveNet, default_adjacency
from repro.hardware import ScalableDSPU
from repro.obs import read_trace


def _span_records(records, name):
    return [
        r for r in records if r["kind"] == "span" and r["name"] == name
    ]


class TestCircuitTelemetry:
    def test_run_batch_counts_steps_and_settling(self, trained_model, tmp_path):
        path = tmp_path / "trace.jsonl"
        engine = NaturalAnnealingEngine(trained_model)
        observed = np.array([0, 1, 2])
        values = np.zeros((4, 3))
        with obs.observe(trace_path=path) as (registry, _tracer):
            engine.infer_batch(observed, values, duration=20.0)
            snapshot = registry.snapshot()

        assert snapshot["counters"]["circuit.runs"] == 1
        assert snapshot["counters"]["circuit.samples"] == 4
        # duration 20 ns at the default dt=0.1 ns is 200 steps.
        assert snapshot["counters"]["circuit.steps"] == 200
        assert 0.0 <= snapshot["gauges"]["circuit.settled_fraction"] <= 1.0
        assert snapshot["histograms"]["circuit.run_batch_ms"]["count"] == 1

        records = read_trace(path)
        (run_span,) = _span_records(records, "circuit.run_batch")
        assert run_span["attributes"]["steps"] == 200
        assert run_span["attributes"]["duration_ns"] == 20.0
        assert "settled_fraction" in run_span["attributes"]
        (infer_span,) = _span_records(records, "engine.infer_batch")
        assert infer_span["attributes"]["batch"] == 4
        assert run_span["parent_id"] == infer_span["span_id"]

    @staticmethod
    def _two_node_run(tmp_path, coupling, h_free, clamp):
        """Node 0 clamped, node 1 free, 50 Euler steps of 0.1 ns."""
        J = np.array([[0.0, coupling], [coupling, 0.0]])
        h = np.array([-1.0, h_free])
        path = tmp_path / "trace.jsonl"
        simulator = CircuitSimulator(config=IntegrationConfig(dt=0.1))
        with obs.observe(trace_path=path) as (registry, _tracer):
            trajectory = simulator.run(
                lambda sigma: J @ sigma + h * sigma, np.zeros(2), 5.0,
                clamp_index=np.array([0]), clamp_value=np.array([clamp]),
            )
            clips = registry.snapshot()["counters"]["circuit.rail_clips"]
        (span,) = _span_records(read_trace(path), "circuit.run")
        assert span["attributes"]["free_nodes"] == 1
        assert span["attributes"]["rail_clips"] == clips
        return trajectory, clips

    def test_rail_clips_count_free_values_the_clip_moved(self, tmp_path):
        # The free node's equilibrium, 2.0, lies beyond the rail: once it
        # reaches the rail, every step pushes it past and the clip pulls it
        # back.
        _, clips = self._two_node_run(tmp_path, 1.0, -0.5, 1.0)
        x, expected = 0.0, 0
        for _ in range(50):
            x = x + 0.1 * (-0.5 * x + 1.0)
            if abs(x) > 1.0:
                expected += 1
                x = 1.0
        assert clips == expected > 0

    def test_clamp_beyond_the_rail_is_not_a_clip(self, tmp_path):
        trajectory, clips = self._two_node_run(tmp_path, 0.1, -1.0, 5.0)
        assert trajectory.final_state[0] == 5.0
        assert np.all(np.abs(trajectory.states[:, 1]) < 1.0)
        assert clips == 0

    def test_energy_probe_events_descend(self, trained_model, tmp_path):
        path = tmp_path / "trace.jsonl"
        engine = NaturalAnnealingEngine(
            trained_model, config=IntegrationConfig(energy_probe_every=50)
        )
        with obs.observe(trace_path=path):
            engine.infer_batch(np.array([0, 1]), np.zeros((2, 2)), duration=20.0)

        probes = [
            r for r in read_trace(path)
            if r["kind"] == "event" and r["name"] == "circuit.energy_probe"
        ]
        # 200 steps probed every 50, plus the guaranteed final-step probe
        # coinciding with step 200: steps 50, 100, 150, 200.
        assert [p["attributes"]["step"] for p in probes] == [50, 100, 150, 200]
        energies = [p["attributes"]["energy_mean"] for p in probes]
        assert energies[-1] <= energies[0]

    def test_probe_disabled_without_tracing(self, trained_model):
        engine = NaturalAnnealingEngine(
            trained_model, config=IntegrationConfig(energy_probe_every=50)
        )
        with obs.metrics_enabled():
            result = engine.infer_batch(
                np.array([0, 1]), np.zeros((2, 2)), duration=5.0
            )
        assert result.trajectory is not None
        assert obs.tracer().records == []


class TestEngineCacheTelemetry:
    def test_hits_and_misses_counted(self, trained_model):
        engine = NaturalAnnealingEngine(trained_model)
        observed = np.array([0, 1, 2])
        with obs.metrics_enabled() as registry:
            for _ in range(4):
                engine.infer_equilibrium(observed, np.zeros(3))
            snapshot = registry.snapshot()
        assert engine.cache_misses == 1
        assert engine.cache_hits == 3
        assert engine.cache_hit_rate() == pytest.approx(0.75)
        assert snapshot["counters"]["engine.cache_misses"] == 1
        assert snapshot["counters"]["engine.cache_hits"] == 3
        assert snapshot["histograms"]["engine.factorize_ms"]["count"] == 1
        assert snapshot["histograms"]["engine.solve_ms"]["count"] == 4

    def test_distinct_observed_sets_miss_separately(self, trained_model):
        engine = NaturalAnnealingEngine(trained_model)
        engine.infer_equilibrium(np.array([0, 1]), np.zeros(2))
        engine.infer_equilibrium(np.array([2, 3]), np.zeros(2))
        engine.infer_equilibrium(np.array([0, 1]), np.zeros(2))
        assert engine.cache_misses == 2
        assert engine.cache_hits == 1

    def test_batch_inference_shares_one_factorization(self, trained_model):
        engine = NaturalAnnealingEngine(trained_model)
        observed = np.array([0, 1, 2])
        engine.infer_equilibrium_batch(observed, np.zeros((16, 3)))
        engine.infer_equilibrium_batch(observed, np.zeros((16, 3)))
        assert engine.cache_misses == 1
        assert engine.cache_hits == 1

    def test_clear_cache_resets_counters(self, trained_model):
        engine = NaturalAnnealingEngine(trained_model)
        engine.infer_equilibrium(np.array([0]), np.zeros(1))
        engine.infer_equilibrium(np.array([0]), np.zeros(1))
        engine.clear_cache()
        assert engine.cache_hits == 0
        assert engine.cache_misses == 0
        assert engine.cache_hit_rate() == 0.0
        engine.infer_equilibrium(np.array([0]), np.zeros(1))
        assert engine.cache_misses == 1


class TestDSPUTelemetry:
    def test_anneal_span_and_counters(
        self, decomposed_traffic, traffic_setup, tmp_path
    ):
        path = tmp_path / "trace.jsonl"
        dspu = ScalableDSPU(decomposed_traffic)
        tw = traffic_setup["windowing"]
        history = tw.history_of(traffic_setup["test"].series, 3)
        with obs.observe(trace_path=path) as (registry, _tracer):
            dspu.anneal(
                tw.observed_index, history, duration_ns=400.0,
                sync_interval_ns=200.0,
            )
            snapshot = registry.snapshot()

        assert snapshot["counters"]["dspu.anneal_runs"] == 1
        assert snapshot["counters"]["dspu.sync_events"] == 2
        assert snapshot["counters"]["dspu.clamp_asserts"] == (
            2 * tw.observed_index.size
        )
        assert snapshot["histograms"]["dspu.build_propagators_ms"]["count"] == 1
        phase_histograms = [
            k for k in snapshot["histograms"] if k.startswith("dspu.phase")
        ]
        assert phase_histograms

        (span,) = _span_records(read_trace(path), "dspu.anneal")
        attrs = span["attributes"]
        assert attrs["mode"] == dspu.mode
        assert attrs["num_intervals"] == 2
        assert attrs["clamped_nodes"] == tw.observed_index.size
        assert attrs["phases_completed"] >= 1


class TestGNNTelemetry:
    def test_per_epoch_events_and_histograms(self, traffic_setup, tmp_path):
        path = tmp_path / "trace.jsonl"
        ds = traffic_setup["dataset"]
        train, val, _test = ds.split()
        model = GraphWaveNet(ds.num_nodes, default_adjacency(ds), hidden=4)
        trainer = GNNTrainer(
            model, GNNTrainConfig(window=4, epochs=2, batch_size=32)
        )
        with obs.observe(trace_path=path) as (registry, _tracer):
            trainer.fit(train, val)
            snapshot = registry.snapshot()

        assert snapshot["counters"]["gnn.epochs"] == 2
        assert snapshot["histograms"]["gnn.epoch_loss"]["count"] == 2
        assert snapshot["histograms"]["gnn.grad_norm"]["count"] == 2

        records = read_trace(path)
        epochs = [
            r for r in records
            if r["kind"] == "event" and r["name"] == "gnn.epoch"
        ]
        assert [e["attributes"]["epoch"] for e in epochs] == [0, 1]
        assert all(e["attributes"]["epoch_ms"] > 0 for e in epochs)
        (fit_span,) = _span_records(records, "gnn.fit")
        assert fit_span["attributes"]["epochs_run"] == 2
        assert fit_span["attributes"]["model"] == "GraphWaveNet"
