"""One DSPU mapping per design point in :class:`ExperimentContext`.

``context.dspu`` maps each design point once and returns shallow copies.
A copy shares the read-only mapping, starts with cold propagator slots,
and anneals exactly like a freshly mapped DSPU; no call on a copy may
change the memoized mapping.
"""

import numpy as np
import pytest
from scipy import sparse as sp

from repro import obs
from repro.experiments import ExperimentContext
from repro.faults import FaultModel
from repro.hardware import HardwareConfig, ScalableDSPU
from repro.hardware.scalable_dspu import _openblas_thread_controls
from repro.obs import read_trace

POINT = ("no2", 0.15, "dmesh")


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(size="small")


@pytest.fixture(scope="module")
def window(context):
    trained = context.dense(POINT[0])
    series = trained.test.flat_series()
    frame = trained.windowing.prediction_frames(series)[0]
    return (
        trained.windowing.observed_index,
        trained.windowing.history_of(series, frame),
    )


def _fresh(context) -> ScalableDSPU:
    """The design point mapped from scratch, as the context maps it."""
    system = context.decomposed(*POINT)
    config = HardwareConfig(
        grid_shape=context.grid_shape,
        pe_capacity=system.placement.capacity,
        lanes=context.lanes,
    )
    return ScalableDSPU(
        system, config, node_time_constant_ns=2.5 * config.sync_interval_ns
    )


def _anneal_spans(path):
    return [
        r["attributes"] for r in read_trace(path)
        if r["kind"] == "span" and r["name"] == "dspu.anneal"
    ]


def _assert_identical(a, b):
    assert np.array_equal(a.prediction, b.prediction)
    assert np.array_equal(a.state, b.state)
    assert a.latency_ns == b.latency_ns
    assert a.phases_completed == b.phases_completed
    assert a.sync_skips == b.sync_skips
    assert a.exited_early == b.exited_early


def _dense(matrix) -> np.ndarray:
    return matrix.toarray() if sp.issparse(matrix) else matrix


class TestMemoizedMapping:
    def test_copies_share_the_mapping_and_start_cold(
        self, context, window, tmp_path
    ):
        index, history = window
        path = tmp_path / "trace.jsonl"
        with obs.observe(trace_path=path):
            first = context.dspu(*POINT)
            assert first._clamp_slot == first._interval_slot == (None, None)
            first.anneal(index, history, duration_ns=1000.0)
            assert first._interval_slot[1] is not None
            second = context.dspu(*POINT)
            assert second._clamp_slot == second._interval_slot == (None, None)
            second.anneal(index, history, duration_ns=1000.0)
        assert second is not first
        assert second.schedule is first.schedule
        assert second._A_local is first._A_local
        assert second._A_inter_boosted is first._A_inter_boosted
        assert second._A_inter_spatial is first._A_inter_spatial
        assert [s["propagators"] for s in _anneal_spans(path)] == [
            "built", "built",
        ]

    def test_copy_anneals_like_a_fresh_dspu(self, context, window):
        index, history = window
        reference = _fresh(context)
        assert reference.mode == "temporal+spatial"
        faults = FaultModel(
            seed=3, dead_coupler_rate=0.02, coupler_gain_std=0.02,
            sync_skip_rate=0.1,
        ).sample(reference.model.n, reference.model.J)
        calls = [
            dict(duration_ns=2000.0),
            dict(duration_ns=2000.0, coupling_noise_std=0.1,
                 node_noise_std=0.01),
            dict(duration_ns=2000.0, faults=faults),
            dict(duration_ns=2000.0, force_spatial_only=True),
            dict(duration_ns=40000.0, early_exit=True,
                 settle_tolerance=1e-3),
            dict(duration_ns=2000.0),
        ]
        warm = context.dspu(*POINT)
        for kwargs in calls:
            expected = _fresh(context).anneal(index, history, **kwargs)
            _assert_identical(
                context.dspu(*POINT).anneal(index, history, **kwargs),
                expected,
            )
            _assert_identical(warm.anneal(index, history, **kwargs), expected)
        # No call above may have changed the shared mapping.
        mapped, fresh = context.dspu(*POINT), _fresh(context)
        assert mapped.schedule.assignments == fresh.schedule.assignments
        assert mapped.schedule.slices_per_cu == fresh.schedule.slices_per_cu
        assert mapped.time_scale == fresh.time_scale
        n = mapped.model.n
        assert mapped._A_inter_boosted.shape == (mapped.num_phases * n, n)
        for name in ("_A_local", "_A_inter_spatial", "_A_inter_boosted"):
            assert np.array_equal(
                _dense(getattr(mapped, name)), _dense(getattr(fresh, name))
            )


class TestMappingTelemetry:
    def test_map_span_counters_and_build_threads(self, window, tmp_path):
        context = ExperimentContext(size="small")
        index, history = window
        path = tmp_path / "trace.jsonl"
        with obs.observe(trace_path=path) as (registry, _tracer):
            for _ in range(3):
                dspu = context.dspu(*POINT)
                dspu.anneal(index, history, duration_ns=1000.0)
            dspu.anneal(index, history, duration_ns=1000.0)
            counters = registry.snapshot()["counters"]
        assert counters["experiments.dspu_maps"] == 1
        assert counters["experiments.dspu_map_reuses"] == 2
        records = read_trace(path)
        (mapping,) = [
            r["attributes"] for r in records
            if r["kind"] == "span" and r["name"] == "experiments.map_dspu"
        ]
        assert mapping == {
            "dataset": "no2", "density": 0.15, "pattern": "dmesh",
            "num_phases": dspu.num_phases, "mode": "temporal+spatial",
        }
        spans = _anneal_spans(path)
        assert [s["propagators"] for s in spans] == [
            "built", "built", "built", "hit",
        ]
        threads = 1 if _openblas_thread_controls() else None
        assert [s.get("blas_threads") for s in spans] == [threads] * 3 + [None]
