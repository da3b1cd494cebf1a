"""The co-annealing propagator cache of :class:`ScalableDSPU`.

A DSPU keeps one clamp-set slot and one interval slot.  Whatever the call
sequence, every call must equal the same call on a fresh DSPU bit for
bit; calls with coupler noise or an enabled fault scenario must neither
read nor refill the slots.
"""

import pickle

import numpy as np
import pytest

from repro import obs
from repro.faults import FaultModel
from repro.hardware import HardwareConfig, ScalableDSPU
from repro.obs.trace import read_trace


@pytest.fixture(scope="module")
def make_dspu(decomposed_traffic):
    config = HardwareConfig(
        grid_shape=(3, 3),
        pe_capacity=decomposed_traffic.placement.capacity,
        lanes=8,
    )
    return lambda: ScalableDSPU(
        decomposed_traffic, config, node_time_constant_ns=500.0
    )


@pytest.fixture(scope="module")
def window(traffic_setup):
    tw = traffic_setup["windowing"]
    history = tw.history_of(traffic_setup["test"].series, 3)
    return tw.observed_index, history


def _faults(dspu, **rates):
    return FaultModel(seed=3, **rates).sample(dspu.model.n, dspu.model.J)


def _assert_identical(a, b):
    assert np.array_equal(a.prediction, b.prediction)
    assert np.array_equal(a.state, b.state)
    assert a.latency_ns == b.latency_ns
    assert a.phases_completed == b.phases_completed
    if a.energy_trace is None:
        assert b.energy_trace is None
    else:
        assert np.array_equal(a.energy_trace, b.energy_trace)


def _anneal_spans(path):
    return [
        r["attributes"] for r in read_trace(path)
        if r["kind"] == "span" and r["name"] == "dspu.anneal"
    ]


class TestMixedSequence:
    def test_every_call_matches_a_fresh_dspu(self, make_dspu, window):
        index, history = window
        half = index[: index.size // 2]
        shifted = index + 1  # same size as ``index``, different nodes
        warm = make_dspu()
        faults = _faults(warm, dead_coupler_rate=0.02, coupler_gain_std=0.02)
        calls = [
            # Latency sweep at the default 200 ns sync interval.
            dict(duration_ns=100.0),
            dict(duration_ns=400.0),
            dict(duration_ns=1000.0),
            dict(duration_ns=400.0),
            # Sync sweep, including intervals where damping engages.
            dict(duration_ns=5000.0, sync_interval_ns=50.0),
            dict(duration_ns=5000.0, sync_interval_ns=1000.0),
            dict(duration_ns=5000.0, sync_interval_ns=2500.0),
            dict(duration_ns=5000.0, sync_interval_ns=1000.0),
            # Alternating clamp sets and the spatial-only flag.
            dict(duration_ns=1000.0, clamp=half),
            dict(duration_ns=1000.0),
            dict(duration_ns=1000.0, clamp=half),
            dict(duration_ns=1000.0, force_spatial_only=True),
            dict(duration_ns=1000.0),
            dict(duration_ns=1000.0, clamp=shifted),
            dict(duration_ns=1000.0, force_spatial_only=True, clamp=half),
            # Noisy and faulted calls in between clean ones.
            dict(duration_ns=1000.0, coupling_noise_std=0.05,
                 node_noise_std=0.005),
            dict(duration_ns=1000.0),
            dict(duration_ns=1000.0, faults=faults),
            dict(duration_ns=1000.0),
            dict(duration_ns=1000.0,
                 faults=_faults(warm, sync_skip_rate=0.2)),
            # Early exit and energy recording through the cached path.
            dict(duration_ns=40000.0, early_exit=True,
                 settle_tolerance=1e-3),
            dict(duration_ns=1000.0, record_energy=True),
            dict(duration_ns=1000.0, record_energy=True,
                 coupling_noise_std=0.05),
        ]
        for kwargs in calls:
            kwargs = dict(kwargs)
            clamp = kwargs.pop("clamp", index)
            values = history[: clamp.size]
            _assert_identical(
                warm.anneal(clamp, values, **kwargs),
                make_dspu().anneal(clamp, values, **kwargs),
            )

    def test_span_reports_cache_path_and_guard(
        self, make_dspu, window, tmp_path
    ):
        index, history = window
        dspu = make_dspu()
        path = tmp_path / "trace.jsonl"
        with obs.observe(trace_path=path) as (registry, _tracer):
            for sync in (200.0, 1000.0, 1000.0):
                dspu.anneal(
                    index, history, duration_ns=4000.0,
                    sync_interval_ns=sync,
                )
            dspu.anneal(
                index, history, duration_ns=4000.0, sync_interval_ns=1000.0,
                coupling_noise_std=0.05,
            )
            snapshot = registry.snapshot()
        spans = _anneal_spans(path)
        assert [s["propagators"] for s in spans] == [
            "built", "interval", "hit", "bypass",
        ]
        # The 8-phase mapping only needs damping at the longer interval.
        assert spans[0]["damping_delta"] == 0.0
        assert spans[0]["rotation_radius"] < 0.999
        assert spans[1]["damping_delta"] > 0.0
        assert spans[1]["rotation_radius"] >= 0.999
        # A hit reports the stored guard decision of its build.
        assert spans[2]["rotation_radius"] == spans[1]["rotation_radius"]
        assert spans[2]["damping_delta"] == spans[1]["damping_delta"]

        counters = snapshot["counters"]
        assert counters["dspu.propagator_hits"] == 1
        assert counters["dspu.propagator_builds"] == 3
        assert counters["dspu.damped_builds"] == 2
        # At a 500 ns time constant the growth cap never binds, and no
        # Gershgorin bound comes near it.
        assert counters["dspu.capped_phases"] == 0
        assert counters["dspu.exact_growth_bounds"] == 0
        assert spans[0]["capped_phases"] == spans[0]["exact_bounds"] == 0
        # The build timer is observed once per call that built, never on
        # a full hit.
        timer = snapshot["histograms"]["dspu.build_propagators_ms"]
        assert timer["count"] == 3


class TestPerturbedCallsBypass:
    @pytest.mark.parametrize("perturbation", ["noise", "faults"])
    def test_neither_hit_nor_evict(
        self, make_dspu, window, tmp_path, perturbation
    ):
        index, history = window
        dspu = make_dspu()
        perturbed = (
            dict(coupling_noise_std=0.05)
            if perturbation == "noise"
            else dict(faults=_faults(dspu, coupler_gain_std=0.02))
        )
        path = tmp_path / "trace.jsonl"
        with obs.observe(trace_path=path) as (registry, _tracer):
            dspu.anneal(index, history, duration_ns=1000.0)
            slots = (dspu._clamp_slot, dspu._interval_slot)
            # Same clamp set and interval: a perturbed call must not hit.
            dspu.anneal(index, history, duration_ns=1000.0, **perturbed)
            assert dspu._clamp_slot is slots[0]
            assert dspu._interval_slot is slots[1]
            # A different interval: a perturbed call must not refill.
            dspu.anneal(index, history, duration_ns=100.0, **perturbed)
            assert dspu._clamp_slot is slots[0]
            assert dspu._interval_slot is slots[1]
            dspu.anneal(index, history, duration_ns=1000.0)
            counters = registry.snapshot()["counters"]
        assert [s["propagators"] for s in _anneal_spans(path)] == [
            "built", "bypass", "bypass", "hit",
        ]
        assert counters["dspu.propagator_hits"] == 1
        assert counters["dspu.propagator_builds"] == 3

    def test_fault_free_realization_uses_the_cache(self, make_dspu, window):
        index, history = window
        dspu = make_dspu()
        # A non-zero rate whose draw happened to place no fault.
        empty = _faults(dspu, stuck_node_rate=1e-12)
        assert not empty.enabled
        reference = dspu.anneal(index, history, duration_ns=1000.0)
        with obs.observe() as (registry, _tracer):
            outcome = dspu.anneal(
                index, history, duration_ns=1000.0, faults=empty
            )
            counters = registry.snapshot()["counters"]
        assert counters["dspu.propagator_hits"] == 1
        _assert_identical(outcome, reference)


class TestPickling:
    def test_warm_dspu_pickles_like_a_cold_one(self, make_dspu, window):
        index, history = window
        cold, warm = make_dspu(), make_dspu()
        reference = warm.anneal(index, history, duration_ns=1000.0)
        assert warm._interval_slot[1] is not None
        payload = pickle.dumps(warm)
        assert len(payload) == len(pickle.dumps(cold))
        copy = pickle.loads(payload)
        assert copy._clamp_slot[1] is None and copy._interval_slot[1] is None
        _assert_identical(
            copy.anneal(index, history, duration_ns=1000.0), reference
        )
        # Pickling must not have emptied the original's slots.
        assert warm._interval_slot[1] is not None
