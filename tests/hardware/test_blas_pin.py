"""The one-thread BLAS pin around co-annealing propagator builds.

numpy and scipy each bundle an OpenBLAS with its own thread pool.
``ScalableDSPU`` holds both at one thread while it builds propagators and
must hand back the previous counts afterwards, also when the build
raises.  On the free-block sizes of the paper datasets the pin must not
change a single bit of the build.
"""

import glob
import os

import numpy as np
import pytest

from repro.hardware import HardwareConfig, ScalableDSPU, scalable_dspu
from repro.hardware.scalable_dspu import (
    _clamp_stage,
    _interval_stage,
    _one_blas_thread,
    _openblas_thread_controls,
)

CONTROLS = _openblas_thread_controls()

needs_openblas = pytest.mark.skipif(
    not CONTROLS, reason="numpy and scipy bundle no OpenBLAS here"
)


def _thread_counts() -> list[int]:
    return [get() for get, _set in CONTROLS]


@pytest.fixture
def two_threads():
    """Every bundled OpenBLAS at 2 threads, the old counts restored after."""
    previous = _thread_counts()
    for _get, set_threads in CONTROLS:
        set_threads(2)
    yield
    for (_get, set_threads), count in zip(CONTROLS, previous):
        set_threads(count)


@pytest.fixture
def dspu(decomposed_traffic):
    config = HardwareConfig(
        grid_shape=(3, 3),
        pe_capacity=decomposed_traffic.placement.capacity,
        lanes=8,
    )
    return ScalableDSPU(decomposed_traffic, config, node_time_constant_ns=500.0)


@pytest.fixture
def window(traffic_setup):
    tw = traffic_setup["windowing"]
    return tw.observed_index, tw.history_of(traffic_setup["test"].series, 3)


def test_every_bundled_library_resolves():
    """Each OpenBLAS shipped next to numpy or scipy yields its setters.

    Without this, a wrong symbol name would turn the pin into a silent
    no-op and skip every test below.
    """
    bundled = [
        path
        for package, pattern, _suffix in scalable_dspu._BUNDLED_OPENBLAS
        for path in glob.glob(os.path.join(
            os.path.dirname(os.path.dirname(package.__file__)),
            f"{package.__name__}.libs", pattern,
        ))
    ]
    assert len(CONTROLS) == len(bundled)


@needs_openblas
class TestPinRestores:
    def test_build_runs_at_one_thread_and_restores(
        self, two_threads, dspu, window, monkeypatch
    ):
        seen = []
        build = scalable_dspu._interval_stage

        def spy(stage, interval):
            seen.append(_thread_counts())
            return build(stage, interval)

        monkeypatch.setattr(scalable_dspu, "_interval_stage", spy)
        index, history = window
        dspu.anneal(index, history, duration_ns=400.0)
        assert seen == [[1] * len(CONTROLS)]
        assert _thread_counts() == [2] * len(CONTROLS)

    def test_restores_when_the_build_raises(
        self, two_threads, dspu, window, monkeypatch
    ):
        seen = []

        def failing(stage, interval):
            seen.append(_thread_counts())
            raise RuntimeError("build failed")

        monkeypatch.setattr(scalable_dspu, "_interval_stage", failing)
        index, history = window
        with pytest.raises(RuntimeError, match="build failed"):
            dspu.anneal(index, history, duration_ns=400.0)
        assert seen == [[1] * len(CONTROLS)]
        assert _thread_counts() == [2] * len(CONTROLS)


@pytest.mark.parametrize("spread", [0.1, 0.8], ids=["undamped", "damped"])
def test_pinned_72_node_build_is_bit_identical(two_threads, spread):
    """72 free nodes is the largest free block of the scalar paper datasets."""
    rng = np.random.default_rng(11)
    free_nodes, clamped, phases = 72, 8, 4
    n = free_nodes + clamped
    raw = rng.normal(size=(n, n))
    base = -(raw @ raw.T) / n - 0.5 * np.eye(n)
    A_live = []
    for _ in range(phases):
        perturbation = rng.normal(scale=spread, size=(n, n))
        A_live.append(base + (perturbation + perturbation.T) / 2.0)
    free, clamp = np.arange(free_nodes), np.arange(free_nodes, n)

    def build():
        stage = _clamp_stage(A_live, free, clamp)
        return stage, _interval_stage(stage, 0.4)

    loose_clamp, loose = build()
    with _one_blas_thread():
        pinned_clamp, pinned = build()
    # The parametrization must cover both sides of the stability guard.
    assert (loose.damping_delta > 0.0) == (spread > 0.5)
    assert np.array_equal(pinned_clamp.blocks, loose_clamp.blocks)
    assert np.array_equal(pinned_clamp.bounds, loose_clamp.bounds)
    for a, b in zip(pinned_clamp.couplings, loose_clamp.couplings):
        assert np.array_equal(a, b)
    assert pinned.rotation_radius == loose.rotation_radius
    assert pinned.damping_delta == loose.damping_delta
    for (phi, integral), (phi_ref, integral_ref) in zip(
        pinned.propagators, loose.propagators
    ):
        assert np.array_equal(phi, phi_ref)
        assert np.array_equal(integral, integral_ref)
