"""Sampling-profiler overhead benchmarks (``perf``-marked, off by default).

The profiler's claim: at the default 200 Hz sampling rate the signal
handler does O(stack depth) work a few hundred times per second, which
on any real workload is noise — the gate holds it to < 10% on the same
small batched inference the obs-overhead benchmark uses.  (The disabled
path is covered by ``test_perf_obs.py``: with no profiler configured the
call sites hit the null singletons and pay nothing.)
"""

import numpy as np
import pytest

from repro import obs
from repro.core.inference import NaturalAnnealingEngine
from repro.core.model import DSGLModel, random_sparse_system
from repro.perf import _best_of_ms

pytestmark = pytest.mark.perf


def _small_workload():
    """Same shape as test_perf_obs: n=96, batch=8, 200 steps."""
    J, h = random_sparse_system(96, 0.1, seed=3)
    model = DSGLModel(J=J, h=h)
    engine = NaturalAnnealingEngine(model, backend="dense")
    observed = np.arange(32)
    values = np.zeros((8, 32))

    def run():
        engine.infer_batch(observed, values, duration=20.0)

    run()  # warm caches before timing
    return run


def test_default_rate_sampling_overhead_smoke(tmp_path):
    """Enabled sampling at DEFAULT_INTERVAL costs < 10% wall time."""
    run = _small_workload()

    # Interleave plain and profiled rounds so machine drift hits both
    # sides equally, then compare best-of (see test_perf_obs.py).
    plain_samples, profiled_samples = [], []
    for round_index in range(20):
        assert not obs.enabled()
        plain_samples.append(_best_of_ms(run, 1))
        with obs.observe(
            collect_metrics=False,
            profile_path=tmp_path / f"prof{round_index}.txt",
        ):
            profiled_samples.append(_best_of_ms(run, 1))
    plain_ms = min(plain_samples)
    profiled_ms = min(profiled_samples)

    overhead = (profiled_ms - plain_ms) / plain_ms
    assert overhead < 0.10, (
        f"profiler overhead {overhead:.1%} at {obs.DEFAULT_INTERVAL}s "
        f"interval (plain {plain_ms:.3f} ms, profiled {profiled_ms:.3f} ms)"
    )


def test_profiler_actually_samples_the_workload_smoke(tmp_path):
    """Sanity for the gate above: the profiled rounds really sample."""
    run = _small_workload()
    path = tmp_path / "prof.txt"
    with obs.observe(collect_metrics=False, profile_path=path):
        for _ in range(5):
            run()
    samples = obs.read_profile(path)
    assert sum(samples.values()) > 0, "profiler collected no samples"
    frames = {frame for stack in samples for frame in stack}
    assert any("infer_batch" in frame for frame in frames)
