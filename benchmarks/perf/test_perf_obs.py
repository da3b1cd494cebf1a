"""Observability overhead benchmarks (``perf``-marked, skipped by default).

The obs design claim: instrumentation lives only at run boundaries, so
the integrator hot loop is identical whether observability is disabled
(the null sinks) or fully enabled (metrics + trace).  These benchmarks
hold that claim to < 5% on a small :meth:`CircuitSimulator.run_batch`.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.inference import NaturalAnnealingEngine
from repro.core.model import DSGLModel
from repro.perf import _best_of_ms, random_sparse_system

pytestmark = pytest.mark.perf


def _small_workload():
    """A small batched circuit inference: n=96, batch=8, 200 steps."""
    J, h = random_sparse_system(96, 0.1, seed=3)
    model = DSGLModel(J=J, h=h)
    engine = NaturalAnnealingEngine(model, backend="dense")
    observed = np.arange(32)
    values = np.zeros((8, 32))

    def run():
        engine.infer_batch(observed, values, duration=20.0)

    run()  # warm caches (operator build, allocator) before timing
    return run


def test_disabled_observability_overhead_smoke(tmp_path):
    run = _small_workload()

    # Interleave the two configurations round by round so slow machine
    # drift (thermal, noisy CI neighbours) hits both sides equally, then
    # compare best-of — robust to one-sided slowdowns.
    disabled_samples, enabled_samples = [], []
    for round_index in range(20):
        assert not obs.enabled()
        disabled_samples.append(_best_of_ms(run, 1))
        with obs.observe(trace_path=tmp_path / f"trace{round_index}.jsonl"):
            enabled_samples.append(_best_of_ms(run, 1))
    disabled_ms = min(disabled_samples)
    enabled_ms = min(enabled_samples)

    overhead = (enabled_ms - disabled_ms) / disabled_ms
    # Fully-enabled tracing costs < 5% on a small run_batch; the disabled
    # null-sink path, which does strictly less work at the same call
    # sites, is bounded by the same margin.
    assert overhead < 0.05, (
        f"observability overhead {overhead:.1%} "
        f"(disabled {disabled_ms:.3f} ms, enabled {enabled_ms:.3f} ms)"
    )


def test_energy_probe_off_costs_nothing_smoke():
    """With tracing off the probe branch must not slow the loop."""
    from repro.core.dynamics import IntegrationConfig

    J, h = random_sparse_system(96, 0.1, seed=3)
    model = DSGLModel(J=J, h=h)
    observed = np.arange(32)
    values = np.zeros((8, 32))

    def workload(config):
        engine = NaturalAnnealingEngine(model, config=config, backend="dense")

        def run():
            engine.infer_batch(observed, values, duration=20.0)

        run()
        return run

    plain = workload(IntegrationConfig())
    probed = workload(IntegrationConfig(energy_probe_every=10))
    # Interleave round by round, as above, so host drift hits both sides.
    plain_samples, probed_samples = [], []
    for _round in range(15):
        plain_samples.append(_best_of_ms(plain, 1))
        probed_samples.append(_best_of_ms(probed, 1))
    plain_ms, probed_ms = min(plain_samples), min(probed_samples)
    assert probed_ms < plain_ms * 1.05, (
        f"probe-off {probed_ms:.3f} ms vs plain {plain_ms:.3f} ms"
    )
