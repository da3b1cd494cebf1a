"""Fault-layer overhead benchmarks (``perf``-marked, skipped by default).

The fault design claim mirrors the obs layer: disabled means the shared
:data:`~repro.faults.NO_FAULTS` null object, whose injection points cost a
truthy check at run boundaries — nothing in the hot loop.  These
benchmarks bound the *enabled* path instead: an active scenario pays one
coupling transform per operator build plus a slightly larger clamp set,
and the divergence guard pays a strided ``isfinite`` sweep.
"""

import numpy as np
import pytest

from repro.core.dynamics import IntegrationConfig
from repro.core.inference import NaturalAnnealingEngine
from repro.core.model import DSGLModel, random_sparse_system
from repro.faults import FaultModel
from repro.perf import _best_of_ms

pytestmark = pytest.mark.perf


def _engine_runner(faults=None, config=None):
    """A small batched circuit inference: n=96, batch=8, 200 steps."""
    J, h = random_sparse_system(96, 0.1, seed=3)
    model = DSGLModel(J=J, h=h)
    kwargs = {"backend": "dense"}
    if faults is not None:
        kwargs["faults"] = faults
    if config is not None:
        kwargs["config"] = config
    engine = NaturalAnnealingEngine(model, **kwargs)
    observed = np.arange(32)
    values = np.zeros((8, 32))

    def run():
        engine.infer_batch(observed, values, duration=20.0)

    run()  # warm caches (fault-transformed operator build) before timing
    return run


def test_enabled_fault_injection_overhead_smoke():
    """An active scenario must not slow the integration loop materially:
    coupling faults are folded into the cached operator once, and stuck
    nodes just extend the clamp set."""
    J, _h = random_sparse_system(96, 0.1, seed=3)
    scenario = FaultModel.uniform(0.05, seed=1).sample(96, J=J)
    assert scenario.enabled

    clean = _engine_runner()
    faulty = _engine_runner(faults=scenario)

    clean_samples, faulty_samples = [], []
    for _round in range(20):
        clean_samples.append(_best_of_ms(clean, 1))
        faulty_samples.append(_best_of_ms(faulty, 1))
    clean_ms = min(clean_samples)
    faulty_ms = min(faulty_samples)

    overhead = (faulty_ms - clean_ms) / clean_ms
    assert overhead < 0.15, (
        f"fault-injection overhead {overhead:.1%} "
        f"(clean {clean_ms:.3f} ms, faulty {faulty_ms:.3f} ms)"
    )


def test_divergence_guard_overhead_smoke():
    """A strided finiteness sweep must be loop noise, not loop cost."""
    plain = _engine_runner(config=IntegrationConfig())
    guarded = _engine_runner(
        config=IntegrationConfig(divergence_check_every=25)
    )
    plain_ms = _best_of_ms(plain, 15)
    guarded_ms = _best_of_ms(guarded, 15)
    assert guarded_ms < plain_ms * 1.08, (
        f"divergence guard overhead "
        f"(plain {plain_ms:.3f} ms, guarded {guarded_ms:.3f} ms)"
    )
