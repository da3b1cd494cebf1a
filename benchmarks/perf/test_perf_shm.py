"""Perf gates for the zero-copy shared-memory transport and 100k-node scale.

Two claims from the scale-out work, measured rather than assumed:

* At real problem sizes (n >= 8192) the shared-memory transport pickles
  at least 10x fewer bytes per pool task than the legacy path, which
  serializes the coupling operator and the shard's state slice into every
  task (the ``smoke`` gates — they run in the CI perf and parallel jobs).
* A 100k-node / 0.1%-density system anneals end-to-end on laptop-class
  memory through one serial :meth:`CircuitSimulator.run` on the sparse
  :class:`CouplingOperator`'s drift (full perf runs only — generating
  the couplings takes seconds, not CI smoke material).
"""

import numpy as np
import pytest

from repro.parallel import shm_available

pytestmark = pytest.mark.perf

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="named shared memory unavailable"
)


@needs_shm
def test_smoke_pickled_bytes_reduced_10x_at_8192():
    """The acceptance gate: >= 10x smaller task payloads at n >= 8192."""
    from repro.core.dynamics import CircuitSimulator, IntegrationConfig
    from repro.core.model import random_sparse_mesh
    from repro.core.operators import CouplingOperator
    from repro.parallel import shard_task_bytes

    n = 8192
    J, h = random_sparse_mesh(n, 0.01, seed=0)
    operator = CouplingOperator(J, h, backend="sparse")
    rng = np.random.default_rng(1)
    sigma0 = rng.uniform(-1.0, 1.0, size=(8, n))
    simulator = CircuitSimulator(
        config=IntegrationConfig(dt=0.1, record_every=1_000_000)
    )
    sizes = shard_task_bytes(
        simulator, operator.drift, sigma0, 2.0,
        shards=4, energy=operator.energy,
    )
    reduction = sizes["legacy"] / max(sizes["shm"], 1)
    assert reduction >= 10.0, sizes
    # The shm payload is descriptors only — it must not scale with n.
    assert sizes["shm"] < 4096, sizes


@needs_shm
def test_smoke_transport_equivalence_at_scale():
    """Transport never changes bits, checked at a non-toy size."""
    from repro.core.dynamics import CircuitSimulator, IntegrationConfig
    from repro.core.model import random_sparse_mesh
    from repro.core.operators import CouplingOperator
    from repro.parallel import run_batch_sharded, shm_residue

    n = 2048
    J, h = random_sparse_mesh(n, 0.01, seed=2)
    operator = CouplingOperator(J, h, backend="sparse")
    rng = np.random.default_rng(3)
    sigma0 = rng.uniform(-1.0, 1.0, size=(8, n))
    simulator = CircuitSimulator(
        config=IntegrationConfig(
            dt=0.1, record_every=1_000_000, node_noise_std=0.01
        )
    )
    run = lambda shm: run_batch_sharded(  # noqa: E731
        simulator, operator.drift, sigma0, 2.0,
        energy=operator.energy, workers=2, shards=4, root_seed=5, shm=shm,
    )
    legacy, shared = run(False), run(True)
    assert np.array_equal(legacy.states, shared.states)
    assert np.array_equal(legacy.energies, shared.energies)
    assert shm_residue() == []


def test_serial_100k_nodes_end_to_end():
    """The README's scale target: 100k nodes at 0.1% density, end to end.

    Sparse generation and a handful of Euler steps through the sparse
    operator's drift — asserting the state stays finite and in the rails
    and peak RSS stays laptop-class (the dense coupling matrix alone
    would need 80 GB).
    """
    from repro import obs
    from repro.core.dynamics import CircuitSimulator, IntegrationConfig
    from repro.core.model import random_sparse_mesh
    from repro.core.operators import CouplingOperator
    from repro.perf import _peak_rss_mb

    n = 100_000
    J, h = random_sparse_mesh(n, 0.001, seed=0)
    assert J.nnz >= 9_000_000  # ~0.1% of 1e10 pairs, stored twice
    operator = CouplingOperator(J, h, backend="sparse")
    rng = np.random.default_rng(1)
    sigma0 = rng.uniform(-1.0, 1.0, size=n)
    simulator = CircuitSimulator(
        config=IntegrationConfig(dt=0.1, record_every=1_000_000)
    )

    with obs.observe() as (registry, _tracer):
        trajectory = simulator.run(operator.drift, sigma0, 0.5)
        steps = registry.snapshot()["counters"]["circuit.steps"]
    assert steps == 5
    assert np.all(np.isfinite(trajectory.final_state))
    assert np.all(np.abs(trajectory.final_state) <= 1.0)
    assert _peak_rss_mb() < 16_384, "100k-node run exceeded laptop-class memory"
