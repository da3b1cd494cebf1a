"""Tests of the community-partitioned mesh integrator (:mod:`repro.parallel.mesh`).

The load-bearing claims: with ``exchange_every=1`` the halo-exchange
integrator is *bit-identical* to global Euler integration through
:meth:`CircuitSimulator.run` (synchronous Jacobi — every shard reads the
full frozen previous state and CSR row slicing preserves per-row summation
order); larger exchange intervals are an explicit zero-order-hold
approximation gated behind ``approximate=True``; and, like every other
sharded path, results never depend on worker count.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.dynamics import CircuitSimulator, IntegrationConfig
from repro.core.operators import CouplingOperator
from repro.parallel import (
    anneal_mesh,
    partition_mesh,
    shm_available,
    shm_residue,
)


@pytest.fixture(scope="module")
def mesh_problem():
    """A 300-node sparse convex mesh with a few clamped nodes."""
    rng = np.random.default_rng(3)
    n = 300
    m = int(0.02 * n * n / 2)
    i = rng.integers(0, n, size=m)
    j = rng.integers(0, n, size=m)
    keep = i != j
    w = rng.normal(size=keep.sum()) * 0.2
    J = sp.csr_matrix((w, (i[keep], j[keep])), shape=(n, n))
    J = ((J + J.T) / 2).tocsr()
    h = -(np.abs(J).sum(axis=1).A1 + 1.0)
    sigma0 = rng.uniform(-1, 1, size=n)
    return {
        "J": J,
        "h": h,
        "sigma0": sigma0,
        "clamp_index": np.array([0, 5, 9]),
        "clamp_value": np.array([0.5, -0.25, 0.75]),
    }


@pytest.fixture(scope="module")
def global_reference(mesh_problem):
    """Global (unsharded) Euler integration of the same problem."""
    operator = CouplingOperator(
        mesh_problem["J"], mesh_problem["h"], backend="sparse"
    )
    simulator = CircuitSimulator(
        config=IntegrationConfig(dt=0.05, record_every=1000)
    )
    return simulator.run(
        operator.drift,
        mesh_problem["sigma0"],
        4.0,
        clamp_index=mesh_problem["clamp_index"],
        clamp_value=mesh_problem["clamp_value"],
    ).final_state


class TestPartitionMesh:
    def test_groups_partition_all_nodes(self, mesh_problem):
        part = partition_mesh(mesh_problem["J"], 4)
        assert part.num_shards == 4
        combined = np.sort(np.concatenate(part.groups))
        assert np.array_equal(combined, np.arange(mesh_problem["J"].shape[0]))
        assert part.labels.shape == (mesh_problem["J"].shape[0],)
        for index, group in enumerate(part.groups):
            assert np.all(part.labels[group] == index)

    def test_groups_are_balanced(self, mesh_problem):
        part = partition_mesh(mesh_problem["J"], 4)
        sizes = [g.size for g in part.groups]
        assert max(sizes) - min(sizes) <= 1

    def test_partition_is_deterministic(self, mesh_problem):
        a = partition_mesh(mesh_problem["J"], 3)
        b = partition_mesh(mesh_problem["J"], 3)
        assert np.array_equal(a.labels, b.labels)

    def test_halo_sizes_and_cut_edges(self, mesh_problem):
        part = partition_mesh(mesh_problem["J"], 4)
        assert part.halo_sizes.shape == (4,)
        assert np.all(part.halo_sizes >= 0)
        assert part.cut_edges >= 0
        # A 4-way cut of a random sparse graph always severs something.
        assert part.cut_edges > 0

    def test_single_shard_has_no_halo(self, mesh_problem):
        part = partition_mesh(mesh_problem["J"], 1)
        assert part.num_shards == 1
        assert part.halo_sizes.tolist() == [0]
        assert part.cut_edges == 0

    def test_louvain_path_on_small_dense(self):
        rng = np.random.default_rng(7)
        n = 40
        raw = rng.normal(size=(n, n)) * 0.2
        J = (raw + raw.T) / 2.0
        np.fill_diagonal(J, 0.0)
        part = partition_mesh(J, 2, method="louvain")
        combined = np.sort(np.concatenate(part.groups))
        assert np.array_equal(combined, np.arange(n))


@pytest.mark.skipif(
    not shm_available(), reason="named shared memory unavailable"
)
class TestExactMode:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bitwise_identical_to_global_euler(
        self, mesh_problem, global_reference, workers
    ):
        result = anneal_mesh(
            mesh_problem["J"],
            mesh_problem["h"],
            mesh_problem["sigma0"],
            4.0,
            dt=0.05,
            clamp_index=mesh_problem["clamp_index"],
            clamp_value=mesh_problem["clamp_value"],
            shards=4,
            workers=workers,
        )
        assert np.array_equal(result.state, global_reference)
        assert shm_residue() == []

    def test_shard_count_does_not_change_bits(
        self, mesh_problem, global_reference
    ):
        for shards in (1, 2, 3, 5):
            result = anneal_mesh(
                mesh_problem["J"],
                mesh_problem["h"],
                mesh_problem["sigma0"],
                4.0,
                dt=0.05,
                clamp_index=mesh_problem["clamp_index"],
                clamp_value=mesh_problem["clamp_value"],
                shards=shards,
                workers=1,
            )
            assert np.array_equal(result.state, global_reference)

    def test_dense_input_matches_sparse(self, mesh_problem, global_reference):
        result = anneal_mesh(
            mesh_problem["J"].toarray(),
            mesh_problem["h"],
            mesh_problem["sigma0"],
            4.0,
            dt=0.05,
            clamp_index=mesh_problem["clamp_index"],
            clamp_value=mesh_problem["clamp_value"],
            shards=4,
            workers=1,
        )
        assert np.array_equal(result.state, global_reference)

    def test_result_metadata(self, mesh_problem):
        result = anneal_mesh(
            mesh_problem["J"], mesh_problem["h"], mesh_problem["sigma0"],
            2.0, dt=0.05, shards=3,
        )
        assert result.n_steps == 40
        assert result.rounds == 40
        assert result.partition.num_shards == 3
        assert np.all(np.abs(result.state) <= 1.0)


@pytest.mark.skipif(
    not shm_available(), reason="named shared memory unavailable"
)
class TestApproximateMode:
    def test_exchange_interval_requires_explicit_flag(self, mesh_problem):
        with pytest.raises(ValueError, match="approximate"):
            anneal_mesh(
                mesh_problem["J"], mesh_problem["h"],
                mesh_problem["sigma0"], 2.0, dt=0.05, exchange_every=4,
            )

    def test_worker_count_invariant_and_finite(self, mesh_problem):
        run = lambda workers: anneal_mesh(  # noqa: E731
            mesh_problem["J"],
            mesh_problem["h"],
            mesh_problem["sigma0"],
            4.0,
            dt=0.05,
            exchange_every=4,
            approximate=True,
            shards=4,
            workers=workers,
        )
        serial = run(1)
        assert np.all(np.isfinite(serial.state))
        assert serial.rounds == 20
        for workers in (2, 4):
            assert np.array_equal(run(workers).state, serial.state)
        assert shm_residue() == []

    def test_tracks_exact_mode_closely_on_convex_problem(
        self, mesh_problem, global_reference
    ):
        # Zero-order-hold halo on a diagonally dominant system: an
        # approximation, but not a wild one.
        result = anneal_mesh(
            mesh_problem["J"],
            mesh_problem["h"],
            mesh_problem["sigma0"],
            4.0,
            dt=0.05,
            clamp_index=mesh_problem["clamp_index"],
            clamp_value=mesh_problem["clamp_value"],
            exchange_every=4,
            approximate=True,
            shards=4,
        )
        assert not np.array_equal(result.state, global_reference)
        assert np.max(np.abs(result.state - global_reference)) < 0.1


class TestClampValidation:
    def test_rejects_duplicate_clamp_indices(self, mesh_problem):
        # Shared clamp validation with the circuit simulator: a repeated
        # index would silently hold the node at its last value.
        with pytest.raises(ValueError, match="duplicates"):
            anneal_mesh(
                mesh_problem["J"], mesh_problem["h"],
                mesh_problem["sigma0"], 2.0, dt=0.05,
                clamp_index=np.array([5, 5]),
                clamp_value=np.array([0.9, -0.4]),
            )


@pytest.mark.skipif(
    not shm_available(), reason="named shared memory unavailable"
)
class TestHaloObservability:
    def test_halo_counters_recorded(self, mesh_problem):
        from repro import obs

        with obs.metrics_enabled() as registry:
            result = anneal_mesh(
                mesh_problem["J"], mesh_problem["h"],
                mesh_problem["sigma0"], 1.0, dt=0.05, shards=4, workers=2,
            )
            counters = registry.snapshot()["counters"]
        assert counters["parallel.halo.rounds"] == result.rounds
        expected = (
            result.rounds * int(result.partition.halo_sizes.sum()) * 8
        )
        assert counters["parallel.halo.bytes_exchanged"] == expected
