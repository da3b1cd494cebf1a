"""The circuit-batch pool on a sparse CSR mesh, against global Euler.

The load-bearing claims: without node noise, sharding a batch splits only
the batch axis, so :func:`run_batch_sharded` at any worker or shard count
is *bit-identical* to one global Euler integration per sample through
:meth:`CircuitSimulator.run` (a CSR multi-vector product sums each row in
the same order as the single-vector one); a dense coupling matrix handed
to the sparse backend computes the CSR input's bits; with noise, results
stay worker-count invariant; and a bad clamp set fails inside the shards
without leaking shared-memory blocks.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.dynamics import (
    CircuitSimulator,
    IntegrationConfig,
    fixed_step_count,
)
from repro.core.model import random_sparse_mesh
from repro.core.operators import CouplingOperator
from repro.parallel import (
    expected_record_count,
    run_batch_sharded,
    shm_residue,
)

NOISE_FREE = IntegrationConfig(dt=0.05, record_every=1000)


@pytest.fixture(scope="module")
def mesh_problem():
    """A 300-node sparse convex mesh, a small batch and a few clamps."""
    J, h = random_sparse_mesh(300, 0.02, seed=3)
    rng = np.random.default_rng(3)
    return {
        "J": J,
        "h": h,
        "operator": CouplingOperator(J, h, backend="sparse"),
        "sigma0": rng.uniform(-1, 1, size=(6, 300)),
        "clamp_index": np.array([0, 5, 9]),
        "clamp_value": np.array([0.5, -0.25, 0.75]),
    }


@pytest.fixture(scope="module")
def global_reference(mesh_problem):
    """Per-sample global Euler integration of the same problem."""
    operator = mesh_problem["operator"]
    simulator = CircuitSimulator(config=NOISE_FREE)
    return np.stack(
        [
            simulator.run(
                operator.drift,
                sigma,
                4.0,
                clamp_index=mesh_problem["clamp_index"],
                clamp_value=mesh_problem["clamp_value"],
            ).final_state
            for sigma in mesh_problem["sigma0"]
        ]
    )


def _sharded(mesh_problem, operator=None, config=NOISE_FREE, **kwargs):
    operator = operator or mesh_problem["operator"]
    return run_batch_sharded(
        CircuitSimulator(config=config),
        operator.drift,
        mesh_problem["sigma0"],
        4.0,
        mesh_problem["clamp_index"],
        mesh_problem["clamp_value"],
        operator.energy,
        **kwargs,
    )


class TestSparseMatvec:
    def test_multivector_rows_match_single_vector(self, mesh_problem):
        operator = mesh_problem["operator"]
        batch = mesh_problem["sigma0"]
        stacked = operator.drift(batch)
        for row, sigma in zip(stacked, batch):
            assert np.array_equal(row, operator.drift(sigma))


class TestExactMode:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bitwise_identical_to_global_euler(
        self, mesh_problem, global_reference, workers
    ):
        result = _sharded(mesh_problem, workers=workers, shards=4)
        assert np.array_equal(result.final_states, global_reference)
        assert shm_residue() == []

    def test_shard_count_does_not_change_bits(
        self, mesh_problem, global_reference
    ):
        for shards in (1, 2, 3, 5):
            result = _sharded(mesh_problem, workers=1, shards=shards)
            assert np.array_equal(result.final_states, global_reference)

    def test_dense_input_matches_sparse(self, mesh_problem, global_reference):
        operator = CouplingOperator(
            mesh_problem["J"].toarray(), mesh_problem["h"], backend="sparse"
        )
        result = _sharded(mesh_problem, operator=operator, shards=4)
        assert np.array_equal(result.final_states, global_reference)

    def test_result_metadata(self, mesh_problem):
        config = IntegrationConfig(dt=0.05, record_every=8)
        simulator = CircuitSimulator(config=config)
        with obs.observe() as (registry, _tracer):
            trajectory = simulator.run(
                mesh_problem["operator"].drift, mesh_problem["sigma0"][0], 2.0
            )
            steps = registry.snapshot()["counters"]["circuit.steps"]
        assert steps == fixed_step_count(2.0, 0.05) == 40
        assert trajectory.states.shape[0] == expected_record_count(config, 2.0)
        assert trajectory.times[-1] == pytest.approx(2.0)
        assert np.all(np.abs(trajectory.final_state) <= 1.0)


class TestNoisyShards:
    def test_worker_count_invariant_and_finite(self, mesh_problem):
        config = IntegrationConfig(
            dt=0.05, record_every=1000, node_noise_std=0.02
        )
        run = lambda workers: _sharded(  # noqa: E731
            mesh_problem, config=config, workers=workers, shards=4,
            root_seed=5,
        )
        serial = run(1)
        assert np.all(np.isfinite(serial.final_states))
        for workers in (2, 4):
            pooled = run(workers)
            assert np.array_equal(pooled.states, serial.states)
            assert np.array_equal(pooled.energies, serial.energies)
        assert shm_residue() == []


class TestClampValidation:
    def test_rejects_duplicate_clamp_indices(self, mesh_problem):
        # Each shard's simulator validates the clamp set: a repeated index
        # would silently hold the node at its last value.
        operator = mesh_problem["operator"]
        with pytest.raises(ValueError, match="duplicates"):
            run_batch_sharded(
                CircuitSimulator(config=NOISE_FREE),
                operator.drift,
                mesh_problem["sigma0"],
                2.0,
                np.array([5, 5]),
                np.array([0.9, -0.4]),
                workers=2,
            )
        assert shm_residue() == []
