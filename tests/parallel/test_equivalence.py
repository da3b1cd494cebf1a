"""Serial↔parallel equivalence: ``workers=N`` must equal ``workers=1`` bit
for bit for sharded circuit batches — plain, clamped, faulted, and an
engine's inference batch on both task transports.  Every comparison below
uses exact equality, not allclose.
"""

import numpy as np
import pytest

from repro.core import NaturalAnnealingEngine
from repro.core.dynamics import CircuitSimulator, IntegrationConfig
from repro.faults import FaultModel
from repro.parallel import run_batch_sharded, shm_available
from repro.parallel.pool import shard_slices, spawn_seeds


def _trajectories_equal(a, b):
    return (
        np.array_equal(a.times, b.times)
        and np.array_equal(a.states, b.states)
        and np.array_equal(a.energies, b.energies)
    )


class TestCircuitBatch:
    def _run(self, noisy_simulator, small_operator, workers):
        rng = np.random.default_rng(5)
        sigma0 = rng.uniform(-1, 1, size=(10, small_operator.n))
        return noisy_simulator.run_batch(
            small_operator.drift,
            sigma0,
            duration=3.0,
            energy=small_operator.energy,
            workers=workers,
            shards=3,
            root_seed=17,
        )

    def test_workers_do_not_change_bits(self, noisy_simulator, small_operator):
        serial = self._run(noisy_simulator, small_operator, 1)
        for workers in (2, 3):
            pooled = self._run(noisy_simulator, small_operator, workers)
            assert _trajectories_equal(serial, pooled)

    def test_default_shards(self, noisy_simulator, small_operator, rng):
        sigma0 = rng.uniform(-1, 1, size=(5, small_operator.n))
        run = lambda w: noisy_simulator.run_batch(  # noqa: E731
            small_operator.drift, sigma0, duration=2.0,
            workers=w, root_seed=1,
        )
        assert _trajectories_equal(run(1), run(2))

    def test_clamps_respected_per_shard(
        self, noisy_simulator, small_operator, rng
    ):
        batch = 7
        sigma0 = rng.uniform(-1, 1, size=(batch, small_operator.n))
        clamp_index = np.asarray([0, 4])
        clamp_value = rng.uniform(-1, 1, size=(batch, 2))
        run = lambda w: noisy_simulator.run_batch(  # noqa: E731
            small_operator.drift, sigma0, duration=2.0,
            clamp_index=clamp_index, clamp_value=clamp_value,
            workers=w, shards=3, root_seed=9,
        )
        serial, pooled = run(1), run(2)
        assert _trajectories_equal(serial, pooled)
        assert np.array_equal(
            pooled.final_states[:, clamp_index], clamp_value
        )

    def test_shared_clamp_respected_per_shard(
        self, noisy_simulator, small_operator, rng
    ):
        """A ``(k,)`` clamp shared by the batch — the restart-pool shape:
        random initial states, one observed vector — reaches every shard
        whole rather than sliced."""
        batch = 7
        sigma0 = rng.uniform(-1, 1, size=(batch, small_operator.n))
        clamp_index = np.asarray([1, 5])
        clamp_value = np.asarray([0.3, -0.6])
        run = lambda w: noisy_simulator.run_batch(  # noqa: E731
            small_operator.drift, sigma0, duration=2.0,
            clamp_index=clamp_index, clamp_value=clamp_value,
            energy=small_operator.energy,
            workers=w, shards=3, root_seed=9,
        )
        serial, pooled = run(1), run(2)
        assert _trajectories_equal(serial, pooled)
        assert np.array_equal(
            pooled.final_states[:, clamp_index],
            np.broadcast_to(clamp_value, (batch, 2)),
        )

    def test_faults_reach_every_shard(
        self, noisy_simulator, small_operator, rng
    ):
        """The simulator's fault scenario travels with every shard: each
        member of each shard holds the stuck nodes at their rails."""
        scenario = FaultModel(stuck_node_rate=0.25, seed=2).sample(
            small_operator.n
        )
        assert scenario.stuck_index.size
        simulator = CircuitSimulator(
            config=noisy_simulator.config, faults=scenario
        )
        batch = 7
        sigma0 = rng.uniform(-1, 1, size=(batch, small_operator.n))
        run = lambda w: simulator.run_batch(  # noqa: E731
            small_operator.drift, sigma0, duration=2.0,
            energy=small_operator.energy,
            workers=w, shards=3, root_seed=4,
        )
        serial, pooled = run(1), run(2)
        assert _trajectories_equal(serial, pooled)
        stuck = pooled.final_states[:, scenario.stuck_index]
        assert np.array_equal(
            stuck, np.broadcast_to(scenario.stuck_values(1.0), stuck.shape)
        )


NOISY = IntegrationConfig(dt=0.05, record_every=8, node_noise_std=0.02)
# Noise-free early exit: the three shards below settle at different times.
EARLY_EXIT = IntegrationConfig(
    dt=0.05, record_every=8, early_exit=True, settle_check_every=3
)


class TestEngineInference:
    """An engine's inference batch — the trained model's operator, the
    observed nodes clamped per sample to their normalized values, the free
    nodes denormalized into predictions — fanned out through the circuit
    pool.  ``NaturalAnnealingEngine.infer_batch`` itself runs serially."""

    OBSERVED = np.arange(4)
    BATCH = 6

    def _batch(self, model):
        rng = np.random.default_rng(21)
        values = rng.normal(size=(self.BATCH, self.OBSERVED.size))
        clamp = (
            (values - model.mean[self.OBSERVED]) / model.scale[self.OBSERVED]
        )
        sigma0 = rng.uniform(-1.0, 1.0, size=(self.BATCH, model.n))
        sigma0[:, self.OBSERVED] = clamp
        return sigma0, clamp

    def _infer(self, model, config, workers, backend="auto", shm=None):
        operator = NaturalAnnealingEngine(model, backend=backend).operator
        sigma0, clamp = self._batch(model)
        trajectory = run_batch_sharded(
            CircuitSimulator(config=config), operator.drift, sigma0, 5.0,
            self.OBSERVED, clamp, operator.energy,
            root_seed=3, workers=workers, shards=3, shm=shm,
        )
        free = np.setdiff1d(np.arange(model.n), self.OBSERVED)
        predictions = (
            trajectory.final_states[:, free] * model.scale[free]
            + model.mean[free]
        )
        return predictions, trajectory

    def _assert_same_bits(self, a, b):
        assert np.array_equal(a[0], b[0])
        assert _trajectories_equal(a[1], b[1])

    def test_workers_do_not_change_bits(self, trained_model):
        serial = self._infer(trained_model, NOISY, 1)
        pooled = self._infer(trained_model, NOISY, 2)
        self._assert_same_bits(serial, pooled)
        _, clamp = self._batch(trained_model)
        assert np.array_equal(
            pooled[1].final_states[:, self.OBSERVED], clamp
        )

    def test_early_exit_tails_do_not_depend_on_workers(self, trained_model):
        """Variable records: each shard's (initial, final) frames,
        reassembled and stamped at the latest shard's finish time."""
        serial = self._infer(trained_model, EARLY_EXIT, 1)
        pooled = self._infer(trained_model, EARLY_EXIT, 2)
        operator = NaturalAnnealingEngine(trained_model).operator
        sigma0, clamp = self._batch(trained_model)
        finishes = [
            CircuitSimulator(
                config=EARLY_EXIT, rng=np.random.default_rng(seed)
            ).run_batch(
                operator.drift, sigma0[part], 5.0,
                self.OBSERVED, clamp[part], operator.energy,
            ).times[-1]
            for part, seed in zip(
                shard_slices(self.BATCH, 3), spawn_seeds(3, 3)
            )
        ]
        assert len(set(finishes)) > 1
        trajectory = serial[1]
        assert trajectory.states.shape[:2] == (2, self.BATCH)
        assert trajectory.times[0] == 0.0
        assert trajectory.times[-1] == max(finishes) < 5.0
        self._assert_same_bits(serial, pooled)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_transport_does_not_change_bits(self, trained_model, workers):
        """Legacy pickled vs shared-memory task transport: same bits, with
        the per-sample clamps sliced per shard."""
        if not shm_available():
            pytest.skip("named shared memory unavailable")
        legacy = self._infer(trained_model, NOISY, workers, shm=False)
        shared = self._infer(trained_model, NOISY, workers, shm=True)
        self._assert_same_bits(legacy, shared)

    def test_sparse_operator_transport_does_not_change_bits(
        self, trained_model
    ):
        """A sparse engine operator crosses the shared-memory transport as
        a CSR triplet; its shards compute the legacy transport's bits."""
        if not shm_available():
            pytest.skip("named shared memory unavailable")
        engine = NaturalAnnealingEngine(trained_model, backend="sparse")
        assert engine.operator.backend == "sparse"
        legacy = self._infer(
            trained_model, NOISY, 2, backend="sparse", shm=False
        )
        shared = self._infer(
            trained_model, NOISY, 2, backend="sparse", shm=True
        )
        self._assert_same_bits(legacy, shared)
