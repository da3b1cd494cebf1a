"""Tests of the circuit ODE simulator."""

import numpy as np
import pytest

from repro.core import (
    CircuitSimulator,
    IntegrationConfig,
    RealValuedHamiltonian,
    Trajectory,
    symmetrize_coupling,
)


def _system(n=6, seed=0):
    rng = np.random.default_rng(seed)
    J = symmetrize_coupling(rng.normal(size=(n, n)) * 0.4)
    h = -(np.abs(J).sum(axis=1) + 1.0)
    return RealValuedHamiltonian(J, h)


def _drift(ham):
    return lambda sigma: ham.J @ sigma + ham.h * sigma


class TestIntegrationConfig:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            IntegrationConfig(dt=0.0)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            IntegrationConfig(method="rk2")

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="noise"):
            IntegrationConfig(node_noise_std=-0.1)

    def test_rejects_bad_record_every(self):
        with pytest.raises(ValueError, match="record_every"):
            IntegrationConfig(record_every=0)

    def test_rejects_negative_divergence_check(self):
        with pytest.raises(ValueError, match="divergence_check_every"):
            IntegrationConfig(divergence_check_every=-1)


class TestClampPairValidation:
    def test_half_specified_pair_rejected(self):
        """Regression: ``clamp_index`` without ``clamp_value`` slipped into
        ``np.asarray(None)`` (a NaN 0-d array) and failed later with a
        misleading shape mismatch."""
        sim = CircuitSimulator(IntegrationConfig(dt=0.05))
        with pytest.raises(ValueError, match="together"):
            sim.run(lambda s: -s, np.zeros(4), 1.0, clamp_index=np.asarray([0]))
        with pytest.raises(ValueError, match="together"):
            sim.run(
                lambda s: -s, np.zeros(4), 1.0, clamp_value=np.asarray([0.5])
            )

    def test_batch_path_rejects_half_specified_pair(self):
        sim = CircuitSimulator(IntegrationConfig(dt=0.05))
        with pytest.raises(ValueError, match="together"):
            sim.run_batch(
                lambda s: -s, np.zeros((2, 4)), 1.0,
                clamp_index=np.asarray([0]),
            )


class TestCircuitSimulator:
    def test_converges_to_algebraic_fixed_point(self):
        ham = _system()
        clamp_index = np.asarray([0, 2])
        clamp_value = np.asarray([0.5, -0.3])
        expected = ham.fixed_point(clamp_index, clamp_value)
        sim = CircuitSimulator(IntegrationConfig(dt=0.02, rail=None))
        rng = np.random.default_rng(1)
        sigma0 = rng.normal(size=6)
        run = sim.run(
            _drift(ham), sigma0, 200.0, clamp_index, clamp_value, ham.energy
        )
        assert np.allclose(run.final_state, expected, atol=1e-6)

    def test_energy_monotonically_decreases(self):
        ham = _system(seed=2)
        sim = CircuitSimulator(IntegrationConfig(dt=0.02, rail=None))
        run = sim.run(
            _drift(ham),
            np.random.default_rng(3).normal(size=6),
            100.0,
            energy=ham.energy,
        )
        assert np.all(np.diff(run.energies) <= 1e-9)

    def test_rk4_matches_euler_at_convergence(self):
        ham = _system(seed=4)
        clamp_index = np.asarray([1])
        clamp_value = np.asarray([0.7])
        sigma0 = np.zeros(6)
        euler = CircuitSimulator(IntegrationConfig(dt=0.01, method="euler")).run(
            _drift(ham), sigma0, 150.0, clamp_index, clamp_value
        )
        rk4 = CircuitSimulator(IntegrationConfig(dt=0.05, method="rk4")).run(
            _drift(ham), sigma0, 150.0, clamp_index, clamp_value
        )
        assert np.allclose(euler.final_state, rk4.final_state, atol=1e-4)

    def test_rail_saturation(self):
        # A strongly driven node cannot exceed the rail.
        drift = lambda sigma: np.full_like(sigma, 10.0)
        sim = CircuitSimulator(IntegrationConfig(dt=0.1, rail=1.0))
        run = sim.run(drift, np.zeros(3), 50.0)
        assert np.all(run.states <= 1.0 + 1e-12)
        assert np.allclose(run.final_state, 1.0)

    def test_clamped_nodes_never_move(self):
        ham = _system(seed=5)
        clamp_index = np.asarray([0, 4])
        clamp_value = np.asarray([0.2, -0.9])
        sim = CircuitSimulator(IntegrationConfig(dt=0.05))
        run = sim.run(_drift(ham), np.zeros(6), 50.0, clamp_index, clamp_value)
        assert np.allclose(run.states[:, clamp_index], clamp_value)

    def test_noise_injection_perturbs_trajectory(self):
        ham = _system(seed=6)
        quiet = CircuitSimulator(
            IntegrationConfig(dt=0.05), rng=np.random.default_rng(0)
        ).run(_drift(ham), np.zeros(6), 20.0)
        noisy = CircuitSimulator(
            IntegrationConfig(dt=0.05, node_noise_std=0.1),
            rng=np.random.default_rng(0),
        ).run(_drift(ham), np.zeros(6), 20.0)
        assert not np.allclose(quiet.final_state, noisy.final_state)

    def test_record_every_thins_trajectory(self):
        ham = _system(seed=7)
        dense = CircuitSimulator(IntegrationConfig(dt=0.1)).run(
            _drift(ham), np.zeros(6), 10.0
        )
        thin = CircuitSimulator(IntegrationConfig(dt=0.1, record_every=10)).run(
            _drift(ham), np.zeros(6), 10.0
        )
        assert len(thin.times) < len(dense.times)
        assert np.allclose(thin.final_state, dense.final_state)

    def test_clamp_validation(self):
        sim = CircuitSimulator()
        with pytest.raises(ValueError, match="equal shapes"):
            sim.run(lambda s: -s, np.zeros(4), 1.0, np.asarray([0]), np.zeros(2))
        with pytest.raises(ValueError, match="out of range"):
            sim.run(lambda s: -s, np.zeros(4), 1.0, np.asarray([9]), np.zeros(1))
        # A repeated index would silently hold the node at its last value.
        with pytest.raises(ValueError, match="duplicates"):
            sim.run(
                lambda s: -s, np.zeros(4), 1.0,
                np.asarray([1, 1]), np.asarray([0.9, -0.4]),
            )

    def test_perturbed_coupling_symmetric(self):
        sim = CircuitSimulator(IntegrationConfig(coupling_noise_std=0.1))
        J = symmetrize_coupling(np.random.default_rng(8).normal(size=(5, 5)))
        noisy = sim.perturbed_coupling(J)
        assert np.allclose(noisy, noisy.T)
        assert np.allclose(np.diag(noisy), 0.0)
        assert not np.allclose(noisy, J)

    def test_perturbed_coupling_identity_without_noise(self):
        sim = CircuitSimulator()
        J = symmetrize_coupling(np.random.default_rng(9).normal(size=(4, 4)))
        assert sim.perturbed_coupling(J) is J


class TestTrajectory:
    def test_settle_time_monotone_in_tolerance(self):
        ham = _system(seed=10)
        sim = CircuitSimulator(IntegrationConfig(dt=0.05))
        run = sim.run(
            _drift(ham),
            np.random.default_rng(11).normal(size=6),
            100.0,
            np.asarray([0]),
            np.asarray([0.5]),
        )
        loose = run.settle_time(tolerance=0.1)
        tight = run.settle_time(tolerance=1e-4)
        assert loose <= tight

    def test_final_energy_matches_states(self):
        ham = _system(seed=12)
        sim = CircuitSimulator(IntegrationConfig(dt=0.05))
        run = sim.run(_drift(ham), np.zeros(6), 10.0, energy=ham.energy)
        assert np.isclose(run.final_energy, ham.energy(run.final_state))


def _batch_drift(ham):
    return lambda states: states @ ham.J + ham.h * states


class TestBatchedIntegration:
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_run_batch_matches_per_sample_runs(self, method):
        ham = _system(seed=20)
        rng = np.random.default_rng(21)
        sigma0 = rng.uniform(-1, 1, size=(4, 6))
        clamp_index = np.asarray([1, 3])
        clamp_value = np.asarray([0.4, -0.2])
        config = IntegrationConfig(dt=0.05, method=method)

        batch = CircuitSimulator(config).run_batch(
            _batch_drift(ham), sigma0, 20.0, clamp_index, clamp_value,
            energy=ham.energy_batch,
        )
        for b in range(4):
            single = CircuitSimulator(config).run(
                _drift(ham), sigma0[b], 20.0, clamp_index, clamp_value,
                energy=ham.energy,
            )
            assert np.allclose(batch.states[:, b, :], single.states, atol=1e-10)
            assert np.allclose(batch.energies[:, b], single.energies, atol=1e-8)
        assert np.array_equal(batch.times, single.times)

    def test_shapes_and_sample_view(self):
        ham = _system(seed=22)
        batch = CircuitSimulator(IntegrationConfig(dt=0.1)).run_batch(
            _batch_drift(ham), np.zeros((3, 6)), 5.0, energy=ham.energy_batch
        )
        T = len(batch.times)
        assert batch.batch_size == 3
        assert batch.states.shape == (T, 3, 6)
        assert batch.energies.shape == (T, 3)
        assert batch.final_states.shape == (3, 6)
        assert batch.final_energies.shape == (3,)
        member = batch.sample(1)
        assert np.array_equal(member.states, batch.states[:, 1, :])
        assert np.array_equal(member.energies, batch.energies[:, 1])

    def test_per_sample_clamp_values(self):
        ham = _system(seed=23)
        clamp_index = np.asarray([0, 5])
        clamp_value = np.asarray([[0.1, -0.1], [0.8, -0.8], [0.0, 0.5]])
        batch = CircuitSimulator(IntegrationConfig(dt=0.05)).run_batch(
            _batch_drift(ham), np.zeros((3, 6)), 10.0, clamp_index, clamp_value
        )
        assert np.allclose(batch.states[:, :, clamp_index], clamp_value)

    def test_validates_batch_shapes(self):
        sim = CircuitSimulator()
        with pytest.raises(ValueError, match="batch"):
            sim.run_batch(lambda s: -s, np.zeros(6), 1.0)
        with pytest.raises(ValueError, match="per-sample clamp_value"):
            sim.run_batch(
                lambda s: -s,
                np.zeros((3, 6)),
                1.0,
                np.asarray([0]),
                np.zeros((2, 1)),
            )
        with pytest.raises(ValueError, match="duplicates"):
            sim.run_batch(
                lambda s: -s,
                np.zeros((2, 6)),
                1.0,
                np.asarray([1, 1]),
                np.asarray([[0.9, -0.4], [0.1, 0.2]]),
            )


class TestClampNoiseInteraction:
    """Clamps must be re-asserted after noise injection and at every
    intermediate RK4 stage (the observed capacitors are driven)."""

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_recorded_states_hold_clamps_under_noise(self, method):
        ham = _system(seed=24)
        clamp_index = np.asarray([0, 2])
        clamp_value = np.asarray([0.3, -0.6])
        sim = CircuitSimulator(
            IntegrationConfig(dt=0.05, method=method, node_noise_std=0.2),
            rng=np.random.default_rng(25),
        )
        run = sim.run(_drift(ham), np.zeros(6), 20.0, clamp_index, clamp_value)
        # Exact equality: noise must never displace a clamped node.
        assert np.all(run.states[:, clamp_index] == clamp_value)

    def test_rk4_stages_see_clamped_states(self):
        ham = _system(seed=26)
        clamp_index = np.asarray([1, 4])
        clamp_value = np.asarray([0.5, -0.5])
        seen = []

        def recording_drift(sigma):
            seen.append(np.array(sigma))
            return ham.J @ sigma + ham.h * sigma

        sim = CircuitSimulator(
            IntegrationConfig(dt=0.1, method="rk4", node_noise_std=0.1),
            rng=np.random.default_rng(27),
        )
        sim.run(recording_drift, np.zeros(6), 5.0, clamp_index, clamp_value)
        assert len(seen) >= 4  # four stages per step
        for state in seen:
            assert np.all(state[clamp_index] == clamp_value)

    def test_batched_noise_respects_clamps(self):
        ham = _system(seed=28)
        clamp_index = np.asarray([3])
        clamp_value = np.asarray([[0.9], [-0.9]])
        sim = CircuitSimulator(
            IntegrationConfig(dt=0.05, method="rk4", node_noise_std=0.3),
            rng=np.random.default_rng(29),
        )
        batch = sim.run_batch(
            _batch_drift(ham), np.zeros((2, 6)), 10.0, clamp_index, clamp_value
        )
        assert np.all(batch.states[:, :, clamp_index] == clamp_value[None])


class TestPerturbedCouplingInvariants:
    def test_noisy_coupling_keeps_matrix_invariants(self):
        sim = CircuitSimulator(
            IntegrationConfig(coupling_noise_std=0.2),
            rng=np.random.default_rng(30),
        )
        J = symmetrize_coupling(np.random.default_rng(31).normal(size=(8, 8)))
        for _ in range(5):  # several draws, all must stay valid couplings
            noisy = sim.perturbed_coupling(J)
            assert np.array_equal(noisy, noisy.T)
            assert np.all(np.diag(noisy) == 0.0)
            # Multiplicative noise preserves the sparsity pattern.
            assert np.array_equal(noisy == 0.0, J == 0.0)


class TestSettleTimeNeverSettled:
    def test_oscillation_until_final_sample_returns_full_duration(self):
        """Regression: a trajectory that oscillates until the very last
        recorded sample must report the full duration, not a bogus early
        settle point."""
        times = np.arange(6, dtype=float)
        base = np.zeros((6, 3))
        base[:, 0] = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]  # flips at every sample
        trajectory = Trajectory(
            times=times, states=base, energies=np.zeros(6)
        )
        assert trajectory.settle_time(tolerance=1e-3) == times[-1]
        assert not trajectory.settled(tolerance=1e-3)

    def test_settled_trajectory_reports_early_time(self):
        times = np.arange(5, dtype=float)
        states = np.zeros((5, 2))
        states[0] = [1.0, 1.0]  # settles right after the first sample
        trajectory = Trajectory(
            times=times, states=states, energies=np.zeros(5)
        )
        assert trajectory.settle_time(tolerance=1e-3) == times[1]
        assert trajectory.settled(tolerance=1e-3)

    def test_constant_trajectory_settles_immediately(self):
        trajectory = Trajectory(
            times=np.arange(4, dtype=float),
            states=np.ones((4, 2)),
            energies=np.zeros(4),
        )
        assert trajectory.settle_time() == 0.0
        assert trajectory.settled()
