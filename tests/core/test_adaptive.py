"""Tests of adaptive step control and early-exit settling.

Two properties anchor the suite: the adaptive path must land within its
error tolerance of a tight fixed-step reference, and the fixed-step
default path must stay bit-for-bit identical to a plain reference loop
whether or not the freeze-out is armed (early-exit with an unreachable
tolerance exercises the freeze-out code without ever freezing anyone).
"""

import numpy as np
import pytest

from repro import obs
from repro.core import (
    CircuitSimulator,
    IntegrationConfig,
    RealValuedHamiltonian,
    symmetrize_coupling,
)
from repro.core.operators import CouplingOperator


def _system(n=6, seed=0):
    rng = np.random.default_rng(seed)
    J = symmetrize_coupling(rng.normal(size=(n, n)) * 0.4)
    h = -(np.abs(J).sum(axis=1) + 1.0)
    return RealValuedHamiltonian(J, h)


def _drift(ham):
    return lambda sigma: ham.J @ sigma + ham.h * sigma


def _batch_drift(ham):
    return lambda states: states @ ham.J + ham.h * states


class TestAdaptiveConfigValidation:
    def test_rejects_nonpositive_rtol(self):
        with pytest.raises(ValueError, match="rtol"):
            IntegrationConfig(adaptive=True, rtol=0.0)

    def test_rejects_negative_atol(self):
        with pytest.raises(ValueError, match="atol"):
            IntegrationConfig(adaptive=True, atol=-1e-9)

    def test_rejects_nonpositive_dt_min(self):
        with pytest.raises(ValueError, match="dt_min"):
            IntegrationConfig(adaptive=True, dt_min=0.0)

    def test_rejects_dt_min_above_dt_max(self):
        with pytest.raises(ValueError, match="dt_min"):
            IntegrationConfig(adaptive=True, dt_min=1.0, dt_max=0.5)

    def test_rejects_nonpositive_settle_tolerance(self):
        with pytest.raises(ValueError, match="settle_tolerance"):
            IntegrationConfig(early_exit=True, settle_tolerance=0.0)

    def test_rejects_bad_settle_check_every(self):
        with pytest.raises(ValueError, match="settle_check_every"):
            IntegrationConfig(early_exit=True, settle_check_every=0)

    def test_rejects_bad_settle_patience(self):
        with pytest.raises(ValueError, match="settle_patience"):
            IntegrationConfig(early_exit=True, settle_patience=0)

    def test_resolved_dt_bounds_default_from_dt(self):
        cfg = IntegrationConfig(dt=0.1, adaptive=True)
        assert cfg.resolved_dt_min() == pytest.approx(0.1 / 1000.0)
        assert cfg.resolved_dt_max(50.0) == pytest.approx(10.0)
        # The max step never exceeds the run itself.
        assert cfg.resolved_dt_max(2.0) == pytest.approx(2.0)

    def test_explicit_bounds_win(self):
        cfg = IntegrationConfig(dt=0.1, adaptive=True, dt_min=0.01, dt_max=0.5)
        assert cfg.resolved_dt_min() == 0.01
        assert cfg.resolved_dt_max(100.0) == 0.5


class TestAdaptiveAccuracy:
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_matches_tight_fixed_step_reference(self, method):
        ham = _system(seed=40)
        clamp_index = np.asarray([0, 2])
        clamp_value = np.asarray([0.5, -0.3])
        sigma0 = np.random.default_rng(41).uniform(-1, 1, size=6)
        reference = CircuitSimulator(
            IntegrationConfig(dt=0.001, method=method)
        ).run(_drift(ham), sigma0, 30.0, clamp_index, clamp_value)
        adaptive = CircuitSimulator(
            IntegrationConfig(
                dt=0.05, method=method, adaptive=True, rtol=1e-6, atol=1e-9
            )
        ).run(_drift(ham), sigma0, 30.0, clamp_index, clamp_value)
        assert np.allclose(
            adaptive.final_state, reference.final_state, atol=1e-4
        )

    def test_batch_adaptive_matches_reference(self):
        ham = _system(seed=42)
        clamp_index = np.asarray([1])
        clamp_value = np.asarray([[0.4], [-0.7], [0.1]])
        sigma0 = np.random.default_rng(43).uniform(-1, 1, size=(3, 6))
        reference = CircuitSimulator(IntegrationConfig(dt=0.001)).run_batch(
            _batch_drift(ham), sigma0, 30.0, clamp_index, clamp_value
        )
        adaptive = CircuitSimulator(
            IntegrationConfig(dt=0.05, adaptive=True, rtol=1e-6, atol=1e-9)
        ).run_batch(_batch_drift(ham), sigma0, 30.0, clamp_index, clamp_value)
        assert np.allclose(
            adaptive.final_states, reference.final_states, atol=1e-4
        )

    def test_step_sizes_grow_toward_equilibrium(self):
        """Once the transient decays the controller should open the step
        up well past the starting dt (the whole point of adaptivity)."""
        ham = _system(seed=44)
        run = CircuitSimulator(
            IntegrationConfig(
                dt=0.01, adaptive=True, rtol=1e-3, atol=1e-6, record_every=1
            )
        ).run(_drift(ham), np.random.default_rng(45).normal(size=6), 50.0)
        dts = np.diff(run.times)
        assert dts.max() > 5 * dts.min()
        assert run.times[-1] == pytest.approx(50.0)

    def test_clamps_held_exactly_under_adaptive_noise(self):
        ham = _system(seed=46)
        clamp_index = np.asarray([0, 3])
        clamp_value = np.asarray([0.3, -0.6])
        run = CircuitSimulator(
            IntegrationConfig(
                dt=0.02, adaptive=True, node_noise_std=0.1, record_every=1
            ),
            rng=np.random.default_rng(47),
        ).run(_drift(ham), np.zeros(6), 10.0, clamp_index, clamp_value)
        assert np.all(run.states[:, clamp_index] == clamp_value)

    def test_records_rejected_steps_counter(self):
        ham = _system(seed=48)
        with obs.metrics_enabled() as registry:
            CircuitSimulator(
                IntegrationConfig(dt=0.5, adaptive=True, rtol=1e-8, atol=1e-10)
            ).run(_drift(ham), np.random.default_rng(49).normal(size=6), 10.0)
            counters = registry.snapshot()["counters"]
        # Starting with a hopeless 0.5 step under a tight tolerance must
        # reject at least once, and the counter must surface it.
        assert counters.get("circuit.rejected_steps", 0) >= 1


class TestFixedPathBitwisePreserved:
    """Arming early-exit with an unreachable tolerance must not change a
    single output bit versus the plain fixed-step path, and both must
    match a plain fixed-step loop written out here, independently of the
    simulator."""

    @staticmethod
    def _reference_loop(config, rng, drift, sigma0, duration, clamp_index,
                        clamp_value, energy):
        """Drift, noise, rail clip, then clamps; RK4 stages projected."""
        dt, inv_c = config.dt, 1.0 / config.capacitance

        def project(state):
            if config.rail is not None:
                state = np.clip(state, -config.rail, config.rail)
            state = state.copy()
            state[:, clamp_index] = clamp_value
            return state

        sigma = np.array(sigma0, dtype=float)
        sigma[:, clamp_index] = clamp_value
        n_steps = max(1, round(duration / dt))
        times, states, energies = [0.0], [sigma.copy()], [energy(sigma)]
        for step in range(1, n_steps + 1):
            if config.method == "euler":
                sigma = sigma + dt * inv_c * drift(sigma)
            else:
                k1 = drift(sigma)
                k2 = drift(project(sigma + 0.5 * dt * inv_c * k1))
                k3 = drift(project(sigma + 0.5 * dt * inv_c * k2))
                k4 = drift(project(sigma + dt * inv_c * k3))
                sigma = sigma + dt * inv_c * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            if config.node_noise_std > 0:
                scale = config.node_noise_std * (config.rail or 1.0)
                sigma = sigma + rng.normal(
                    0.0, scale * np.sqrt(dt), size=sigma.shape
                )
            sigma = project(sigma)
            if step % config.record_every == 0 or step == n_steps:
                times.append(step * dt)
                states.append(sigma.copy())
                energies.append(energy(sigma))
        return np.asarray(times), np.asarray(states), np.asarray(energies)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("noise", [0.0, 0.1])
    @pytest.mark.parametrize("per_sample", [False, True])
    @pytest.mark.parametrize("rail", [1.0, None])
    @pytest.mark.parametrize("record_every", [1, 3])
    def test_matches_reference_loop(
        self, method, noise, per_sample, rail, record_every
    ):
        ham = _system(seed=54)
        clamp_index = np.asarray([1, 4])
        clamp_value = (
            np.asarray([[0.2, -0.8], [0.9, 0.0], [-0.3, 0.5]])
            if per_sample else np.asarray([0.2, -0.8])
        )
        sigma0 = np.random.default_rng(55).uniform(-1, 1, size=(3, 6))

        def energy(states):
            return -np.sum(states * (states @ ham.J), axis=1) - (
                states * states
            ) @ ham.h

        base = dict(
            dt=0.05, method=method, node_noise_std=noise, rail=rail,
            record_every=record_every,
        )
        # 40 steps: with record_every=3 the final step is an extra frame.
        times, states, energies = self._reference_loop(
            IntegrationConfig(**base), np.random.default_rng(56),
            _batch_drift(ham), sigma0, 2.0, clamp_index, clamp_value, energy,
        )
        for armed in ({}, dict(early_exit=True, settle_tolerance=1e-300)):
            run = CircuitSimulator(
                IntegrationConfig(**base, **armed),
                rng=np.random.default_rng(56),
            ).run_batch(
                _batch_drift(ham), sigma0, 2.0, clamp_index, clamp_value,
                energy,
            )
            assert np.array_equal(run.times, times)
            assert np.array_equal(run.states, states)
            assert np.array_equal(run.energies, energies)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_unreachable_tolerance_is_bitwise_identical(self, method, noise):
        ham = _system(seed=50)
        clamp_index = np.asarray([1, 4])
        clamp_value = np.asarray([[0.2, -0.8], [0.9, 0.0]])
        sigma0 = np.random.default_rng(51).uniform(-1, 1, size=(2, 6))
        fixed = CircuitSimulator(
            IntegrationConfig(dt=0.05, method=method, node_noise_std=noise),
            rng=np.random.default_rng(52),
        ).run_batch(_batch_drift(ham), sigma0, 5.0, clamp_index, clamp_value)
        armed = CircuitSimulator(
            IntegrationConfig(
                dt=0.05, method=method, node_noise_std=noise,
                early_exit=True, settle_tolerance=1e-300,
            ),
            rng=np.random.default_rng(52),
        ).run_batch(_batch_drift(ham), sigma0, 5.0, clamp_index, clamp_value)
        assert np.array_equal(fixed.final_states, armed.final_states)
        assert np.array_equal(fixed.times, armed.times)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_across_operator_backends_and_dtypes(self, backend, dtype):
        rng = np.random.default_rng(53)
        n = 16
        J = symmetrize_coupling(rng.normal(size=(n, n)) * 0.3)
        J[np.abs(J) < 0.2] = 0.0
        h = -(np.abs(J).sum(axis=1) + 1.0)
        operator = CouplingOperator(J, h, backend=backend, dtype=dtype)
        sigma0 = rng.uniform(-1, 1, size=(3, n))
        clamp_index = np.arange(4)
        clamp_value = sigma0[:, :4]
        fixed = CircuitSimulator(IntegrationConfig(dt=0.05)).run_batch(
            operator.drift, sigma0, 5.0, clamp_index, clamp_value
        )
        armed = CircuitSimulator(
            IntegrationConfig(dt=0.05, early_exit=True, settle_tolerance=1e-300)
        ).run_batch(operator.drift, sigma0, 5.0, clamp_index, clamp_value)
        assert np.array_equal(fixed.final_states, armed.final_states)


class TestEarlyExitSettling:
    def test_exits_before_budget_on_contracting_system(self):
        ham = _system(seed=60)
        clamp_index = np.asarray([0])
        clamp_value = np.asarray([[0.5], [-0.5], [0.1], [0.9]])
        sigma0 = np.random.default_rng(61).uniform(-1, 1, size=(4, 6))
        budget = 500.0
        fixed = CircuitSimulator(IntegrationConfig(dt=0.05)).run_batch(
            _batch_drift(ham), sigma0, budget, clamp_index, clamp_value
        )
        early = CircuitSimulator(
            IntegrationConfig(dt=0.05, early_exit=True, settle_tolerance=1e-10)
        ).run_batch(_batch_drift(ham), sigma0, budget, clamp_index, clamp_value)
        assert early.times[-1] < budget
        assert np.allclose(early.final_states, fixed.final_states, atol=1e-8)

    def test_frozen_members_stop_moving(self):
        """After a member freezes its state is carried forward verbatim;
        the recorded final state equals the state at freeze-out."""
        ham = _system(seed=62)
        early = CircuitSimulator(
            IntegrationConfig(
                dt=0.05, early_exit=True, settle_tolerance=1e-8,
                record_every=1,
            )
        ).run_batch(
            _batch_drift(ham),
            np.random.default_rng(63).uniform(-1, 1, size=(3, 6)),
            500.0,
        )
        # Every member's trailing window is constant to the tolerance.
        tail = early.states[-2:]
        assert np.max(np.abs(tail[1] - tail[0])) <= 1e-6

    def test_early_exit_counters_recorded(self):
        ham = _system(seed=64)
        with obs.metrics_enabled() as registry:
            CircuitSimulator(
                IntegrationConfig(dt=0.05, early_exit=True,
                                  settle_tolerance=1e-9)
            ).run_batch(
                _batch_drift(ham),
                np.random.default_rng(65).uniform(-1, 1, size=(4, 6)),
                500.0,
            )
            counters = registry.snapshot()["counters"]
        assert counters.get("circuit.frozen_members") == 4
        assert counters.get("circuit.early_exits") == 1
        # Freeze-out must have saved real member-step work.
        budget = counters["circuit.steps"] * counters["circuit.samples"]
        assert counters["circuit.member_steps"] < budget

    def test_adaptive_composes_with_early_exit(self):
        ham = _system(seed=66)
        clamp_index = np.asarray([2])
        clamp_value = np.asarray([[0.4], [-0.4]])
        sigma0 = np.random.default_rng(67).uniform(-1, 1, size=(2, 6))
        reference = CircuitSimulator(IntegrationConfig(dt=0.001)).run_batch(
            _batch_drift(ham), sigma0, 200.0, clamp_index, clamp_value
        )
        combined = CircuitSimulator(
            IntegrationConfig(
                dt=0.02, adaptive=True, rtol=1e-6, atol=1e-9,
                early_exit=True, settle_tolerance=1e-9,
            )
        ).run_batch(_batch_drift(ham), sigma0, 200.0, clamp_index, clamp_value)
        assert combined.times[-1] < 200.0
        assert np.allclose(
            combined.final_states, reference.final_states, atol=1e-4
        )
