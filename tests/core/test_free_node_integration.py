"""The free-node integration loop against the full-width loop it replaced.

``CircuitSimulator._integrate`` advances only the free nodes and never
writes the clamped ones after the start.  :class:`FullWidthSimulator`
keeps the loop it replaced verbatim: that loop advanced all ``n`` columns
and re-asserted the clamps after every step and RK4 stage.  Times, states,
energies and step statistics must match it byte for byte through ``run``,
``run_batch`` and ``infer_batch``.  (``tests/core/test_inference.py``
compares ``infer_batch`` with ``run_batch``, which share the loop under
test, so it cannot catch a change in the loop itself.)
"""

from collections import deque

import numpy as np
import pytest

from repro import obs
from repro.core import IntegrationConfig, NaturalAnnealingEngine
from repro.core.dynamics import CircuitSimulator, fixed_step_count
from repro.core.model import DSGLModel
from repro.core.operators import CouplingOperator
from repro.faults import FaultScenario
from repro.faults.resilience import DivergenceError, check_finite

N = 12
BATCH = 4
DURATION = 3.0


class FullWidthSimulator(CircuitSimulator):
    """The integration loop before it advanced only the free nodes.

    ``_integrate``, ``_rk4``, ``_adaptive_trial`` and ``_project`` below are
    that loop's code, unchanged.
    """

    def _integrate(
        self,
        drift,
        sigma: np.ndarray,
        duration: float,
        clamp_index: np.ndarray,
        clamp_value: np.ndarray,
        energy,
        tail: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        """Vectorized Euler/RK4 loop over a ``(batch, n)`` state matrix.

        Two settings of the config shape the run:

        * the step policy: :func:`fixed_step_count` steps of ``dt``, or
          (``adaptive``) a PI-controlled step that rejects and retries a
          trial whose embedded error estimate exceeds the tolerance.  The
          batch shares one step size that follows the *worst* member's
          error, so every step stays one batched drift evaluation;
        * the freeze-out (``early_exit``): a member whose state stopped
          moving leaves the active slice, so later steps run on a smaller
          ``(active, n)`` matrix, and holds its state.  The run ends at
          the step that freezes the last member.

        Every accepted step applies drift, noise, then rails and clamps.
        The initial state and every ``record_every``-th step (plus the last
        one) are recorded; ``tail`` keeps only the last ``tail`` of those
        frames, and ``None`` keeps them all.  ``energy`` is evaluated once
        per kept frame, after the loop.
        Returns ``(times, states, energies, stats)``; ``stats`` carries the
        step, rejection and freeze-out counts of :meth:`_observe_run`.
        """
        cfg = self.config
        batch = sigma.shape[0]

        # Energy-descent probe: only live when tracing is on AND an energy
        # callable exists; otherwise the loop carries no probe branch cost
        # beyond one integer comparison per step.
        tracer = obs.tracer()
        probe_every = (
            cfg.energy_probe_every
            if (cfg.energy_probe_every and energy is not None and tracer.enabled)
            else 0
        )
        check_every = cfg.divergence_check_every
        inv_c = 1.0 / cfg.capacitance
        per_sample = clamp_value.ndim == 2
        noise_scale = cfg.node_noise_std * (cfg.rail if cfg.rail else 1.0)
        if cfg.adaptive:
            dt_min = cfg.resolved_dt_min()
            dt_max = cfg.resolved_dt_max(duration)
            horizon = duration * (1.0 - 1e-12)
            # Controller order: the Heun/Euler pair estimates an O(dt^2)
            # local error, RK4 step-doubling an O(dt^5) one.
            order = 2.0 if cfg.method == "euler" else 5.0
            safety, fac_min, fac_max = 0.9, 0.2, 5.0
            kp, ki = 0.4 / order, 0.7 / order  # Gustafsson PI gains
            dt = min(max(cfg.dt, dt_min), dt_max)
            err_prev = 1.0
        else:
            dt = cfg.dt
            n_steps = fixed_step_count(duration, dt)

        # (time, state) pairs; a bounded deque drops the oldest frame.
        frames = deque([(0.0, sigma.copy())], maxlen=tail)

        active = np.arange(batch)
        streak = np.zeros(batch, dtype=int)
        reference = sigma.copy()
        step = rejected = member_steps = frozen_members = 0
        t = 0.0
        exited = False
        # A zero-length adaptive run takes no step; a fixed one takes one.
        done = cfg.adaptive and not t < horizon
        while not done:
            full = active.size == batch
            state = sigma if full else sigma[active]
            cvals = (
                clamp_value[active] if (per_sample and not full)
                else clamp_value
            )
            if cfg.adaptive:
                dt = min(dt, duration - t)
                proposal, err = self._adaptive_trial(
                    drift, state, dt, inv_c, clamp_index, cvals
                )
                if err > 1.0 and dt > dt_min * (1.0 + 1e-9):
                    rejected += 1
                    shrink = max(fac_min, safety * err ** (-1.0 / order))
                    dt = max(dt_min, dt * min(shrink, 1.0))
                    continue
            elif cfg.method == "euler":
                proposal = state + dt * inv_c * drift(state)
            else:
                proposal = self._rk4(drift, state, dt, inv_c, clamp_index, cvals)
            if cfg.node_noise_std > 0:
                # Thermal/shot noise enters through the same capacitor the
                # signal does, so it accumulates per step like the drift.
                proposal = proposal + self.rng.normal(
                    0.0, noise_scale * np.sqrt(dt), size=proposal.shape
                )
            # Clamps are re-asserted *after* noise injection: the observed
            # capacitors are driven, so noise cannot displace them.
            proposal = self._project(proposal, clamp_index, cvals)
            if full:
                sigma = proposal
            else:
                sigma[active] = proposal
            step += 1
            member_steps += int(active.size)
            if cfg.adaptive:
                t += dt
                bounded_err = max(err, 1e-10)
                factor = safety * bounded_err ** (-ki) * err_prev ** kp
                factor = min(fac_max, max(fac_min, factor))
                dt = min(dt_max, max(dt_min, dt * factor))
                err_prev = bounded_err
                done = t >= horizon
            else:
                t = step * dt
                done = step == n_steps
            if check_every and (step % check_every == 0 or done):
                check_finite(sigma, "circuit", step, t)
            if probe_every and (step % probe_every == 0 or done):
                values = np.asarray(energy(sigma), dtype=float)
                tracer.event(
                    "circuit.energy_probe",
                    step=step,
                    t_ns=t,
                    energy_mean=float(values.mean()),
                    energy_min=float(values.min()),
                    energy_max=float(values.max()),
                )
            if (
                cfg.early_exit
                and step % cfg.settle_check_every == 0
                and active.size
            ):
                # Freeze members that moved less than the tolerance (the
                # Trajectory.settled criterion) over settle_patience
                # consecutive check windows.
                moved = np.max(
                    np.abs(sigma[active] - reference[active]), axis=1
                )
                under = moved <= cfg.settle_tolerance
                streak[active] = np.where(under, streak[active] + 1, 0)
                keep = streak[active] < cfg.settle_patience
                frozen_members += int(active.size - keep.sum())
                active = active[keep]
                reference = sigma.copy()
            exited = cfg.early_exit and active.size == 0
            if step % cfg.record_every == 0 or done or exited:
                frames.append((t, sigma.copy()))
            done = done or exited

        times = np.asarray([when for when, _ in frames])
        states = np.asarray([state for _, state in frames])
        if energy is None:
            energies = np.zeros((times.size, batch))
        else:
            energies = np.asarray(
                [np.asarray(energy(state), dtype=float) for _, state in frames]
            )
        stats = {
            "steps": step,
            "rejected_steps": rejected,
            "member_steps": member_steps,
            "frozen_members": frozen_members,
            "exited_early": exited,
            "final_time": float(times[-1]),
        }
        return times, states, energies, stats

    def _rk4(self, drift, y, h, inv_c, clamp_index, clamp_value) -> np.ndarray:
        """One classical RK4 step of size ``h``.  Every intermediate stage
        is rail- and clamp-projected; the result is not."""
        k1 = drift(y)
        k2 = drift(self._project(y + 0.5 * h * inv_c * k1, clamp_index, clamp_value))
        k3 = drift(self._project(y + 0.5 * h * inv_c * k2, clamp_index, clamp_value))
        k4 = drift(self._project(y + h * inv_c * k3, clamp_index, clamp_value))
        return y + h * inv_c * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0

    def _adaptive_trial(
        self, drift, state, dt, inv_c, clamp_index, clamp_value
    ) -> tuple[np.ndarray, float]:
        """One trial step of the embedded pair at step size ``dt``.

        Returns ``(proposal, err)`` where ``proposal`` is the higher-order
        solution *before* noise injection and projection and ``err`` is
        the worst member's scaled local-error estimate (``<= 1``
        accepts).  ``method="euler"`` uses the Heun/Euler embedded pair
        (advance 2nd order, estimate 1st); ``method="rk4"`` uses
        step-doubling (advance with two half steps, estimate from the
        full-step difference).
        """
        cfg = self.config
        if cfg.method == "euler":
            k1 = drift(state)
            euler = state + dt * inv_c * k1
            k2 = drift(self._project(euler, clamp_index, clamp_value))
            proposal = state + 0.5 * dt * inv_c * (k1 + k2)
            err_vec = proposal - euler
        else:
            args = (inv_c, clamp_index, clamp_value)
            coarse = self._rk4(drift, state, dt, *args)
            half = self._project(
                self._rk4(drift, state, 0.5 * dt, *args), clamp_index, clamp_value
            )
            proposal = self._rk4(drift, half, 0.5 * dt, *args)
            err_vec = proposal - coarse
        if clamp_index.size:
            # Clamped coordinates are overwritten by the projection after
            # every accepted step; their (never-vanishing) drift must not
            # hold the shared step size down.
            err_vec[..., clamp_index] = 0.0
        scale = cfg.atol + cfg.rtol * np.maximum(
            np.abs(state), np.abs(proposal)
        )
        ratio = np.abs(err_vec) / scale
        return proposal, float(ratio.max()) if ratio.size else 0.0

    def _project(
        self,
        sigma: np.ndarray,
        clamp_index: np.ndarray,
        clamp_value: np.ndarray,
    ) -> np.ndarray:
        """Apply voltage rails and re-assert clamped nodes.

        Works on a single ``(n,)`` state or a ``(batch, n)`` matrix;
        ``clamp_value`` may be shared ``(k,)`` or per-sample ``(batch, k)``.
        """
        cfg = self.config
        if cfg.rail is not None:
            sigma = np.clip(sigma, -cfg.rail, cfg.rail)
        elif clamp_index.size:
            # Never write into the caller's array: _adaptive_trial still
            # reads its unprojected Euler state.
            sigma = sigma.copy()
        if clamp_index.size:
            sigma[..., clamp_index] = clamp_value
        return sigma


SEED = 7
SHARED = (np.array([0, 3, 6, 9]), np.array([2.5, -3.0, 0.4, 1.8]))
#: Observed nodes 0..4: the free nodes form one run, which the loop
#: indexes with a slice rather than an index array.
PREFIX = np.arange(5)
#: Node 3 is stuck among the shared clamps, node 7 among the free nodes.
STUCK = FaultScenario(
    n=N, stuck_index=np.array([3, 7]), stuck_sign=np.array([1.0, -1.0])
)
POLICIES = {
    "fixed": {},
    "adaptive": {"adaptive": True, "rtol": 1e-2},
    "early_exit": {"early_exit": True, "settle_tolerance": 0.05},
    "adaptive_early_exit": {
        "adaptive": True, "rtol": 1e-2, "early_exit": True,
        "settle_tolerance": 0.05,
    },
}


def _couplings():
    """A convex system whose clamps drive some free nodes past the rail."""
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(N, N)) * (rng.random((N, N)) < 0.5)
    J = (raw + raw.T) / 2.0
    np.fill_diagonal(J, 0.0)
    h = -(1.1 * np.abs(J).sum(axis=1) + 0.2)
    return J, h


J, H = _couplings()


def dense_drift(sigma):
    return sigma @ J + H * sigma


def energy(sigma):
    return -np.sum(sigma * (sigma @ J), axis=-1) - (sigma * sigma) @ H


def _clamps(kind):
    if kind == "none":
        return None, None
    if kind == "shared":
        return SHARED
    values = np.random.default_rng(11).uniform(-3.0, 3.0, (BATCH, PREFIX.size))
    return PREFIX, values


def _config(method, policy, noise, rail, **extra):
    return IntegrationConfig(
        dt=0.05, method=method, node_noise_std=noise, rail=rail,
        **POLICIES[policy], **extra,
    )


def _sigma0(batch=BATCH):
    return np.random.default_rng(5).uniform(-1.5, 1.5, size=(batch, N))


@pytest.fixture
def integrations(monkeypatch):
    """Every ``(times, states, energies, stats)`` the new loop returns."""
    results = []
    integrate = CircuitSimulator._integrate

    def spy(self, *args, **kwargs):
        result = integrate(self, *args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(CircuitSimulator, "_integrate", spy)
    return results


def _full_width_batch(
    config, faults, drift, sigma0, clamp_index, clamp_value, energy,
    rng=None, duration=DURATION, tail=None,
):
    """The full-width loop behind ``run_batch``, with its set-up."""
    simulator = FullWidthSimulator(
        config=config, rng=rng or np.random.default_rng(SEED), faults=faults
    )
    sigma = np.array(sigma0, dtype=float)
    batch, n = sigma.shape
    clamp_index, clamp_value = simulator._check_clamps(
        n, clamp_index, clamp_value, batch=batch
    )
    clamp_index, clamp_value = simulator._with_stuck(clamp_index, clamp_value)
    sigma[:, clamp_index] = clamp_value
    return simulator._integrate(
        drift, sigma, duration, clamp_index, clamp_value, energy, tail=tail
    )


def _full_width_single(config, faults, drift, sigma0, clamp_index, clamp_value):
    """The full-width loop behind ``run``, with its set-up."""
    simulator = FullWidthSimulator(
        config=config, rng=np.random.default_rng(SEED), faults=faults
    )
    sigma = np.array(sigma0, dtype=float).reshape(-1)
    n = sigma.shape[0]
    clamp_index, clamp_value = simulator._check_clamps(
        n, clamp_index, clamp_value
    )
    clamp_index, clamp_value = simulator._with_stuck(clamp_index, clamp_value)
    sigma[clamp_index] = clamp_value

    def drift_batch(states):
        return np.asarray(drift(states[0]))[None, :]

    def energy_batch(states):
        return np.asarray([float(energy(states[0]))])

    return simulator._integrate(
        drift_batch, sigma[None, :], DURATION, clamp_index, clamp_value,
        energy_batch,
    )


def _assert_identical(result, reference):
    for got, want in zip(result[:3], reference[:3]):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    stats, want = result[3], reference[3]
    assert {key: stats[key] for key in want} == want


def _assert_trajectory(trajectory, reference):
    times, states, energies, _ = reference
    assert trajectory.times.tobytes() == times.tobytes()
    assert trajectory.states.tobytes() == states.tobytes()
    assert trajectory.energies.tobytes() == energies.tobytes()


class TestRunBatch:
    @pytest.mark.parametrize("drift_kind", ["dense", "sparse_rows"])
    @pytest.mark.parametrize("stuck", [False, True])
    @pytest.mark.parametrize("rail", [1.0, None])
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    @pytest.mark.parametrize("clamps", ["none", "shared", "per_sample"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_matches_full_width_loop(
        self, integrations, method, policy, clamps, noise, rail, stuck,
        drift_kind,
    ):
        config = _config(method, policy, noise, rail, record_every=3)
        faults = STUCK if stuck else FaultScenario(n=N)
        clamp_index, clamp_value = _clamps(clamps)
        if drift_kind == "dense":
            drift = reference_drift = dense_drift
        else:
            operator = CouplingOperator(J, H, backend="sparse")
            observed = [] if clamp_index is None else clamp_index
            drift = operator._rows_drift(np.setdiff1d(np.arange(N), observed))
            reference_drift = operator.drift
        trajectory = CircuitSimulator(
            config=config, rng=np.random.default_rng(SEED), faults=faults
        ).run_batch(drift, _sigma0(), DURATION, clamp_index, clamp_value, energy)
        reference = _full_width_batch(
            config, faults, reference_drift, _sigma0(), clamp_index,
            clamp_value, energy,
        )
        (result,) = integrations
        _assert_identical(result, reference)
        _assert_trajectory(trajectory, reference)

    def test_matrix_exercises_clips_freezes_and_rejections(
        self, integrations
    ):
        """The cases above clip at the rail, run with part of the batch
        frozen, and reject adaptive steps; otherwise they would pin little."""
        simulator = CircuitSimulator(config=_config("euler", "fixed", 0.0, 1.0))
        with obs.metrics_enabled():
            simulator.run_batch(dense_drift, _sigma0(), DURATION, *SHARED)
        (clipped,) = integrations
        assert clipped[3]["rail_clips"] > 0
        for method in ("euler", "rk4"):
            frozen = _full_width_batch(
                _config(method, "early_exit", 0.02, 1.0), FaultScenario(n=N),
                dense_drift, _sigma0(), *SHARED, energy,
            )[3]
            assert 0 < frozen["member_steps"] < frozen["steps"] * BATCH
            adaptive = _full_width_batch(
                _config(method, "adaptive", 0.0, 1.0), FaultScenario(n=N),
                dense_drift, _sigma0(), *SHARED, energy,
            )[3]
            assert adaptive["rejected_steps"] > 0
        exited = _full_width_batch(
            _config("euler", "early_exit", 0.02, 1.0), FaultScenario(n=N),
            dense_drift, _sigma0(), *_clamps("per_sample"), energy,
        )[3]
        assert exited["exited_early"]


class TestRun:
    @pytest.mark.parametrize("stuck", [False, True])
    @pytest.mark.parametrize("rail", [1.0, None])
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    @pytest.mark.parametrize("clamps", ["none", "shared"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_matches_full_width_loop(
        self, integrations, method, policy, clamps, noise, rail, stuck
    ):
        config = _config(method, policy, noise, rail)
        faults = STUCK if stuck else FaultScenario(n=N)
        clamp_index, clamp_value = _clamps(clamps)
        sigma0 = _sigma0(batch=1)[0]

        def drift(sigma):
            return J @ sigma + H * sigma

        def single_energy(sigma):
            return float(energy(sigma[None, :])[0])

        trajectory = CircuitSimulator(
            config=config, rng=np.random.default_rng(SEED), faults=faults
        ).run(drift, sigma0, DURATION, clamp_index, clamp_value, single_energy)
        reference = _full_width_single(
            config, faults, drift, sigma0, clamp_index, clamp_value
        )
        (result,) = integrations
        _assert_identical(result, reference)
        assert trajectory.times.tobytes() == reference[0].tobytes()
        assert trajectory.states.tobytes() == reference[1][:, 0].tobytes()
        assert trajectory.energies.tobytes() == reference[2][:, 0].tobytes()


class TestInferBatch:
    """``infer_batch`` against the full-width loop with the engine's own
    full drift, the two-frame tail and the same random stream."""

    ENGINE_POLICIES = {
        "fixed": {},
        "early_exit": {"early_exit": True},
        "adaptive": {"adaptive": True, "rtol": 1e-3},
        "rk4": {"method": "rk4"},
    }

    @staticmethod
    def _engine(backend, **config_kwargs):
        rng = np.random.default_rng(4)
        n = 20
        raw = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.3)
        J = (raw + raw.T) / 2.0
        np.fill_diagonal(J, 0.0)
        h = -(np.abs(J).sum(axis=1) + 1.0)
        model = DSGLModel(
            J=J, h=h, mean=rng.normal(size=n), scale=rng.uniform(0.5, 1.5, n)
        )
        return NaturalAnnealingEngine(
            model,
            config=IntegrationConfig(dt=0.05, **config_kwargs),
            seed=5,
            backend=backend,
        )

    @staticmethod
    def _full_width(engine, observed, values, duration):
        model = engine.model
        clamp = engine._normalized_subset(model, observed, values)
        rng = np.random.default_rng(engine.seed)
        rail = engine.config.rail if engine.config.rail is not None else 1.0
        sigma0 = rng.uniform(-rail, rail, size=(values.shape[0], model.n))
        sigma0[:, observed] = clamp
        simulator = FullWidthSimulator(
            config=engine.config, rng=rng, faults=engine.faults
        )
        drift = engine._drift_function(simulator, engine.operator)
        return _full_width_batch(
            engine.config, engine.faults, drift, sigma0, observed, clamp,
            engine.operator.energy, rng=rng, duration=duration, tail=2,
        )

    def _assert_matches(self, integrations, engine, observed, duration=4.0):
        values = np.random.default_rng(6).normal(size=(4, observed.size))
        result = engine.infer_batch(observed, values, duration=duration)
        reference = self._full_width(engine, observed, values, duration)
        (integrated,) = integrations
        _assert_identical(integrated, reference)
        _assert_trajectory(result.trajectory, reference)
        assert result.states.tobytes() == reference[1][-1].tobytes()
        free = np.setdiff1d(np.arange(engine.model.n), observed)
        predictions = engine._denormalized_free(
            engine.model, free, reference[1][-1][:, free]
        )
        assert result.predictions.tobytes() == predictions.tobytes()

    @pytest.mark.parametrize(
        "observed", [np.arange(0, 20, 3), np.arange(12)], ids=["every_third", "prefix"]
    )
    @pytest.mark.parametrize("node_noise_std", [0.0, 0.02])
    @pytest.mark.parametrize("policy", sorted(ENGINE_POLICIES))
    @pytest.mark.parametrize("backend", ["sparse", "dense"])
    def test_matches_full_width_loop(
        self, integrations, backend, policy, node_noise_std, observed
    ):
        engine = self._engine(
            backend, node_noise_std=node_noise_std,
            **self.ENGINE_POLICIES[policy],
        )
        self._assert_matches(integrations, engine, observed)

    @pytest.mark.parametrize("backend", ["sparse", "dense"])
    def test_coupler_noise_matches_full_width_loop(self, integrations, backend):
        engine = self._engine(backend, coupling_noise_std=0.05, node_noise_std=0.02)
        self._assert_matches(integrations, engine, np.arange(0, 20, 3))

    def test_stuck_nodes_match_full_width_loop(self, integrations):
        engine = self._engine("sparse", node_noise_std=0.02, early_exit=True)
        # Node 3 is stuck among the observed nodes, node 4 among the free.
        engine.set_faults(
            FaultScenario(
                n=20, stuck_index=np.array([3, 4]),
                stuck_sign=np.array([1.0, -1.0]),
            )
        )
        self._assert_matches(integrations, engine, np.arange(0, 20, 3))


class TestFreeDrift:
    def test_rows_drift_must_cover_the_free_nodes(self):
        operator = CouplingOperator(J, H, backend="sparse")
        drift = operator._rows_drift(np.arange(6, N))
        with pytest.raises(ValueError, match="every free node"):
            CircuitSimulator().run_batch(
                drift, _sigma0(), DURATION, np.arange(3), np.zeros(3)
            )

    def test_rows_drift_returns_only_its_rows(self):
        operator = CouplingOperator(J, H, backend="sparse")
        rows = np.array([1, 4, 5, 6, 11])
        sigma = _sigma0()
        currents = operator._rows_drift(rows)(sigma)
        assert currents.shape == (BATCH, rows.size)
        assert currents.tobytes() == operator.drift(sigma)[:, rows].tobytes()


#: Clamped in ``SHARED`` and ``PREFIX``; ``_isolated`` uncouples it.
ISOLATED = 3


def _drifts(kind, J_, h_, clamp_index):
    """The drift under test and the full-width loop's reference drift."""
    if kind == "dense":
        def drift(sigma):
            return sigma @ J_ + h_ * sigma

        return drift, drift
    operator = CouplingOperator(J_, h_, backend="sparse")
    observed = [] if clamp_index is None else clamp_index
    rows = operator._rows_drift(np.setdiff1d(np.arange(N), observed))
    return rows, operator.drift


def _observed(run, path):
    """``run()`` with metrics and a trace: what it returned, or the
    ``(where, step, time_ns, bad_nodes)`` of the DivergenceError it
    raised; the trace's events; and the divergence-error count.  Overflow
    and NaN warnings are silenced: these runs make them on purpose."""
    with obs.observe(trace_path=path) as (registry, tracer):
        try:
            with np.errstate(all="ignore"):
                outcome = run()
        except DivergenceError as error:
            outcome = (error.where, error.step, error.time_ns, error.bad_nodes)
        errors = registry.counter("faults.divergence_errors").value
    events = [
        (record["name"], record["attributes"])
        for record in tracer.records
        if record["kind"] == "event"
    ]
    return outcome, events, errors


def _both(
    tmp_path, config, drift_kind, J_, h_, clamp_index, clamp_value,
    duration=DURATION,
):
    """The loop under test through ``run_batch`` and the full-width loop,
    each observed."""
    drift, reference_drift = _drifts(drift_kind, J_, h_, clamp_index)
    new = _observed(
        lambda: CircuitSimulator(
            config=config, rng=np.random.default_rng(SEED)
        ).run_batch(drift, _sigma0(), duration, clamp_index, clamp_value, energy),
        tmp_path / "new.jsonl",
    )
    old = _observed(
        lambda: _full_width_batch(
            config, FaultScenario(n=N), reference_drift, _sigma0(),
            clamp_index, clamp_value, energy, duration=duration,
        ),
        tmp_path / "old.jsonl",
    )
    return new, old


class TestBuiltOnDemand:
    """The loop builds full states only where something reads them: the
    divergence guard's error path and the energy probe.  Each must raise,
    emit and count what the full-width loop did."""

    @pytest.mark.parametrize("check_every", [1, 7])
    @pytest.mark.parametrize("drift_kind", ["dense", "sparse_rows"])
    @pytest.mark.parametrize("clamps", ["shared", "per_sample"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_divergence_raises_like_the_full_width_loop(
        self, tmp_path, method, policy, clamps, drift_kind, check_every
    ):
        # Unrailed, with two free nodes unstable: they overflow first and
        # their neighbours follow, so the guard counts part of the state.
        config = _config(
            method, policy, 0.0, None, divergence_check_every=check_every
        )
        h_ = H.copy()
        h_[[7, 10]] = 1e9
        new, old = _both(tmp_path, config, drift_kind, J, h_, *_clamps(clamps))
        assert old[0][0] == "circuit" and old[2] == 1
        assert new == old
        assert [name for name, _ in new[1]] == ["circuit.divergence"]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("drift_kind", ["dense", "sparse_rows"])
    @pytest.mark.parametrize("clamps", ["shared", "per_sample"])
    @pytest.mark.parametrize("policy", ["fixed", "early_exit"])
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_non_finite_clamp_on_an_uncoupled_node(
        self, tmp_path, method, policy, clamps, drift_kind, value
    ):
        """Node 3 is clamped to a non-finite value and couples to no other
        node, so on the sparse drift every free value stays finite and the
        guard counts the clamp alone.  With finite clamps every member
        settles by step 70, before the guard's first check at step 90; a
        member with the bad clamp must not, so the guard raises there as
        the full-width loop did.  (Adaptive runs are left out: the
        full-width loop's error estimate read the bad clamp's own
        drift.)"""
        config = _config(
            method, policy, 0.0, 1.0, divergence_check_every=90
        )
        J_ = J.copy()
        J_[ISOLATED, :] = 0.0
        J_[:, ISOLATED] = 0.0
        clamp_index, clamp_value = _clamps(clamps)
        clamp_value = np.array(clamp_value)
        if clamps == "shared":
            clamp_value[list(clamp_index).index(ISOLATED)] = value
        else:
            clamp_value[2, list(clamp_index).index(ISOLATED)] = value
        new, old = _both(
            tmp_path, config, drift_kind, J_, H, clamp_index, clamp_value,
            duration=5.0,
        )
        assert old[0][:2] == ("circuit", 90) and old[2] == 1
        assert new == old
        if drift_kind == "sparse_rows":
            assert old[0][3] == (BATCH if clamps == "shared" else 1)

    @pytest.mark.parametrize("drift_kind", ["dense", "sparse_rows"])
    @pytest.mark.parametrize("clamps", ["none", "shared", "per_sample"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_energy_probe_events_match_the_full_width_loop(
        self, tmp_path, method, policy, clamps, drift_kind
    ):
        config = _config(method, policy, 0.02, 1.0, energy_probe_every=4)
        new, old = _both(tmp_path, config, drift_kind, J, H, *_clamps(clamps))
        _assert_trajectory(new[0], old[0])
        assert new[1] == old[1] and new[2] == old[2] == 0
        probes = [name for name, _ in new[1]]
        assert probes and set(probes) == {"circuit.energy_probe"}

