"""Continuous-time node dynamics of the DSPU circuit.

The Real-Valued DSPU is an analog circuit: node values are voltages on
nano-scale capacitors, couplings are programmable resistor rings, and the
self-reaction ``h`` is the conductance of an in-node resistor.  Kirchhoff's
current law on each capacitor gives (Eq. 8)::

    C dsigma_i/dt = sum_{j != i} J_ij sigma_j - (-h_i) sigma_i
                  = (J sigma)_i + h_i sigma_i            (h_i < 0)

which equals ``-(1/2) dH_RV/dsigma_i`` — a gradient flow, so the Hamiltonian
monotonically decreases along trajectories (Eq. 6, Lyapunov).

This module is the software stand-in for the paper's CUDA finite-element
circuit simulator: explicit integrators over the node ODEs, with support for

* clamped (observed) nodes whose voltage is held by charged capacitors,
* voltage rails (supply limits) that saturate node values,
* per-step Gaussian dynamic noise on nodes and couplers (Sec. V.G),
* trajectory recording for circuit-level validation (Fig. 4),
* batched integration of ``(batch, n)`` state matrices, so multi-sample
  inference, noise-robustness sweeps, and random restarts share each
  step's coupling matvec (:meth:`CircuitSimulator.run_batch`).
"""

from __future__ import annotations

import copy
import logging
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..faults.model import NO_FAULTS, FaultScenario, NullFaultScenario
from ..faults.resilience import check_finite
from .operators import node_columns

logger = logging.getLogger("repro.core")

__all__ = [
    "IntegrationConfig",
    "Trajectory",
    "BatchTrajectory",
    "CircuitSimulator",
]

#: Default capacitance constant (arbitrary units).  Only the ratio of the
#: time step to ``C`` matters for the discrete dynamics; the paper's
#: nano-scale capacitors with ~GHz node bandwidth correspond to nanosecond
#: time constants, which we adopt for latency reporting.
DEFAULT_CAPACITANCE = 1.0


@dataclass
class IntegrationConfig:
    """Settings of the explicit ODE integration.

    Attributes:
        dt: Integration step in nanoseconds of simulated circuit time.
        capacitance: Node capacitance ``C`` in Eq. (7); scales the time
            constant of every node.
        rail: Supply-voltage rail; node values saturate to ``[-rail, +rail]``
            as on the real chip.  ``None`` disables saturation (used by the
            polarization analysis, which must observe divergence).
        method: ``"euler"`` or ``"rk4"``.
        node_noise_std: Standard deviation of the per-step Gaussian voltage
            noise injected at nodes, as a fraction of the rail.
        coupling_noise_std: Standard deviation of multiplicative Gaussian
            noise on coupling conductances, as a fraction of each ``J_ij``.
        record_every: Record the state every this many steps (1 = all).
        energy_probe_every: When positive *and* tracing is enabled, sample
            the Hamiltonian every this many integration steps and emit a
            ``circuit.energy_probe`` trace event — the energy-descent /
            polarization observable of the Fig. 4 circuit validation.
            ``0`` (default) disables the probe; with tracing off it costs
            nothing either way.
        divergence_check_every: When positive, verify the state is finite
            every this many integration steps and raise
            :class:`~repro.faults.resilience.DivergenceError` (with a
            ``circuit.divergence`` trace event) instead of returning a
            garbage trajectory.  ``0`` (default) disables the guard —
            the polarization analysis runs unrailed and must be allowed
            to observe divergence.
        adaptive: The step policy of the integration loop.  ``False``
            (default) takes ``round(duration / dt)`` steps of exactly
            ``dt`` (at least one).  ``True`` treats ``dt`` as the
            *initial* step and adjusts it per step from an embedded
            error estimate — a Heun/Euler pair for ``method="euler"``,
            step-doubling for ``method="rk4"`` — under a PI step-size
            controller.  A step whose error exceeds
            ``atol + rtol * |sigma|`` is rejected and retried smaller
            (counted in the ``circuit.rejected_steps`` metric).
        rtol: Relative local-error tolerance of the adaptive controller.
        atol: Absolute local-error tolerance (same units as ``sigma``).
        dt_min: Smallest step the controller may take; a rejection at
            ``dt_min`` is accepted anyway (progress beats stalling;
            railed dynamics cannot blow up).  ``None`` means ``dt/1000``.
        dt_max: Largest step the controller may take.  ``None`` means
            ``100 * dt`` (never exceeding the run duration).
        early_exit: Per-member settling freeze-out for ``run`` /
            ``run_batch``, under either step policy.  Every
            ``settle_check_every`` accepted steps, a batch member whose
            state moved less than ``settle_tolerance`` (infinity norm,
            same criterion as :meth:`Trajectory.settled`) over
            ``settle_patience`` consecutive check windows is *frozen*:
            it leaves the active batch (so it stops costing matvecs —
            the batch shrinks) and holds its state for the rest of the
            run.  The step that freezes the last member is recorded and
            ends the run.  Until a member freezes, the run steps exactly
            as with ``early_exit=False``.
        settle_tolerance: Infinity-norm state-change threshold (in state
            units) under which a member counts as settled.
        settle_check_every: Integration steps between settling checks.
        settle_patience: Consecutive under-tolerance check windows
            required before a member freezes.
    """

    dt: float = 0.1
    capacitance: float = DEFAULT_CAPACITANCE
    rail: float | None = 1.0
    method: str = "euler"
    node_noise_std: float = 0.0
    coupling_noise_std: float = 0.0
    record_every: int = 1
    energy_probe_every: int = 0
    divergence_check_every: int = 0
    adaptive: bool = False
    rtol: float = 1e-4
    atol: float = 1e-6
    dt_min: float | None = None
    dt_max: float | None = None
    early_exit: bool = False
    settle_tolerance: float = 1e-3
    settle_check_every: int = 10
    settle_patience: int = 2

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.capacitance <= 0:
            raise ValueError(f"capacitance must be positive, got {self.capacitance}")
        if self.method not in ("euler", "rk4"):
            raise ValueError(f"unknown integration method {self.method!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.node_noise_std < 0 or self.coupling_noise_std < 0:
            raise ValueError("noise standard deviations must be non-negative")
        if self.energy_probe_every < 0:
            raise ValueError("energy_probe_every must be >= 0")
        if self.divergence_check_every < 0:
            raise ValueError("divergence_check_every must be >= 0")
        if self.rtol <= 0:
            raise ValueError(f"rtol must be positive, got {self.rtol}")
        if self.atol <= 0:
            raise ValueError(f"atol must be positive, got {self.atol}")
        if self.dt_min is not None and self.dt_min <= 0:
            raise ValueError(f"dt_min must be positive, got {self.dt_min}")
        if self.dt_max is not None and self.dt_max <= 0:
            raise ValueError(f"dt_max must be positive, got {self.dt_max}")
        if (
            self.dt_min is not None
            and self.dt_max is not None
            and self.dt_min > self.dt_max
        ):
            raise ValueError(
                f"dt_min ({self.dt_min}) must not exceed dt_max "
                f"({self.dt_max})"
            )
        if self.settle_tolerance <= 0:
            raise ValueError(
                f"settle_tolerance must be positive, got "
                f"{self.settle_tolerance}"
            )
        if self.settle_check_every < 1:
            raise ValueError("settle_check_every must be >= 1")
        if self.settle_patience < 1:
            raise ValueError("settle_patience must be >= 1")

    def resolved_dt_min(self) -> float:
        """The effective smallest adaptive step (``dt/1000`` by default)."""
        return self.dt / 1000.0 if self.dt_min is None else self.dt_min

    def resolved_dt_max(self, duration: float) -> float:
        """The effective largest adaptive step, capped by the run length."""
        dt_max = 100.0 * self.dt if self.dt_max is None else self.dt_max
        return min(dt_max, duration)


@dataclass
class Trajectory:
    """Recorded evolution of a simulated annealing run.

    Attributes:
        times: ``(T,)`` simulated times in nanoseconds.
        states: ``(T, n)`` node voltages at each recorded time.
        energies: ``(T,)`` Hamiltonian values at each recorded time.
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray

    @property
    def final_state(self) -> np.ndarray:
        """Node voltages at the end of the run."""
        return self.states[-1]

    @property
    def final_energy(self) -> float:
        """Hamiltonian value at the end of the run."""
        return float(self.energies[-1])

    def settle_time(
        self,
        tolerance: float = 1e-3,
        rate_tolerance: float | None = None,
    ) -> float:
        """First recorded time after which the state stays within
        ``tolerance`` (infinity norm) of the final state.

        Mirrors how annealing latency is read off circuit waveforms.

        Args:
            tolerance: Deviation band around the final state, in the
                state's physical units (volts on the circuit).
            rate_tolerance: Optional *times-aligned* criterion in
                physical units per nanosecond (volts/ns): instead of the
                absolute band, a sample counts as settled when the state
                moved slower than ``rate_tolerance`` since the previous
                recorded sample.  Dividing by the actual inter-sample
                gap makes the criterion independent of the recording
                cadence — essential for adaptive-step trajectories,
                whose ``times`` are non-uniform.  When given, it
                replaces ``tolerance``.

        Never-settled sentinel (the single authoritative statement —
        :meth:`settled` and :meth:`BatchTrajectory.settled_fraction`
        apply the same rule): the final sample trivially matches itself,
        so a trajectory that oscillates until the very last sample
        "settles" only there, and the full recorded duration
        ``times[-1]`` is returned.  A return value equal to
        ``times[-1]`` therefore means the state did **not** hold the
        band before the end of the run; use :meth:`settled` to test for
        that case explicitly.
        """
        if rate_tolerance is not None:
            if rate_tolerance <= 0:
                raise ValueError(
                    f"rate_tolerance must be positive, got {rate_tolerance}"
                )
            gaps = np.diff(self.times)
            gaps = np.where(gaps > 0, gaps, 1.0)
            moved = np.max(np.abs(np.diff(self.states, axis=0)), axis=1)
            settled = np.concatenate([[False], moved / gaps <= rate_tolerance])
        else:
            final = self.states[-1]
            deviations = np.max(np.abs(self.states - final), axis=1)
            settled = deviations <= tolerance
        # Find the earliest index from which everything stays settled.
        not_settled = np.where(~settled)[0]
        if not_settled.size == 0:
            return float(self.times[0])
        first = not_settled[-1] + 1
        if first >= len(self.times):
            return float(self.times[-1])
        return float(self.times[first])

    def settled(
        self,
        tolerance: float = 1e-3,
        rate_tolerance: float | None = None,
    ) -> bool:
        """Whether the state reached (and held) the tolerance band around
        the final state strictly before the last recorded sample.

        Parameters match :meth:`settle_time`, whose docstring also holds
        the authoritative description of the never-settled sentinel:
        ``False`` here means :meth:`settle_time` returned ``times[-1]``
        only because the run ended, not because the trajectory converged.
        """
        if len(self.times) < 2:
            return True
        return self.settle_time(tolerance, rate_tolerance) < float(
            self.times[-1]
        )


@dataclass
class BatchTrajectory:
    """Recorded evolution of a batch of simultaneously integrated runs.

    Attributes:
        times: ``(T,)`` simulated times in nanoseconds (shared).
        states: ``(T, batch, n)`` node voltages at each recorded time.
        energies: ``(T, batch)`` per-sample Hamiltonian values.
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray

    @property
    def batch_size(self) -> int:
        """Number of trajectories integrated together."""
        return self.states.shape[1]

    @property
    def final_states(self) -> np.ndarray:
        """``(batch, n)`` node voltages at the end of the run."""
        return self.states[-1]

    @property
    def final_energies(self) -> np.ndarray:
        """``(batch,)`` Hamiltonian values at the end of the run."""
        return self.energies[-1]

    def sample(self, index: int) -> Trajectory:
        """The :class:`Trajectory` of one batch member."""
        return Trajectory(
            times=self.times,
            states=self.states[:, index, :],
            energies=self.energies[:, index],
        )

    def settled_fraction(self, tolerance: float = 1e-3) -> float:
        """Fraction of batch members that settled before the run ended.

        A member counts as settled under the same criterion as
        :meth:`Trajectory.settled` (whose :meth:`~Trajectory.settle_time`
        docstring holds the never-settled sentinel description): its
        state reached, and held, the ``tolerance`` band around its final
        state strictly before the last recorded sample.
        """
        if self.batch_size == 0 or len(self.times) < 2:
            return 1.0
        # Per sample, `settled` reduces to the deviation at the
        # second-to-last recorded state: the last one trivially matches
        # itself, and settle_time only looks at the final non-settled
        # index.  One vectorized comparison replaces batch_size
        # per-sample Trajectory constructions (this runs on the
        # instrumented run_batch boundary, so it must stay cheap).
        deviations = np.max(np.abs(self.states[-2] - self.states[-1]), axis=1)
        return float(np.mean(deviations <= tolerance))


def fixed_step_count(duration: float, dt: float) -> int:
    """Steps the fixed-``dt`` policy takes over ``duration`` (at least one).

    The single statement of the rule: the shared-memory result slabs of
    :mod:`repro.parallel.circuit` size themselves from it too.
    """
    return max(1, int(round(duration / dt)))


def free_drift(drift, free: np.ndarray, sigma: np.ndarray):
    """``drift`` as the integration loop calls it for one run: the
    ``(m, batch)`` block of the ``m`` sorted ``free`` nodes' values in,
    their currents out in the same layout.

    ``sigma`` is the run's ``(batch, n)`` starting state, its clamped
    columns (the nodes not in ``free``) already written; they hold those
    values for the whole run.  A drift made by
    :meth:`~repro.core.operators.CouplingOperator._rows_drift` is bound to
    them: the block is its CSR kernel's input, and its leading clamped CSR
    entries are folded into a per-member prefix.  Every other drift takes
    full ``(batch, n)`` states and returns all ``n`` currents;
    :class:`_StateDrift` adapts it.  Both results have a ``select`` method
    that :meth:`CircuitSimulator._integrate` calls to keep the surviving
    members when the early-exit freeze-out shrinks the batch.
    """
    if hasattr(drift, "bind"):
        return drift.bind(sigma, free)
    return _StateDrift(drift, sigma, free)


class _StateDrift:
    """A drift of full ``(batch, n)`` states, called with the ``(m,
    batch)`` free block.

    It holds a C-contiguous copy of the run's state, whose clamped columns
    never change.  Each call writes the block into the free columns and
    hands the drift that state, so the drift sees the values and the
    layout the full-width loop gave it.  The free nodes' currents come
    back as an ``(m, batch)`` view of the drift's result.  Its block is
    Fortran-ordered, the transpose of the state's free columns, so
    neither the write nor the returned view transposes memory.
    """

    #: Memory order of the block this drift takes.
    order = "F"

    def __init__(self, drift, sigma: np.ndarray, free: np.ndarray):
        self._drift = drift
        self._state = np.array(sigma, order="C")
        self._cols = node_columns(free)

    def __call__(self, block: np.ndarray) -> np.ndarray:
        self._state[:, self._cols] = block.T
        return np.asarray(self._drift(self._state))[:, self._cols].T

    def select(self, members) -> "_StateDrift":
        """This drift for the batch members ``members`` alone."""
        narrowed = copy.copy(self)
        narrowed._state = self._state[members]
        return narrowed


def check_node_index(index: np.ndarray, n: int, name: str) -> np.ndarray:
    """Reject node indices outside ``[0, n)`` or repeated, and return the
    ``(n,)`` mask of the indexed nodes.

    ``-1`` would address the last node, and a repeated clamp index would
    silently keep only its last value.
    """
    if index.size and (index.min() < 0 or index.max() >= n):
        raise ValueError(f"{name} out of range")
    mask = np.zeros(n, dtype=bool)
    mask[index] = True
    if np.count_nonzero(mask) != index.size:
        raise ValueError(f"{name} contains duplicates")
    return mask


def free_nodes(n: int, clamped: np.ndarray) -> np.ndarray:
    """The nodes of ``range(n)`` not in ``clamped``, ascending, as
    ``np.setdiff1d(np.arange(n), clamped)`` returns them."""
    free = np.ones(n, dtype=bool)
    free[clamped] = False
    return np.flatnonzero(free)


@dataclass
class CircuitSimulator:
    """Explicit integrator of the DSPU / BRIM node ODEs.

    The simulator advances ``sigma`` under a *drift function* supplied by the
    machine model (Real-Valued DSPU and BRIM differ only in their drift), and
    handles clamping, rails, and noise uniformly.  :meth:`run` integrates a
    single ``(n,)`` state; :meth:`run_batch` integrates a ``(batch, n)``
    state matrix in one vectorized loop — both share the same core, so the
    per-step semantics (free-node advance, noise injection, rail
    saturation, RK4 stage projection) are identical.

    Attributes:
        config: Integration settings.
        rng: Source of randomness for noise injection; a fixed seed makes
            runs reproducible.
        faults: Device fault scenario injected into every run.  A node
            stuck at a rail is physically a driven capacitor, so stuck
            nodes are folded into the clamp set (overriding an observed
            clamp on the same node) — the hot loop itself is untouched,
            and the default :data:`~repro.faults.NO_FAULTS` scenario is
            bit-for-bit invisible.  Coupler faults act on the coupling
            matrix and are therefore applied by the caller that owns it
            (see :class:`~repro.core.inference.NaturalAnnealingEngine`).
    """

    config: IntegrationConfig = field(default_factory=IntegrationConfig)
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )
    faults: FaultScenario | NullFaultScenario = NO_FAULTS

    def run(
        self,
        drift,
        sigma0: np.ndarray,
        duration: float,
        clamp_index: np.ndarray | None = None,
        clamp_value: np.ndarray | None = None,
        energy=None,
    ) -> Trajectory:
        """Integrate ``C dsigma/dt = drift(sigma)`` for ``duration`` ns.

        Args:
            drift: Callable ``sigma -> dsigma`` returning the total current
                into each node (before division by ``C``).
            sigma0: Initial node voltages, shape ``(n,)``.
            duration: Total simulated time in nanoseconds.
            clamp_index: Indices of observed nodes held at fixed voltage.
            clamp_value: Voltages of the clamped nodes.
            energy: Optional callable ``sigma -> float`` recorded alongside
                the trajectory; defaults to zeros when omitted.

        Returns:
            The recorded :class:`Trajectory`.
        """
        sigma = np.array(sigma0, dtype=float).reshape(-1)
        n = sigma.shape[0]
        clamp_index, clamp_value = self._check_clamps(n, clamp_index, clamp_value)
        clamp_index, clamp_value = self._with_stuck(clamp_index, clamp_value)
        sigma[clamp_index] = clamp_value
        free = free_nodes(n, clamp_index)
        single = drift
        if hasattr(single, "bind"):
            drift_batch = single  # a rows drift takes state batches too
        else:
            def drift_batch(states: np.ndarray) -> np.ndarray:
                return np.asarray(single(states[0]))[None, :]

        sigma = sigma[None, :]
        drift = free_drift(drift_batch, free, sigma)
        energy_batch = None
        if energy is not None:
            def energy_batch(states: np.ndarray) -> np.ndarray:
                return np.asarray([float(energy(states[0]))])

        with obs.tracer().span(
            "circuit.run", n=n, method=self.config.method
        ) as span:
            with obs.metrics().timer("circuit.run_ms"):
                times, states, energies, stats = self._integrate(
                    drift, sigma, duration, free, energy_batch
                )
            trajectory = Trajectory(
                times=times, states=states[:, 0, :], energies=energies[:, 0]
            )
            if obs.enabled():
                self._observe_run(span, duration, 1, stats, drift)
                span.set("settled", bool(trajectory.settled()))
        return trajectory

    def run_batch(
        self,
        drift,
        sigma0: np.ndarray,
        duration: float,
        clamp_index: np.ndarray | None = None,
        clamp_value: np.ndarray | None = None,
        energy=None,
        *,
        workers: int | None = None,
        shards: int | None = None,
        root_seed: int = 0,
    ) -> BatchTrajectory:
        """Integrate a ``(batch, n)`` state matrix in one vectorized loop.

        Every integration step performs a single batched drift evaluation
        (one coupling matvec shared by the whole batch — see
        :meth:`repro.core.operators.CouplingOperator.drift`), so
        multi-sample inference, noise-robustness sweeps, and random-restart
        annealing cost roughly one trajectory.

        Args:
            drift: Callable ``(batch, n) -> (batch, n)`` evaluating the
                drift of each batch member.
            sigma0: Initial node voltages, shape ``(batch, n)``.
            duration: Total simulated time in nanoseconds.
            clamp_index: Indices of observed nodes held at fixed voltage
                (shared across the batch).
            clamp_value: Clamped voltages — either ``(k,)`` shared by every
                sample or ``(batch, k)`` per-sample.
            energy: Optional callable ``(batch, n) -> (batch,)`` recorded
                alongside the trajectory; defaults to zeros when omitted.
            workers: ``None`` (default) integrates the whole batch jointly
                in this process — the legacy path, bit-for-bit unchanged.
                Any integer engages the sharded path of
                :func:`repro.parallel.run_batch_sharded`: the batch splits
                into ``shards`` slices whose noise streams derive from
                ``(root_seed, shard_index)``, executed on ``workers``
                processes.  Sharded results are identical for every
                ``workers`` value (including 1) but differ from the legacy
                path when noise is enabled, because the legacy path draws
                noise over the whole batch jointly.  ``drift`` and
                ``energy`` must be picklable in sharded mode.
            shards / root_seed: Sharded-mode decomposition and seed root;
                ignored when ``workers`` is ``None``.

        Returns:
            The recorded :class:`BatchTrajectory`.
        """
        if workers is not None:
            from ..parallel.circuit import run_batch_sharded

            return run_batch_sharded(
                self, drift, sigma0, duration,
                clamp_index=clamp_index, clamp_value=clamp_value,
                energy=energy, root_seed=root_seed, workers=workers,
                shards=shards,
            )
        return self._run_batch(
            drift, sigma0, duration, clamp_index, clamp_value, energy
        )

    def _run_batch(
        self,
        drift,
        sigma0: np.ndarray,
        duration: float,
        clamp_index: np.ndarray | None,
        clamp_value: np.ndarray | None,
        energy,
        tail: int | None = None,
    ) -> BatchTrajectory:
        """:meth:`run_batch` in this process.

        ``tail`` is passed to :meth:`_integrate`.
        """
        sigma = np.array(sigma0, dtype=float)
        if sigma.ndim != 2:
            raise ValueError(
                f"sigma0 must be a (batch, n) matrix, got shape {sigma.shape}"
            )
        batch, n = sigma.shape
        clamp_index, clamp_value = self._check_clamps(
            n, clamp_index, clamp_value, batch=batch
        )
        clamp_index, clamp_value = self._with_stuck(clamp_index, clamp_value)
        sigma[:, clamp_index] = clamp_value
        free = free_nodes(n, clamp_index)
        with obs.tracer().span(
            "circuit.run_batch", batch=batch, n=n, method=self.config.method
        ) as span:
            with obs.metrics().timer("circuit.run_batch_ms"):
                drift = free_drift(drift, free, sigma)
                times, states, energies, stats = self._integrate(
                    drift, sigma, duration, free, energy, tail=tail
                )
            trajectory = BatchTrajectory(
                times=times, states=states, energies=energies
            )
            if obs.enabled():
                self._observe_run(span, duration, batch, stats, drift)
                fraction = trajectory.settled_fraction()
                obs.metrics().gauge("circuit.settled_fraction").set(fraction)
                span.set("settled_fraction", fraction)
        return trajectory

    def _observe_run(
        self, span, duration: float, batch: int, stats: dict, drift
    ) -> None:
        """Record the per-run counters shared by :meth:`run`/:meth:`run_batch`.

        ``drift`` is the run's drift as :func:`free_drift` bound it.
        """
        steps = stats["steps"]
        registry = obs.metrics()
        registry.counter("circuit.runs").inc()
        registry.counter("circuit.steps").inc(steps)
        registry.counter("circuit.samples").inc(batch)
        span.set("steps", steps)
        span.set("duration_ns", float(duration))
        span.set("free_nodes", stats["free_nodes"])
        if stats["rail_clips"] is not None:
            registry.counter("circuit.rail_clips").inc(stats["rail_clips"])
            span.set("rail_clips", stats["rail_clips"])
        folded = getattr(drift, "folded_entries", None)
        if folded is not None:
            # CSR entries each step multiplies, and those folded into the
            # constant clamped drive (see CouplingOperator._rows_drift).
            registry.counter("circuit.drift_entries").inc(drift.drift_entries)
            registry.counter("circuit.folded_entries").inc(folded)
            span.set("drift_entries", drift.drift_entries)
            span.set("folded_entries", folded)
        # Adaptive / early-exit telemetry: the step-count, rejected-step,
        # and freeze-out counters the tune CLI and `repro obs summarize`
        # derive schedule efficiency from.  Zero-valued entries are not
        # recorded so fixed-schedule traces are unchanged.
        if stats["rejected_steps"]:
            registry.counter("circuit.rejected_steps").inc(
                stats["rejected_steps"]
            )
            span.set("rejected_steps", stats["rejected_steps"])
        if self.config.adaptive or self.config.early_exit:
            registry.counter("circuit.member_steps").inc(
                stats["member_steps"]
            )
        if stats["frozen_members"]:
            registry.counter("circuit.frozen_members").inc(
                stats["frozen_members"]
            )
            span.set("frozen_members", stats["frozen_members"])
        if stats["exited_early"]:
            registry.counter("circuit.early_exits").inc()
            span.set("early_exit_t_ns", stats["final_time"])
        logger.debug(
            "circuit run: batch=%d steps=%d duration=%.1fns method=%s",
            batch, steps, duration, self.config.method,
        )

    def _with_stuck(
        self, clamp_index: np.ndarray, clamp_value: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fold stuck-at-rail fault nodes into the clamp set.

        A stuck node is a capacitor driven to a rail by the defect, so it
        behaves exactly like an (involuntarily) observed node; a stuck
        node that is also deliberately clamped is overridden — hardware
        faults beat intent.  With :data:`~repro.faults.NO_FAULTS` this
        returns the inputs unchanged.
        """
        stuck = self.faults.stuck_index
        if not stuck.size:
            return clamp_index, clamp_value
        rail = self.config.rail if self.config.rail is not None else 1.0
        stuck_value = self.faults.stuck_values(rail)
        keep = ~np.isin(clamp_index, stuck)
        merged_index = np.concatenate([clamp_index[keep], stuck])
        if clamp_value.ndim == 2:
            tiled = np.broadcast_to(
                stuck_value, (clamp_value.shape[0], stuck.size)
            )
            merged_value = np.concatenate(
                [clamp_value[:, keep], tiled], axis=1
            )
        else:
            merged_value = np.concatenate([clamp_value[keep], stuck_value])
        if obs.enabled():
            obs.metrics().counter("faults.stuck_clamps").inc(int(stuck.size))
            obs.tracer().event(
                "faults.injected", where="circuit", **self.faults.summary()
            )
        return merged_index, merged_value

    # ------------------------------------------------------------------
    # Shared integration core
    # ------------------------------------------------------------------
    @staticmethod
    def _check_clamps(
        n: int,
        clamp_index: np.ndarray | None,
        clamp_value: np.ndarray | None,
        batch: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate clamp arrays; supports shared and per-sample values."""
        if (clamp_index is None) != (clamp_value is None):
            # Catch the half-specified pair up front: np.asarray(None)
            # would otherwise produce a NaN 0-d array and a misleading
            # shape error (or, for a single clamp, a silent NaN clamp).
            raise ValueError(
                "clamp_index and clamp_value must be given together "
                f"(got clamp_index={'set' if clamp_index is not None else None}, "
                f"clamp_value={'set' if clamp_value is not None else None})"
            )
        if clamp_index is None:
            clamp_index = np.zeros(0, dtype=int)
            clamp_value = np.zeros(0)
        clamp_index = np.asarray(clamp_index, dtype=int).reshape(-1)
        clamp_value = np.asarray(clamp_value, dtype=float)
        if batch is not None and clamp_value.ndim == 2:
            if clamp_value.shape != (batch, clamp_index.size):
                raise ValueError(
                    "per-sample clamp_value must be (batch, k), got "
                    f"{clamp_value.shape}"
                )
        else:
            clamp_value = clamp_value.reshape(-1)
            if clamp_index.shape != clamp_value.shape:
                raise ValueError(
                    "clamp_index and clamp_value must have equal shapes"
                )
        check_node_index(clamp_index, n, "clamp_index")
        return clamp_index, clamp_value

    def _integrate(
        self,
        drift,
        sigma: np.ndarray,
        duration: float,
        free: np.ndarray,
        energy,
        tail: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        """Vectorized Euler/RK4 loop over a ``(batch, n)`` state matrix.

        ``sigma`` arrives with its clamped columns (observed and stuck
        nodes) already written; ``free`` lists the other ``m``, sorted.
        The loop integrates only the free nodes, carried as one ``(m,
        active)`` *block*.  ``drift`` maps a block to the free nodes'
        currents in that layout, bound to this run by :func:`free_drift`.
        A bound CSR rows drift takes the block as its kernel input, so the
        block is C-contiguous, the layout scipy's CSR kernel reads and
        writes, and it carries the clamped nodes' constant drive as a
        per-member prefix.  Every other drift gets the block written into
        a full state it holds, and takes it in Fortran order, the layout
        of that state's free columns.  When the freeze-out shrinks the
        batch, the loop keeps the survivors' columns of the block and of
        the drift (its ``select``).  Each accepted step advances the block
        by the drift, adds node noise and clips it to the rail.  RK4 and
        adaptive stages are clipped blocks passed to the drift as they
        are.

        Full ``(batch, n)`` states are built only where something reads
        them: the kept frames after the loop, the energy probe, and the
        divergence guard's error path.  Each is ``sigma`` with the active
        members' free columns taken from the block.  A member that freezes
        has its block written into ``sigma`` once, and the clamped columns
        are never written again.  So a frame is kept as its time, block
        and active set, a view of nothing that changes later, and no step
        copies a state.

        This computes the bits of the loop that advanced all ``n`` columns
        and re-asserted the clamps after every step and stage:

        * every free entry goes through the same IEEE operations in the
          same order, and a clamped entry's only value is its clamp;
          elementwise arithmetic does not depend on the layout;
        * the noise is added and the rail clip runs in place, on arrays
          the step itself allocated, never on one a drift returned;
        * noise is drawn at the full ``(active, n)`` shape and then
          sliced, so the random stream does not move;
        * clamped columns never move, so the settling movement and the
          adaptive error need only the free block, and a bound drift's
          prefix stays valid for the whole run;
        * a member whose clamps or block are not finite never freezes
          (``|c - c|`` is NaN for such a clamp, and a NaN or infinite move
          is never under the tolerance); so a frozen member is finite, a
          state is finite exactly when its clamps and its active block
          are, and the divergence guard raises at the same step with the
          same count.  (The old loop's adaptive error also read a clamped
          node's own drift, which a non-finite clamp can make NaN; with
          such a clamp an adaptive run takes other steps here.)

        ``tests/core/test_free_node_integration.py`` pins this against the
        full-width loop byte for byte, and
        ``tests/core/test_clamped_prefix.py`` pins the bound drift.

        Two settings of the config shape the run:

        * the step policy: :func:`fixed_step_count` steps of ``dt``, or
          (``adaptive``) a PI-controlled step that rejects and retries a
          trial whose embedded error estimate exceeds the tolerance.  The
          batch shares one step size that follows the *worst* member's
          error, so every step stays one batched drift evaluation;
        * the freeze-out (``early_exit``): a member whose state stopped
          moving leaves the active set, so later steps run on a narrower
          block, and holds its state.  The run ends at the step that
          freezes the last member.

        The initial state and every ``record_every``-th step (plus the last
        one) are recorded; ``tail`` keeps only the last ``tail`` of those
        frames, and ``None`` keeps them all.  ``energy`` is evaluated once
        per kept frame, after the loop.
        Returns ``(times, states, energies, stats)``; ``stats`` carries the
        step, rejection, freeze-out and rail-clip counts of
        :meth:`_observe_run`.
        """
        cfg = self.config
        batch, n = sigma.shape
        cols = node_columns(free)

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
        # A clamp moves by |c - c|, which is NaN when c is not finite, so a
        # member with such a clamp never freezes.
        finite_clamps = np.isfinite(np.delete(sigma, free, axis=1)).all(axis=1)
        clamps_finite = bool(finite_clamps.all())
        count_clips = obs.metrics().enabled and cfg.rail is not None
        rail_clips = 0
        inv_c = 1.0 / cfg.capacitance
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

        def full(block: np.ndarray, members: np.ndarray) -> np.ndarray:
            """The ``(batch, n)`` state whose ``members`` hold ``block``."""
            state = sigma.copy()
            if members.size == batch:
                state[:, cols] = block.T
            else:
                state[np.ix_(members, free)] = block.T
            return state

        active = np.arange(batch)
        streak = np.zeros(batch, dtype=int)
        # Every block the loop makes is a new array that nothing writes
        # into afterwards, so frames and the settling reference keep it.
        # Elementwise arithmetic keeps its operands' memory order, the one
        # the drift takes.
        block = sigma[:, cols].T.copy(order=drift.order)
        reference = block
        # (time, block, active) triples; a bounded deque drops the oldest.
        frames = deque([(0.0, block, active)], maxlen=tail)
        step = rejected = member_steps = frozen_members = 0
        t = 0.0
        exited = False
        # A zero-length adaptive run takes no step; a fixed one takes one.
        done = cfg.adaptive and not t < horizon
        while not done:
            if cfg.adaptive:
                dt = min(dt, duration - t)
                proposal, err = self._adaptive_trial(drift, block, dt, inv_c)
                if err > 1.0 and dt > dt_min * (1.0 + 1e-9):
                    rejected += 1
                    shrink = max(fac_min, safety * err ** (-1.0 / order))
                    dt = max(dt_min, dt * min(shrink, 1.0))
                    continue
            elif cfg.method == "euler":
                proposal = block + dt * inv_c * drift(block)
            else:
                proposal = self._rk4(drift, block, dt, inv_c)
            if cfg.node_noise_std > 0:
                # Thermal/shot noise enters through the same capacitor the
                # signal does, so it accumulates per step like the drift.
                # The clamped capacitors are driven, so noise cannot
                # displace them; it is still drawn for them, which keeps
                # the random stream of a full-width draw.
                noise = self.rng.normal(
                    0.0, noise_scale * np.sqrt(dt), size=(active.size, n)
                )
                proposal += noise[:, cols].T
            if count_clips:
                rail_clips += int(
                    np.count_nonzero(np.abs(proposal) > cfg.rail)
                )
            block = self._project(proposal)
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
                if not (clamps_finite and np.isfinite(block).all()):
                    check_finite(full(block, active), "circuit", step, t)
            if probe_every and (step % probe_every == 0 or done):
                values = np.asarray(energy(full(block, active)), dtype=float)
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
                moved = np.max(np.abs(block - reference), axis=0, initial=0.0)
                under = moved <= cfg.settle_tolerance
                if not clamps_finite:
                    under &= finite_clamps[active]
                streak[active] = np.where(under, streak[active] + 1, 0)
                keep = streak[active] < cfg.settle_patience
                if not keep.all():
                    frozen = ~keep
                    frozen_members += int(np.count_nonzero(frozen))
                    sigma[np.ix_(active[frozen], free)] = block[:, frozen].T
                    active = active[keep]
                    block = block[:, keep].copy(order=drift.order)
                    drift = drift.select(keep)
                reference = block
            exited = cfg.early_exit and active.size == 0
            if step % cfg.record_every == 0 or done or exited:
                frames.append((t, block, active))
            done = done or exited

        times = np.asarray([when for when, _, _ in frames])
        states = np.asarray([full(kept, members) for _, kept, members in frames])
        if energy is None:
            energies = np.zeros((times.size, batch))
        else:
            energies = np.asarray(
                [np.asarray(energy(state), dtype=float) for state in states]
            )
        stats = {
            "steps": step,
            "rejected_steps": rejected,
            "member_steps": member_steps,
            "frozen_members": frozen_members,
            "exited_early": exited,
            "final_time": float(times[-1]),
            "free_nodes": int(free.size),
            "rail_clips": rail_clips if obs.metrics().enabled else None,
        }
        return times, states, energies, stats

    def _rk4(self, drift, block, h, inv_c) -> np.ndarray:
        """One classical RK4 step of size ``h`` from the free ``block``.
        Every intermediate stage is rail-clipped; the returned block is
        not."""
        k1 = drift(block)
        k2 = drift(self._project(block + 0.5 * h * inv_c * k1))
        k3 = drift(self._project(block + 0.5 * h * inv_c * k2))
        k4 = drift(self._project(block + h * inv_c * k3))
        return block + h * inv_c * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0

    def _adaptive_trial(self, drift, block, dt, inv_c) -> tuple[np.ndarray, float]:
        """One trial step of the embedded pair at step size ``dt``.

        Returns ``(proposal, err)`` where ``proposal`` is the higher-order
        free block *before* noise injection and the rail clip and ``err``
        is the worst member's scaled local-error estimate over the free
        nodes (``<= 1`` accepts).  ``method="euler"`` uses the Heun/Euler
        embedded pair (advance 2nd order, estimate 1st); ``method="rk4"``
        uses step-doubling (advance with two half steps, estimate from the
        full-step difference).  Clamped nodes carry no error: the loop
        never moves them.
        """
        cfg = self.config
        if cfg.method == "euler":
            k1 = drift(block)
            euler = block + dt * inv_c * k1
            k2 = drift(self._project(euler.copy(order="K")))
            proposal = block + 0.5 * dt * inv_c * (k1 + k2)
            err_vec = proposal - euler
        else:
            coarse = self._rk4(drift, block, dt, inv_c)
            half = self._project(self._rk4(drift, block, 0.5 * dt, inv_c))
            proposal = self._rk4(drift, half, 0.5 * dt, inv_c)
            err_vec = proposal - coarse
        scale = cfg.atol + cfg.rtol * np.maximum(
            np.abs(block), np.abs(proposal)
        )
        ratio = np.abs(err_vec) / scale
        return proposal, float(ratio.max()) if ratio.size else 0.0

    def _project(self, block: np.ndarray) -> np.ndarray:
        """Clip a free block the loop allocated to the voltage rails, in
        place, and return it (a no-op without rails).  ``ndarray.clip`` is
        the ufunc behind ``np.clip``."""
        rail = self.config.rail
        if rail is not None:
            block.clip(-rail, rail, out=block)
        return block

    def perturbed_coupling(self, J: np.ndarray) -> np.ndarray:
        """Sample a noisy coupling matrix (Sec. V.G coupler noise).

        Multiplicative Gaussian noise with standard deviation
        ``coupling_noise_std`` relative to each conductance, applied
        symmetrically (the two ends of a resistor ring see the same device).
        The result keeps the coupling-matrix invariants: it is exactly
        symmetric and has a zero diagonal.
        """
        std = self.config.coupling_noise_std
        if std <= 0:
            return J
        n = J.shape[0]
        factor = self.rng.normal(1.0, std, size=(n, n))
        factor = (factor + factor.T) / 2.0
        noisy = J * factor
        np.fill_diagonal(noisy, 0.0)
        return noisy
