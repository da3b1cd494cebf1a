"""Resilience policies: divergence guarding and random restarts.

Fault-perturbed dynamics can lose the convexity the trained system
guarantees — a duty-boosted phase with a drifted coupler may grow instead
of contract, and an unrailed integration can overflow to ``inf``/``NaN``.
Two policies turn those silent-garbage modes into recoverable events:

* :class:`DivergenceError` + the integrator's ``divergence_check_every``
  guard (see :class:`repro.core.dynamics.IntegrationConfig`): mid-run
  NaN/overflow raises a diagnostic error carrying the step and simulated
  time, and emits a ``circuit.divergence`` trace event, instead of
  returning a garbage trajectory.
* :class:`RestartPolicy`: anneals ``K`` random restarts of one inference
  in a single batched integration (reusing
  :meth:`~repro.core.inference.NaturalAnnealingEngine.infer_batch`, so
  the K restarts share every coupling matvec), selects the best-energy
  survivor, and retries with fresh initializations when a whole batch
  diverges.  Recovery statistics flow through :mod:`repro.obs` counters
  (``faults.restart_*``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .. import obs

__all__ = [
    "DivergenceError",
    "RestartOutcome",
    "RestartPolicy",
    "check_finite",
]

logger = logging.getLogger("repro.faults")


class DivergenceError(RuntimeError):
    """An annealing run produced non-finite state mid-integration.

    Attributes:
        step: Integration step (or control interval) at which divergence
            was detected.
        time_ns: Simulated time of the detection.
        bad_nodes: Number of non-finite state entries.
        where: Which integration path detected it.
    """

    def __init__(
        self, where: str, step: int, time_ns: float, bad_nodes: int
    ):
        self.where = where
        self.step = step
        self.time_ns = float(time_ns)
        self.bad_nodes = int(bad_nodes)
        super().__init__(
            f"{where}: state diverged (NaN/overflow) at step {step} "
            f"(t={time_ns:.1f} ns, {bad_nodes} non-finite entries); "
            "the dynamics are non-contractive — check fault/noise levels "
            "or enable a resilience policy"
        )

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # message) through ``__init__``, which takes four fields — so a
        # DivergenceError raised inside a worker process would fail to
        # unpickle in the parent.  Reconstruct from the fields instead.
        return (
            DivergenceError,
            (self.where, self.step, self.time_ns, self.bad_nodes),
        )


def check_finite(
    sigma: np.ndarray, where: str, step: int, time_ns: float
) -> None:
    """Raise :class:`DivergenceError` (with a trace event) on bad state.

    The observability side effects fire before the raise so the trace
    tells the story even when the caller swallows the error (the restart
    policy does exactly that).
    """
    if np.isfinite(sigma).all():
        return
    bad = int(np.size(sigma) - np.count_nonzero(np.isfinite(sigma)))
    obs.metrics().counter("faults.divergence_errors").inc()
    obs.tracer().event(
        "circuit.divergence",
        where=where,
        step=step,
        t_ns=float(time_ns),
        bad_nodes=bad,
    )
    logger.warning(
        "%s diverged at step %d (t=%.1f ns, %d non-finite entries)",
        where, step, time_ns, bad,
    )
    raise DivergenceError(where, step, time_ns, bad)


@dataclass
class RestartOutcome:
    """Result of a random-restart inference.

    Attributes:
        prediction: Denormalized free-node values of the winner.
        state: Full final node-voltage vector of the winner.
        energies: ``(restarts,)`` final Hamiltonian per restart.
        best_index: Which restart won (lowest energy).
        attempts: Batched integrations executed (> 1 only after
            divergence retries).
        diverged: Batched integrations lost to divergence.
    """

    prediction: np.ndarray
    state: np.ndarray
    energies: np.ndarray
    best_index: int
    attempts: int
    diverged: int


@dataclass
class RestartPolicy:
    """Best-of-K random-restart annealing with divergence recovery.

    Attributes:
        restarts: Random initializations annealed per inference (all in
            one batched integration).
        max_retries: Extra batched attempts allowed when an attempt
            raises :class:`DivergenceError`; each retry re-initializes
            from a fresh random state.
        seed: Seed of the restart initializations.
    """

    restarts: int = 4
    max_retries: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def infer(
        self,
        engine,
        observed_index: np.ndarray,
        observed_values: np.ndarray,
        duration: float = 50.0,
    ) -> RestartOutcome:
        """Anneal ``restarts`` random initializations, keep the best.

        Args:
            engine: A :class:`~repro.core.inference.NaturalAnnealingEngine`
                (or anything exposing ``infer_batch`` and ``operator``);
                its fault scenario, noise, and backend settings all apply.
            observed_index: Indices of observed (clamped) nodes.
            observed_values: ``(k,)`` raw-domain observed values of one
                inference sample.
            duration: Annealing time per restart in simulated ns.

        Returns:
            The :class:`RestartOutcome` of the lowest-energy restart.

        Raises:
            DivergenceError: Every attempt (1 + ``max_retries``) diverged.
        """
        values = np.asarray(observed_values, dtype=float).reshape(1, -1)
        batch = np.repeat(values, self.restarts, axis=0)
        rng = np.random.default_rng(self.seed)
        registry = obs.metrics()
        diverged = 0
        result = None
        last_error: DivergenceError | None = None
        for attempt in range(1 + self.max_retries):
            try:
                result = engine.infer_batch(
                    observed_index, batch, duration=duration, rng=rng
                )
                break
            except DivergenceError as error:
                diverged += 1
                last_error = error
                registry.counter("faults.restart_divergences").inc()
                logger.info(
                    "restart attempt %d diverged (%s); retrying with "
                    "fresh initializations", attempt + 1, error,
                )
        if result is None:
            assert last_error is not None
            raise DivergenceError(
                f"restart_policy ({diverged} attempts, last: "
                f"{last_error.where})",
                step=last_error.step,
                time_ns=last_error.time_ns,
                bad_nodes=last_error.bad_nodes,
            )
        energies = np.asarray(engine.operator.energy(result.states))
        best = int(np.argmin(energies))
        registry.counter("faults.restart_runs").inc()
        registry.counter("faults.restarts").inc(self.restarts)
        if best != 0:
            # A non-default initialization won: the restart pool recovered
            # accuracy the single-run path would have lost.
            registry.counter("faults.restart_recoveries").inc()
        obs.tracer().event(
            "faults.restart",
            restarts=self.restarts,
            best_index=best,
            best_energy=float(energies[best]),
            energy_spread=float(energies.max() - energies.min()),
            diverged=diverged,
        )
        return RestartOutcome(
            prediction=result.predictions[best],
            state=result.states[best],
            energies=energies,
            best_index=best,
            attempts=diverged + 1,
            diverged=diverged,
        )
