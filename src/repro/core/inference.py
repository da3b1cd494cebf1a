"""Graph-learning inference as natural annealing (Sec. III.C).

Inference on a trained dynamical system: clamp the observed nodes (the
capacitors are charged and held), randomly initialize the unknown nodes, and
let the system relax.  At equilibrium the free nodes sit at the minimum of
the conditional energy — the model's prediction.

Two execution paths are provided:

* :meth:`NaturalAnnealingEngine.infer` — full circuit simulation through
  :class:`~repro.core.dynamics.CircuitSimulator`, returning the trajectory.
  This path supports annealing control, noise and finite annealing time,
  and is what the hardware benchmarks drive.  :meth:`NaturalAnnealingEngine.
  infer_batch` is its batched form: a whole batch of samples anneals in one
  vectorized integration loop, sharing each step's coupling matvec.
* :meth:`NaturalAnnealingEngine.infer_equilibrium` — algebraic solve of the
  clamped fixed point (the infinite-time limit).  Fast path for training
  loops and accuracy sweeps; the LU factorization of the reduced system is
  memoized per observed-index set, so sweeps that re-solve the same
  clamped system thousands of times factor it exactly once.

Both paths run on a :class:`~repro.core.operators.CouplingOperator`, so
sparse (decomposed) systems execute their hot loops on CSR storage instead
of densifying — select with the engine's ``backend`` field.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..faults.model import NO_FAULTS, FaultScenario, NullFaultScenario
from .annealing import AnnealingController
from .dynamics import (
    BatchTrajectory,
    CircuitSimulator,
    IntegrationConfig,
    Trajectory,
    check_node_index,
)
from .fingerprint import content_fingerprint
from .model import DSGLModel
from .operators import (
    DEFAULT_MAX_UPDATE_RANK,
    CouplingOperator,
    ReducedSystem,
)

__all__ = [
    "DEFAULT_CACHE_CAPACITY",
    "InferenceResult",
    "BatchInferenceResult",
    "NaturalAnnealingEngine",
    "model_fingerprint",
    "split_nodes",
]

logger = logging.getLogger("repro.core")

#: Recorded frames :meth:`NaturalAnnealingEngine.infer_batch` keeps: the
#: last two, which is all :meth:`BatchTrajectory.settled_fraction` reads.
_TAIL_FRAMES = 2

#: Default bound on the per-engine reduced-system LRU cache.  Generous —
#: a factored :class:`ReducedSystem` per *observed-index set* is only a
#: problem under serving workloads that rotate through unbounded clamp
#: sets, which is exactly what the bound protects against.
DEFAULT_CACHE_CAPACITY = 128


def model_fingerprint(model: DSGLModel) -> str:
    """Cheap content fingerprint of a model's parameter arrays.

    Delegates to :func:`repro.core.fingerprint.content_fingerprint` over
    ``(J, h, mean, scale)``: each array's shape plus a strided sample of
    at most 64 elements (and the last element), a few microseconds
    regardless of model size.  The engine stores the fingerprint when it
    builds its caches and re-checks it on every cache lookup: parameters
    mutated in place — which would otherwise serve bit-stale solves —
    change the fingerprint and auto-invalidate the caches.  A strided
    sample is a probabilistic guard, not a cryptographic one: a mutation
    confined to never-sampled elements can evade it, which is the price
    of per-lookup cheapness (call
    :meth:`NaturalAnnealingEngine.clear_cache` explicitly for a hard
    guarantee, or route edits through
    :meth:`NaturalAnnealingEngine.apply_delta`, which refreshes the
    fingerprint deterministically).
    """
    return content_fingerprint((model.J, model.h, model.mean, model.scale))


def split_nodes(
    observed_index: np.ndarray,
    n: int,
    observed_values: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a clamp set and return ``(observed_index, free_index)``.

    Indices must be in ``[0, n)`` (``-1`` would clamp a node that is also
    returned as free) and unique (conflicting duplicates keep the last
    write).  ``observed_values``, when given, needs one value per index.
    """
    observed_index = np.asarray(observed_index, dtype=int).reshape(-1)
    check_node_index(observed_index, n, "observed_index")
    if observed_values is not None and (
        np.shape(observed_values)[-1:] != observed_index.shape
    ):
        raise ValueError("observed_values length must match observed_index")
    return observed_index, np.setdiff1d(np.arange(n), observed_index)


@dataclass
class InferenceResult:
    """Outcome of one natural-annealing inference.

    Attributes:
        prediction: Denormalized values of the free (unknown) nodes.
        state: Full final node-voltage vector (normalized domain).
        trajectory: Recorded evolution, when the circuit path was used.
        annealing_time_ns: Simulated time the system evolved for.  Equals
            the requested duration on the fixed-step path; under
            ``adaptive``/``early_exit`` configs it reports the time the
            integrator actually covered (early-exit settling can stop
            before the requested budget).
    """

    prediction: np.ndarray
    state: np.ndarray
    trajectory: Trajectory | None
    annealing_time_ns: float


@dataclass
class BatchInferenceResult:
    """Outcome of one batched natural-annealing inference.

    Attributes:
        predictions: ``(batch, num_free)`` denormalized free-node values,
            free nodes in ascending index order.
        states: ``(batch, n)`` final node voltages (normalized domain).
        trajectory: The last two recorded frames of the whole batch (one
            when an adaptive run of zero duration recorded only its
            initial state), under the config's ``record_every``.
        annealing_time_ns: Simulated time the systems evolved for (the
            actual integrated time under ``adaptive``/``early_exit``
            configs; see :class:`InferenceResult`).
    """

    predictions: np.ndarray
    states: np.ndarray
    trajectory: BatchTrajectory | None
    annealing_time_ns: float


@dataclass
class NaturalAnnealingEngine:
    """Runs GL inference on a :class:`DSGLModel` via natural annealing.

    Attributes:
        model: The trained dynamical system.
        config: Circuit-integration settings (time step, rails, noise).
        controller: Optional annealing perturbation controller.
        seed: Seed for the unknown-node random initialization.
        backend: Coupling-operator storage — ``"dense"``, ``"sparse"``, or
            ``"auto"`` (density-based selection; see
            :mod:`repro.core.operators`).
        faults: Device fault scenario every inference path runs under.
            Coupler faults (opens, gain/offset drift) are folded into the
            cached coupling operator — so the circuit drift, the recorded
            energies, *and* the equilibrium solves all see the faulted
            system — while stuck-at-rail nodes are injected as forced
            clamps by the circuit simulator.  The default
            :data:`~repro.faults.NO_FAULTS` leaves every path bit-for-bit
            unchanged.  Assign a new scenario only through
            :meth:`set_faults` (or call :meth:`clear_cache` after
            mutating the field) so the cached operator is rebuilt.

    The engine memoizes two things: the :class:`CouplingOperator` built
    from the (possibly fault-transformed) model, and one factored
    :class:`ReducedSystem` per observed-index set (the expensive part of
    equilibrium inference).  The reduced-system cache is LRU-bounded at
    :attr:`cache_capacity` entries (default
    :data:`DEFAULT_CACHE_CAPACITY`) so serving workloads that rotate
    through many distinct clamp sets plateau instead of leaking;
    evictions are counted in :attr:`cache_evictions` and the live entry
    count is published as the ``engine.cache_size`` gauge.

    Both caches are guarded by a cheap content fingerprint of the model
    (see :func:`model_fingerprint`), re-checked on every lookup: mutating
    the model's parameters in place auto-invalidates them (counted in
    :attr:`stale_invalidations`) instead of serving stale solves.
    Calling :meth:`clear_cache` after a mutation remains the explicit,
    sample-proof way to invalidate.  Cache effectiveness is visible
    through :attr:`cache_hits` / :attr:`cache_misses` (and
    :meth:`cache_hit_rate`), which :meth:`clear_cache` resets alongside
    the cache itself.
    """

    model: DSGLModel
    config: IntegrationConfig = field(default_factory=IntegrationConfig)
    controller: AnnealingController | None = None
    seed: int = 0
    backend: str = "auto"
    faults: FaultScenario | NullFaultScenario = NO_FAULTS
    cache_capacity: int = DEFAULT_CACHE_CAPACITY
    max_update_rank: int = DEFAULT_MAX_UPDATE_RANK
    update_residual_tol: float | None = None
    cache_hits: int = field(default=0, init=False)
    cache_misses: int = field(default=0, init=False)
    cache_evictions: int = field(default=0, init=False)
    stale_invalidations: int = field(default=0, init=False)
    deltas_applied: int = field(default=0, init=False)
    incremental_updates: int = field(default=0, init=False)
    delta_refactorizations: int = field(default=0, init=False)
    residual_refactorizations: int = field(default=0, init=False)
    model_version: int = field(default=0, init=False)
    _operator: CouplingOperator | None = field(
        default=None, init=False, repr=False
    )
    _reduced_cache: OrderedDict = field(
        default_factory=OrderedDict, init=False, repr=False
    )
    _model_fingerprint: str | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.cache_capacity < 1:
            raise ValueError(
                f"cache_capacity must be >= 1, got {self.cache_capacity}"
            )

    # ------------------------------------------------------------------
    # Operator and factorization caches
    # ------------------------------------------------------------------
    @property
    def operator(self) -> CouplingOperator:
        """The backend-selected coupling operator (built lazily, cached).

        When a fault scenario with coupler faults is installed, the
        operator is built from the fault-transformed coupling matrix, so
        every downstream consumer — drift, energy, reduced solves — sees
        the faulted hardware.
        """
        self._check_model_fingerprint()
        if self._operator is None:
            J = self.faults.apply_coupling(self.model.J)
            self._operator = CouplingOperator(
                J, self.model.h, backend=self.backend
            )
            if self.faults.enabled and obs.enabled():
                obs.tracer().event(
                    "faults.injected", where="engine",
                    **self.faults.summary(),
                )
        return self._operator

    def _check_model_fingerprint(self) -> None:
        """Detect in-place model mutations; auto-invalidate stale caches.

        Runs on every cache lookup (operator access and reduced-system
        retrieval).  The first check records the fingerprint; any later
        mismatch means the model's parameters were mutated in place after
        the caches were built, so both caches are dropped — the lookup
        that triggered the check then rebuilds against the live
        parameters instead of serving a stale solve.
        """
        current = model_fingerprint(self.model)
        if self._model_fingerprint is None:
            self._model_fingerprint = current
            return
        if current != self._model_fingerprint:
            self.stale_invalidations += 1
            obs.metrics().counter("engine.stale_invalidations").inc()
            logger.warning(
                "model parameters changed in place since the caches were "
                "built; dropping %d cached factorization(s) and the "
                "operator (stale invalidation #%d)",
                len(self._reduced_cache), self.stale_invalidations,
            )
            self._operator = None
            self._reduced_cache.clear()
            obs.metrics().gauge("engine.cache_size").set(0)
            self._model_fingerprint = current

    def set_faults(
        self, faults: FaultScenario | NullFaultScenario
    ) -> None:
        """Install a fault scenario and invalidate the cached operator."""
        self.faults = faults
        self.clear_cache()

    # ------------------------------------------------------------------
    # Streaming deltas
    # ------------------------------------------------------------------
    def problem_key(self) -> str:
        """Stable identity of the model content the caches were built for.

        ``{model_version}:{model_fingerprint}`` — the version counter
        increments on every effective :meth:`apply_delta`, so consumers
        that group work by problem (the serving layer's batch coalescing)
        are guaranteed a new key after a delta even when the strided
        fingerprint sample happens to miss the edited entries.
        """
        return f"{self.model_version}:{model_fingerprint(self.model)}"

    def apply_delta(self, delta) -> None:
        """Fold a :class:`~repro.stream.deltas.GraphDelta` into the engine.

        The model's ``J``/``h`` are edited in place (set semantics), the
        cached coupling operator is replaced by a structure-reusing
        :meth:`~repro.core.operators.CouplingOperator.apply_delta` copy,
        and every cached :class:`ReducedSystem` absorbs the edits as
        low-rank Sherman-Morrison-Woodbury corrections where possible —
        skipping the full LU refactorization — or is dropped for lazy
        refactorization when the update-rank budget is exhausted
        (counted in :attr:`delta_refactorizations`).

        A delta whose effective edit set is empty (after normalizing out
        edits equal to the current values) is a guaranteed no-op: no
        cache churn, no fingerprint or :attr:`model_version` change.

        With a fault scenario installed the cached operator is the
        *fault-transformed* coupling, so increments computed against it
        would compound with the faults; the engine falls back to a plain
        edit-and-clear in that case.

        Raises:
            ValueError: On out-of-range indices, diagonal or conflicting
                symmetric edits, or ``h`` edits that are not strictly
                negative (the model's convexity invariant).
        """
        delta.validate_range(self.model.n)
        if delta.num_h_edits and np.any(delta.h_value >= 0.0):
            raise ValueError(
                "h edits must be strictly negative to preserve the "
                "model's convexity invariant"
            )
        obs.metrics().counter("stream.deltas").inc()
        if delta.is_empty:
            return
        if self.faults.enabled:
            delta.apply_to_dense(self.model.J, self.model.h, symmetric=True)
            dropped = len(self._reduced_cache)
            self.clear_cache()
            self.deltas_applied += 1
            self.delta_refactorizations += dropped
            self.model_version += 1
            obs.metrics().counter("stream.refactorizations").inc(dropped)
            return
        operator = self.operator
        info: dict = {}
        new_operator = operator.apply_delta(delta, info=info)
        delta.apply_to_dense(self.model.J, self.model.h, symmetric=True)
        if info["noop"]:
            # Every edit matched the current values; nothing changed.
            return
        self._operator = new_operator
        incremental = 0
        refactors = 0
        edge_increments = info["edge_increments"]
        h_increments = info["h_increments"]
        cache = self._reduced_cache
        with obs.metrics().timer("stream.update_ms"):
            for key in list(cache):
                reduced = cache[key]
                if reduced.apply_increments(edge_increments, h_increments):
                    incremental += 1
                else:
                    del cache[key]
                    refactors += 1
        self.deltas_applied += 1
        self.incremental_updates += incremental
        self.delta_refactorizations += refactors
        self.model_version += 1
        self._model_fingerprint = model_fingerprint(self.model)
        metrics = obs.metrics()
        metrics.counter("stream.incremental_updates").inc(incremental)
        metrics.counter("stream.refactorizations").inc(refactors)
        metrics.gauge("engine.cache_size").set(len(cache))
        logger.debug(
            "applied delta (%d edge / %d h effective edits): %d cached "
            "system(s) updated incrementally, %d dropped for "
            "refactorization",
            len(edge_increments), len(h_increments), incremental, refactors,
        )

    @property
    def cache_size(self) -> int:
        """Number of factored reduced systems currently memoized."""
        return len(self._reduced_cache)

    def cache_hit_rate(self) -> float:
        """Fraction of reduced-system lookups served from the cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def clear_cache(self) -> None:
        """Drop the cached operator and reduced-system factorizations.

        Also resets the hit/miss/eviction counters and the stored model
        fingerprint — the statistics describe the cache they were
        collected against.  :attr:`stale_invalidations` is *not* reset:
        it counts detected in-place mutations over the engine's lifetime.
        """
        self._operator = None
        self._reduced_cache.clear()
        self._model_fingerprint = None
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        obs.metrics().gauge("engine.cache_size").set(0)

    def _reduced(
        self, observed_index: np.ndarray, free_index: np.ndarray
    ) -> ReducedSystem:
        """The factored clamped system for this observed set (memoized).

        The memo is an LRU bounded at :attr:`cache_capacity` entries:
        a lookup refreshes its entry's recency, an insert past capacity
        evicts the least-recently-used factorization.  Under a serving
        workload with unbounded distinct clamp sets the cache therefore
        plateaus instead of growing one SuperLU factorization per set.
        """
        self._check_model_fingerprint()
        key = (observed_index.size, observed_index.tobytes())
        cache = self._reduced_cache
        reduced = cache.get(key)
        if reduced is not None and reduced.needs_refactor:
            # A corrected solve exceeded the residual bound since the last
            # lookup; drop the entry lazily and refactor fresh.
            del cache[key]
            reduced = None
            self.residual_refactorizations += 1
            obs.metrics().counter("stream.residual_refactorizations").inc()
            logger.info(
                "incremental reduced system exceeded residual tolerance "
                "(last_residual above bound); refactorizing %d free / %d "
                "observed nodes",
                free_index.size, observed_index.size,
            )
        if reduced is None:
            self.cache_misses += 1
            obs.metrics().counter("engine.cache_misses").inc()
            with obs.tracer().span(
                "engine.factorize",
                num_free=int(free_index.size),
                num_observed=int(observed_index.size),
            ):
                with obs.metrics().timer("engine.factorize_ms"):
                    reduced = self.operator.reduced_system(
                        free_index,
                        observed_index,
                        max_update_rank=self.max_update_rank,
                        residual_tol=self.update_residual_tol,
                    )
            cache[key] = reduced
            while len(cache) > self.cache_capacity:
                cache.popitem(last=False)
                self.cache_evictions += 1
                obs.metrics().counter("engine.cache_evictions").inc()
            obs.metrics().gauge("engine.cache_size").set(len(cache))
            logger.debug(
                "reduced-system cache miss: %d free / %d observed nodes "
                "factored (cache size now %d, %d evicted)",
                free_index.size, observed_index.size, len(cache),
                self.cache_evictions,
            )
        else:
            cache.move_to_end(key)
            self.cache_hits += 1
            obs.metrics().counter("engine.cache_hits").inc()
        return reduced

    # ------------------------------------------------------------------
    # Circuit-simulation paths
    # ------------------------------------------------------------------
    def infer(
        self,
        observed_index: np.ndarray,
        observed_values: np.ndarray,
        duration: float = 50.0,
        rng: np.random.Generator | None = None,
    ) -> InferenceResult:
        """Full circuit-simulation inference.

        Args:
            observed_index: Indices of observed (clamped) nodes.
            observed_values: Raw-domain values of the observed nodes.
            duration: Annealing time in simulated nanoseconds.
            rng: Randomness for initialization (defaults to seeded).

        Returns:
            :class:`InferenceResult` with the free-node predictions.
        """
        model = self.model
        n = model.n
        observed_values = np.asarray(observed_values, dtype=float).reshape(-1)
        observed_index, free_index = split_nodes(
            observed_index, n, observed_values
        )
        rng = rng or np.random.default_rng(self.seed)

        clamp_value = self._normalized_subset(model, observed_index, observed_values)

        rail = self.config.rail if self.config.rail is not None else 1.0
        sigma0 = rng.uniform(-rail, rail, size=n)
        sigma0[observed_index] = clamp_value

        simulator = CircuitSimulator(
            config=self.config, rng=rng, faults=self.faults
        )
        operator = self.operator
        drift = self._drift_function(simulator, operator)

        with obs.tracer().span("engine.infer", n=n):
            trajectory = simulator.run(
                drift,
                sigma0,
                duration,
                clamp_index=observed_index,
                clamp_value=clamp_value,
                energy=operator.energy,
            )
        state = trajectory.final_state
        prediction = self._denormalized_subset(model, free_index, state)
        annealed = (
            float(trajectory.times[-1])
            if (self.config.adaptive or self.config.early_exit)
            else duration
        )
        return InferenceResult(
            prediction=prediction,
            state=state,
            trajectory=trajectory,
            annealing_time_ns=annealed,
        )

    def infer_batch(
        self,
        observed_index: np.ndarray,
        observed_values: np.ndarray,
        duration: float = 50.0,
        rng: np.random.Generator | None = None,
    ) -> BatchInferenceResult:
        """Circuit-simulation inference over a batch sharing one observed set.

        The whole batch is integrated by
        :meth:`~repro.core.dynamics.CircuitSimulator.run_batch` in a single
        vectorized Euler/RK4 loop, so every integration step costs one
        batched coupling matvec instead of ``batch`` separate ones.  When
        coupler noise is enabled, one noisy coupling matrix is sampled and
        shared by the batch — device mismatch is static on a physical chip,
        so samples running on the same hardware see the same perturbation.

        Only what the result exposes is computed.  The loop advances only
        the free nodes
        (:meth:`~repro.core.dynamics.CircuitSimulator._integrate`).  On the
        sparse backend without coupler noise the drift multiplies only
        their CSR rows
        (:meth:`~repro.core.operators.CouplingOperator._rows_drift`), and
        the run binds it to the clamps: the observed frames' constant
        drive, every row's leading clamped entries, is summed once per
        call into a per-sample prefix, and each step multiplies only the
        remaining entries (on the paper's windows, the free block).  When
        the early-exit freeze-out shrinks the batch, the drift keeps the
        surviving samples' prefix.  The dense and coupler-noise drifts
        compute every row, and the loop keeps the free ones.  The
        trajectory holds the last two recorded frames (what
        :meth:`~repro.core.dynamics.BatchTrajectory.settled_fraction`
        reads), and H_RV is evaluated for those two alone.  States,
        predictions and the two frames equal those of a ``run_batch`` with
        the operator's full drift bit for bit: each free value goes
        through the same floating-point operations, CSR row slicing keeps
        each row's summation order, and continuing a row's sum from its
        clamped prefix makes the same additions as summing it whole.

        Args:
            observed_index: Indices of observed nodes (shared by the batch).
            observed_values: ``(batch, num_observed)`` raw-domain values.
            duration: Annealing time in simulated nanoseconds.
            rng: Randomness for initialization (defaults to seeded).

        Returns:
            :class:`BatchInferenceResult` with per-sample predictions.
        """
        model = self.model
        n = model.n
        observed_index, free_index = split_nodes(observed_index, n)
        observed_values = np.asarray(observed_values, dtype=float)
        if observed_values.ndim != 2 or observed_values.shape[1] != observed_index.size:
            raise ValueError(
                "observed_values must be (batch, num_observed), got "
                f"{observed_values.shape}"
            )
        batch = observed_values.shape[0]
        rng = rng or np.random.default_rng(self.seed)

        clamp = self._normalized_subset(model, observed_index, observed_values)

        rail = self.config.rail if self.config.rail is not None else 1.0
        sigma0 = rng.uniform(-rail, rail, size=(batch, n))
        sigma0[:, observed_index] = clamp

        simulator = CircuitSimulator(
            config=self.config, rng=rng, faults=self.faults
        )
        operator = self.operator
        noise_free = self.config.coupling_noise_std <= 0
        if operator.backend == "sparse" and noise_free:
            drift = operator._rows_drift(free_index)
            drift_rows = free_index.size
        else:
            # Dense and coupler-noise drifts compute every row, and the
            # loop keeps the free ones: a column-subset GEMM can change
            # their last bits.
            drift = self._drift_function(simulator, operator)
            drift_rows = n

        with obs.tracer().span("engine.infer_batch", batch=batch, n=n) as span:
            if obs.enabled():
                span.set("drift_rows", drift_rows)
            trajectory = simulator._run_batch(
                drift,
                sigma0,
                duration,
                observed_index,
                clamp,
                operator.energy,
                tail=_TAIL_FRAMES,
            )
        states = trajectory.final_states
        predictions = self._denormalized_free(
            model, free_index, states[:, free_index]
        )
        annealed = (
            float(trajectory.times[-1])
            if (self.config.adaptive or self.config.early_exit)
            else duration
        )
        return BatchInferenceResult(
            predictions=predictions,
            states=states,
            trajectory=trajectory,
            annealing_time_ns=annealed,
        )

    def _drift_function(
        self, simulator: CircuitSimulator, operator: CouplingOperator
    ):
        """The drift for a circuit run: Eq. 8, batch-aware.

        Without coupler noise the operator's own (possibly sparse) drift is
        used directly; with noise a perturbed dense coupling is sampled for
        the run, matching the physical picture of static device mismatch.
        """
        if self.config.coupling_noise_std <= 0:
            return operator.drift
        J = simulator.perturbed_coupling(operator.to_dense())
        h = self.model.h

        def drift(sigma: np.ndarray) -> np.ndarray:
            if sigma.ndim == 1:
                return J @ sigma + h * sigma
            return sigma @ J + h * sigma

        return drift

    # ------------------------------------------------------------------
    # Equilibrium (algebraic) paths
    # ------------------------------------------------------------------
    def infer_equilibrium(
        self,
        observed_index: np.ndarray,
        observed_values: np.ndarray,
    ) -> InferenceResult:
        """Algebraic fixed-point inference (infinite annealing time).

        The reduced system's LU factorization is memoized per
        observed-index set, so repeated calls with the same observed nodes
        (accuracy sweeps, training loops) only pay a back-substitution.
        """
        model = self.model
        observed_values = np.asarray(observed_values, dtype=float).reshape(-1)
        observed_index, free_index = split_nodes(
            observed_index, model.n, observed_values
        )
        clamp_value = self._normalized_subset(model, observed_index, observed_values)
        reduced = self._reduced(observed_index, free_index)
        state = np.zeros(model.n)
        state[observed_index] = clamp_value
        with obs.metrics().timer("engine.solve_ms"):
            state[free_index] = reduced.solve(clamp_value)
        prediction = self._denormalized_subset(model, free_index, state)
        return InferenceResult(
            prediction=prediction,
            state=state,
            trajectory=None,
            annealing_time_ns=float("inf"),
        )

    def infer_equilibrium_batch(
        self,
        observed_index: np.ndarray,
        observed_values: np.ndarray,
    ) -> np.ndarray:
        """Equilibrium inference over a batch sharing one observed set.

        The clamped fixed point solves the same reduced linear system for
        every sample, so the factorization is shared: one LU decomposition
        (memoized across calls) serves the whole batch.  This is the fast
        path for accuracy sweeps (the circuit path exists for timing/noise
        studies).

        Args:
            observed_index: Indices of observed nodes (shared by the batch).
            observed_values: ``(batch, num_observed)`` raw-domain values.

        Returns:
            ``(batch, num_free)`` denormalized predictions, free nodes in
            ascending index order.
        """
        model = self.model
        observed_index, free_index = split_nodes(observed_index, model.n)
        observed_values = np.asarray(observed_values, dtype=float)
        if observed_values.ndim != 2 or observed_values.shape[1] != observed_index.size:
            raise ValueError(
                "observed_values must be (batch, num_observed), got "
                f"{observed_values.shape}"
            )
        with obs.tracer().span(
            "engine.infer_equilibrium_batch",
            batch=observed_values.shape[0],
            n=model.n,
        ):
            clamp = self._normalized_subset(model, observed_index, observed_values)
            reduced = self._reduced(observed_index, free_index)
            with obs.metrics().timer("engine.solve_ms"):
                states = reduced.solve(clamp)
        return self._denormalized_free(model, free_index, states)

    # ------------------------------------------------------------------
    # Normalization helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _normalized_subset(
        model: DSGLModel, index: np.ndarray, raw_values: np.ndarray
    ) -> np.ndarray:
        """Raw -> voltage domain for an index subset; batch-aware."""
        values = np.asarray(raw_values, dtype=float)
        if model.mean is not None:
            values = values - model.mean[index]
        if model.scale is not None:
            values = values / model.scale[index]
        return values

    @staticmethod
    def _denormalized_subset(
        model: DSGLModel, index: np.ndarray, state: np.ndarray
    ) -> np.ndarray:
        values = state[index]
        if model.scale is not None:
            values = values * model.scale[index]
        if model.mean is not None:
            values = values + model.mean[index]
        return values

    @staticmethod
    def _denormalized_free(
        model: DSGLModel, free_index: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Voltage -> raw domain for free-node values ``(batch, num_free)``."""
        if model.scale is not None:
            values = values * model.scale[free_index]
        if model.mean is not None:
            values = values + model.mean[free_index]
        return values
