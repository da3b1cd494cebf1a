"""Engine-level sharding: batched inference and restart fan-out.

A :class:`~repro.core.inference.NaturalAnnealingEngine` cannot cross a
process boundary directly — its memoized :class:`ReducedSystem` cache
holds SuperLU factor objects and solver closures that do not pickle.
:class:`EngineSpec` captures the picklable construction arguments instead;
each worker rebuilds a fresh engine (and re-derives operator and caches)
from the spec.  Rebuilding is deterministic, so worker-side results match
what the same shard computes in-process.

Per-shard randomness follows the same rule as the circuit layer: shard
``i`` draws initialization (and integration noise) from
``default_rng(SeedSequence(root_seed).spawn(num)[i])``, making results a
pure function of ``(root_seed, shard decomposition)`` — never of worker
count.  One semantic difference from the legacy joint path is inherent:
with ``coupling_noise_std > 0`` each shard samples its own perturbed
coupling matrix, i.e. shards model *independent device realizations*
rather than one shared chip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.inference import (
    _TAIL_FRAMES,
    DEFAULT_CACHE_CAPACITY,
    BatchInferenceResult,
    NaturalAnnealingEngine,
)
from ..core.dynamics import BatchTrajectory
from .pool import parallel_map, resolve_num_shards, shard_slices, spawn_seeds
from .shm import SharedArena, SharedModel, shm_available

__all__ = ["EngineSpec", "infer_batch_sharded", "restart_fanout"]


@dataclass(frozen=True)
class EngineSpec:
    """Picklable recipe for rebuilding an engine inside a worker.

    Carries exactly the engine's construction arguments (the controller is
    omitted — neither ``infer_batch`` nor the restart policy consults it);
    the unpicklable operator/factorization caches are rebuilt lazily by
    the fresh engine.
    """

    model: object
    config: object
    seed: int
    backend: str
    faults: object
    cache_capacity: int = DEFAULT_CACHE_CAPACITY

    @classmethod
    def from_engine(
        cls, engine: NaturalAnnealingEngine, arena: SharedArena | None = None
    ) -> "EngineSpec":
        """Capture an engine's recipe, optionally with a shared model.

        With an ``arena``, the model's arrays go into shared memory and the
        spec carries only a :class:`~repro.parallel.shm.SharedModel`
        descriptor — the spec then pickles in O(1) of the model size.
        """
        model = engine.model if arena is None else arena.share_model(engine.model)
        return cls(
            model=model,
            config=engine.config,
            seed=engine.seed,
            backend=engine.backend,
            faults=engine.faults,
            cache_capacity=engine.cache_capacity,
        )

    def build(self) -> NaturalAnnealingEngine:
        model = self.model
        if isinstance(model, SharedModel):
            model = model.model()
        return NaturalAnnealingEngine(
            model=model,
            config=self.config,
            seed=self.seed,
            backend=self.backend,
            faults=self.faults,
            cache_capacity=self.cache_capacity,
        )


def _infer_shard(
    spec: EngineSpec,
    observed_index: np.ndarray,
    values_slice: np.ndarray,
    duration: float,
    seed: np.random.SeedSequence,
) -> tuple:
    """Run one batch slice on a freshly rebuilt engine."""
    engine = spec.build()
    with obs.tracer().span(
        "engine.shard", batch=int(values_slice.shape[0])
    ):
        result = engine.infer_batch(
            observed_index,
            values_slice,
            duration=duration,
            rng=np.random.default_rng(seed),
        )
    trajectory = result.trajectory
    return (
        result.predictions,
        result.states,
        trajectory.times,
        trajectory.states,
        trajectory.energies,
    )


def _infer_shard_shm(
    spec: EngineSpec,
    observed_index: np.ndarray,
    values_shared,
    start: int,
    stop: int,
    duration: float,
    seed: np.random.SeedSequence,
    predictions_out,
    states_out,
    times_out,
    traj_states_out,
    traj_energies_out,
) -> None:
    """Shared-memory variant of :func:`_infer_shard`.

    The spec's model and the observed-value matrix arrive as descriptors;
    results land in the preallocated slabs — nothing problem-sized crosses
    the pickle channel in either direction.
    """
    engine = spec.build()
    with obs.tracer().span(
        "engine.shard", batch=stop - start, start=start, stop=stop
    ):
        result = engine.infer_batch(
            observed_index,
            values_shared.array[start:stop],
            duration=duration,
            rng=np.random.default_rng(seed),
        )
    predictions_out.array[start:stop] = result.predictions
    states_out.array[start:stop] = result.states
    trajectory = result.trajectory
    traj_states_out.array[:, start:stop, :] = trajectory.states
    traj_energies_out.array[:, start:stop] = trajectory.energies
    if start == 0:
        times_out.array[...] = trajectory.times


def infer_batch_sharded(
    engine: NaturalAnnealingEngine,
    observed_index: np.ndarray,
    observed_values: np.ndarray,
    duration: float = 50.0,
    *,
    root_seed: int | np.random.SeedSequence | None = None,
    workers: int = 1,
    shards: int | None = None,
    shm: bool | None = None,
) -> BatchInferenceResult:
    """Shard :meth:`NaturalAnnealingEngine.infer_batch` across workers.

    Args:
        engine: The engine whose model/config/backend/faults apply.
        observed_index / observed_values / duration: As in ``infer_batch``.
        root_seed: Root of the per-shard seed tree; defaults to
            ``engine.seed``.
        workers: Process count (1 = same shards, serial, identical bits).
        shards: Shard count, independent of ``workers``.
        shm: Transport selector — ``None`` auto-selects shared memory when
            available, ``False`` forces the legacy pickled transport,
            ``True`` requires shared memory.  Transport never changes
            output bits (same shards, same seeds, same arithmetic).

    Returns:
        The reassembled :class:`BatchInferenceResult`.  Its trajectory
        concatenates the shards' two-frame tails along the batch axis.
        Adaptive and early-exit shards record data-dependent time grids,
        so each tail frame is stamped at the latest shard's time.
    """
    values = np.asarray(observed_values, dtype=float)
    if values.ndim != 2:
        raise ValueError(
            f"observed_values must be (batch, num_observed), got {values.shape}"
        )
    batch = values.shape[0]
    if batch == 0:
        raise ValueError("cannot shard an empty batch")
    variable_records = bool(
        getattr(engine.config, "adaptive", False)
        or getattr(engine.config, "early_exit", False)
    )
    if shm is True and not shm_available():
        raise RuntimeError("shared memory is unavailable on this platform")
    if shm is True and variable_records:
        raise RuntimeError(
            "shared-memory transport requires a fixed record count; "
            "adaptive/early-exit configs must use shm=False or shm=None"
        )
    use_shm = (shm_available() if shm is None else bool(shm)) and not variable_records
    num_shards = resolve_num_shards(batch, shards)
    slices = shard_slices(batch, num_shards)
    seeds = spawn_seeds(
        engine.seed if root_seed is None else root_seed, num_shards
    )
    if not use_shm:
        spec = EngineSpec.from_engine(engine)
        tasks = [
            (spec, observed_index, values[part], duration, seed)
            for part, seed in zip(slices, seeds)
        ]
        parts = parallel_map(_infer_shard, tasks, workers)
        times = np.max([p[2] for p in parts], axis=0)
        return BatchInferenceResult(
            predictions=np.concatenate([p[0] for p in parts], axis=0),
            states=np.concatenate([p[1] for p in parts], axis=0),
            trajectory=BatchTrajectory(
                times=times,
                states=np.concatenate([p[3] for p in parts], axis=1),
                energies=np.concatenate([p[4] for p in parts], axis=1),
            ),
            annealing_time_ns=(
                float(times[-1]) if variable_records else duration
            ),
        )

    n = engine.model.n
    index = np.asarray(observed_index, dtype=int).reshape(-1)
    num_free = np.setdiff1d(np.arange(n), index).size
    with SharedArena(tag="infer") as arena:
        spec = EngineSpec.from_engine(engine, arena)
        values_shared = arena.share(values)
        # A fixed-step run records its initial and final frames at least,
        # so every shard fills the whole tail.
        T = _TAIL_FRAMES
        predictions_out = arena.empty((batch, num_free))
        states_out = arena.empty((batch, n))
        times_out = arena.empty((T,))
        traj_states_out = arena.empty((T, batch, n))
        traj_energies_out = arena.empty((T, batch))
        tasks = [
            (
                spec,
                observed_index,
                values_shared,
                part.start,
                part.stop,
                duration,
                seed,
                predictions_out,
                states_out,
                times_out,
                traj_states_out,
                traj_energies_out,
            )
            for part, seed in zip(slices, seeds)
        ]
        parallel_map(_infer_shard_shm, tasks, workers)
        trajectory = BatchTrajectory(
            times=times_out.array.copy(),
            states=traj_states_out.array.copy(),
            energies=traj_energies_out.array.copy(),
        )
        return BatchInferenceResult(
            predictions=predictions_out.array.copy(),
            states=states_out.array.copy(),
            trajectory=trajectory,
            annealing_time_ns=duration,
        )


def _restart_shard(
    spec: EngineSpec,
    observed_index: np.ndarray,
    values: np.ndarray,
    count: int,
    duration: float,
    seed: np.random.SeedSequence,
    max_retries: int,
) -> dict:
    """Anneal one shard of the restart pool, retrying on divergence.

    Divergence is reported in-band (``"error"`` key) instead of raised:
    a raising task would abort the whole pool map, and exceptions are
    exactly the case the restart fan-out must survive.
    """
    from ..faults.resilience import DivergenceError

    engine = spec.build()
    batch = np.repeat(values.reshape(1, -1), count, axis=0)
    rng = np.random.default_rng(seed)
    diverged = 0
    with obs.tracer().span("engine.restart_shard", count=count) as span:
        for _ in range(1 + max_retries):
            try:
                result = engine.infer_batch(
                    observed_index, batch, duration=duration, rng=rng
                )
                span.set("diverged", diverged)
                return {
                    "predictions": result.predictions,
                    "states": result.states,
                    "diverged": diverged,
                    "error": None,
                }
            except DivergenceError as error:
                diverged += 1
                last = error
        span.set("diverged", diverged)
    return {
        "predictions": None,
        "states": None,
        "diverged": diverged,
        "error": (last.where, last.step, last.time_ns, last.bad_nodes),
    }


def restart_fanout(
    engine: NaturalAnnealingEngine,
    observed_index: np.ndarray,
    observed_values: np.ndarray,
    restarts: int,
    duration: float,
    root_seed: int,
    max_retries: int,
    workers: int | None,
    shards: int | None,
) -> tuple[list[dict], list[slice]]:
    """Fan the restart pool out in shards; returns per-shard results.

    Shard ``i`` of the pool initializes from
    ``SeedSequence(root_seed).spawn(num)[i]`` and retries divergence
    locally (up to ``max_retries`` times, reusing its own stream), so the
    outcome is independent of worker count.  Interpretation of the result
    dicts is up to :class:`~repro.faults.resilience.RestartPolicy`.

    The model ships through shared memory when available (per-restart
    predictions are small and return by pickle as before).  Raises
    ``ValueError`` for an empty fan-out — same contract as the empty-batch
    checks in :func:`run_batch_sharded` / :func:`infer_batch_sharded`.
    """
    if restarts < 1:
        raise ValueError("cannot fan out an empty restart pool")
    values = np.asarray(observed_values, dtype=float).reshape(-1)
    num_shards = resolve_num_shards(restarts, shards)
    slices = shard_slices(restarts, num_shards)
    seeds = spawn_seeds(root_seed, num_shards)
    with SharedArena(tag="restart") as arena:
        spec = EngineSpec.from_engine(
            engine, arena if shm_available() else None
        )
        tasks = [
            (
                spec,
                observed_index,
                values,
                part.stop - part.start,
                duration,
                seed,
                max_retries,
            )
            for part, seed in zip(slices, seeds)
        ]
        return parallel_map(_restart_shard, tasks, workers), slices
