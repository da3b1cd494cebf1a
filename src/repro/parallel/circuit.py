"""Batch sharding for :meth:`CircuitSimulator.run_batch`.

A batched circuit integration is embarrassingly parallel across batch
members *provided* each shard owns an independent noise stream: the
legacy path draws per-step noise over the whole ``(batch, n)`` matrix
jointly, so splitting it would reshuffle the stream.  The sharded path
therefore defines its own (equally deterministic) semantics — shard ``i``
integrates with ``default_rng(SeedSequence(root_seed).spawn(num)[i])`` —
and those semantics are what the ``workers=N ≡ workers=1`` guarantee is
stated over.  Passing ``workers=None`` to ``run_batch`` keeps the legacy
joint-draw behavior bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..core.dynamics import BatchTrajectory, fixed_step_count
from .pool import parallel_map, resolve_num_shards, shard_slices, spawn_seeds
from .shm import SharedArena, maybe_share_method, shm_available

__all__ = ["expected_record_count", "run_batch_sharded", "shard_task_bytes"]


def expected_record_count(config, duration: float) -> int:
    """How many frames :meth:`CircuitSimulator._integrate` will record.

    Mirrors the loop's recording rule under the fixed step policy — the
    initial state, then every ``record_every``-th of the
    :func:`~repro.core.dynamics.fixed_step_count` steps plus the final
    one — so the shared-memory path can preallocate result slabs of the
    right height before any worker runs.

    Only valid without adaptive steps or early-exit freeze-out: those
    record a data-dependent number of frames, so callers must not
    preallocate for such configs (see :func:`run_batch_sharded`, which
    falls back to the legacy transport and a two-frame reassembly for
    them).
    """
    if getattr(config, "adaptive", False) or getattr(config, "early_exit", False):
        raise ValueError(
            "record count is data-dependent under adaptive/early-exit "
            "integration; expected_record_count only applies to fixed-step "
            "configs"
        )
    n_steps = fixed_step_count(duration, config.dt)
    count = 1 + n_steps // config.record_every
    if n_steps % config.record_every:
        count += 1
    return count


def _circuit_shard(
    config,
    faults,
    drift,
    sigma_slice: np.ndarray,
    duration: float,
    clamp_index,
    clamp_value,
    energy,
    seed: np.random.SeedSequence,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate one contiguous slice of the batch in a fresh simulator."""
    from ..core.dynamics import CircuitSimulator

    simulator = CircuitSimulator(
        config=config, rng=np.random.default_rng(seed), faults=faults
    )
    with obs.tracer().span(
        "circuit.shard", batch=int(sigma_slice.shape[0])
    ):
        trajectory = simulator.run_batch(
            drift,
            sigma_slice,
            duration,
            clamp_index=clamp_index,
            clamp_value=clamp_value,
            energy=energy,
        )
    return trajectory.times, trajectory.states, trajectory.energies


def _circuit_shard_shm(
    config,
    faults,
    drift,
    sigma_shared,
    start: int,
    stop: int,
    duration: float,
    clamp_index,
    clamp_value,
    energy,
    seed: np.random.SeedSequence,
    times_out,
    states_out,
    energies_out,
) -> None:
    """Shared-memory variant of :func:`_circuit_shard`.

    Reads its batch slice from the shared initial-state block and writes
    the trajectory into the preallocated output slabs — the task's pickled
    payload and return value are both O(1) in problem size.  The shard
    owning row 0 also writes the (identical-for-every-shard) time axis.
    """
    from ..core.dynamics import CircuitSimulator

    simulator = CircuitSimulator(
        config=config, rng=np.random.default_rng(seed), faults=faults
    )
    with obs.tracer().span(
        "circuit.shard", batch=stop - start, start=start, stop=stop
    ):
        trajectory = simulator.run_batch(
            drift,
            sigma_shared.array[start:stop],
            duration,
            clamp_index=clamp_index,
            clamp_value=clamp_value,
            energy=energy,
        )
    slab = states_out.array
    if trajectory.states.shape[0] != slab.shape[0]:
        raise RuntimeError(
            f"recorded {trajectory.states.shape[0]} frames but the output "
            f"slab holds {slab.shape[0]} — expected_record_count drifted "
            "from the integrator's recording rule"
        )
    slab[:, start:stop, :] = trajectory.states
    energies_out.array[:, start:stop] = trajectory.energies
    if start == 0:
        times_out.array[...] = trajectory.times


def shard_task_bytes(
    simulator,
    drift,
    sigma0: np.ndarray,
    duration: float,
    *,
    shards: int | None = None,
    energy=None,
) -> dict:
    """Per-task serialized payload size of both sharding transports.

    The scaling benchmark (and its perf gate) report how many bytes one
    pool task pickles on the legacy path versus the shared-memory path;
    this measures exactly the payloads :func:`run_batch_sharded` would
    enqueue for shard 0, without running anything.
    """
    from .shm import pickled_bytes

    sigma0 = np.asarray(sigma0, dtype=float)
    num_shards = resolve_num_shards(sigma0.shape[0], shards)
    part = shard_slices(sigma0.shape[0], num_shards)[0]
    seed = spawn_seeds(0, num_shards)[0]
    legacy = pickled_bytes(
        (
            simulator.config,
            simulator.faults,
            drift,
            sigma0[part],
            duration,
            None,
            None,
            energy,
            seed,
        )
    )
    with SharedArena(tag="measure") as arena:
        sigma_shared = arena.share(sigma0)
        shared_drift = maybe_share_method(arena, drift)
        shared_energy = maybe_share_method(arena, energy)
        T = expected_record_count(simulator.config, duration)
        times_out = arena.empty((T,))
        states_out = arena.empty((T, sigma0.shape[0], sigma0.shape[1]))
        energies_out = arena.empty((T, sigma0.shape[0]))
        shm = pickled_bytes(
            (
                simulator.config,
                simulator.faults,
                shared_drift,
                sigma_shared,
                part.start,
                part.stop,
                duration,
                None,
                None,
                shared_energy,
                seed,
                times_out,
                states_out,
                energies_out,
            )
        )
    return {"legacy": legacy, "shm": shm}


def run_batch_sharded(
    simulator,
    drift,
    sigma0: np.ndarray,
    duration: float,
    clamp_index: np.ndarray | None = None,
    clamp_value: np.ndarray | None = None,
    energy=None,
    *,
    root_seed: int | np.random.SeedSequence = 0,
    workers: int = 1,
    shards: int | None = None,
    shm: bool | None = None,
) -> BatchTrajectory:
    """Shard a batched circuit run and reassemble one trajectory.

    The shard decomposition (``shards``, default
    :data:`~repro.parallel.pool.DEFAULT_SHARDS`) and per-shard RNG streams
    depend only on ``(batch, shards, root_seed)`` — never on ``workers`` —
    so any worker count produces identical bits.  ``drift`` and ``energy``
    must be picklable (e.g. bound methods of a
    :class:`~repro.core.operators.CouplingOperator`); closures are not.

    Args:
        simulator: The :class:`CircuitSimulator` whose ``config``/``faults``
            every shard inherits.  Its ``rng`` is *not* used — sharded
            noise streams come from ``root_seed`` (see module docstring).
        drift / sigma0 / duration / clamp_index / clamp_value / energy:
            As in :meth:`CircuitSimulator.run_batch`.
        root_seed: Root of the per-shard ``SeedSequence.spawn`` tree.
        workers: Process count; 1 runs the shards serially in-process.
        shards: Shard count; fixed independently of ``workers``.
        shm: Transport selector.  ``None`` (default) uses shared memory
            when the platform supports it; ``False`` forces the legacy
            pickled transport; ``True`` requires shared memory.  Both
            transports run the same shard functions on the same slices
            with the same seeds, so the choice never changes output bits —
            only how many bytes each task serializes.

    Returns:
        The reassembled :class:`BatchTrajectory` (recorded times are
        shared; states/energies concatenate along the batch axis).

        Under ``config.adaptive`` or ``config.early_exit`` each shard
        records its own data-dependent time grid, so shard trajectories
        cannot be concatenated along the batch axis frame-for-frame.
        Such configs always use the legacy transport (slab heights are
        unknowable up front) and reassemble to a *two-frame* trajectory —
        the shared initial state at ``t=0`` and each member's final state
        stamped at the latest shard finish time — which preserves
        ``final_states``/``final_energies`` (what every downstream
        consumer reads) exactly.
    """
    sigma0 = np.asarray(sigma0, dtype=float)
    if sigma0.ndim != 2:
        raise ValueError(
            f"sigma0 must be a (batch, n) matrix, got shape {sigma0.shape}"
        )
    batch = sigma0.shape[0]
    if batch == 0:
        raise ValueError("cannot shard an empty batch")
    variable_records = bool(
        getattr(simulator.config, "adaptive", False)
        or getattr(simulator.config, "early_exit", False)
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
    seeds = spawn_seeds(root_seed, num_shards)

    clamp_value = None if clamp_value is None else np.asarray(clamp_value, float)
    per_sample = clamp_value is not None and clamp_value.ndim == 2

    if not use_shm:
        tasks = [
            (
                simulator.config,
                simulator.faults,
                drift,
                sigma0[part],
                duration,
                clamp_index,
                clamp_value[part] if per_sample else clamp_value,
                energy,
                seed,
            )
            for part, seed in zip(slices, seeds)
        ]
        parts = parallel_map(_circuit_shard, tasks, workers)
        if variable_records:
            # Per-shard time grids differ; keep the (initial, final) frames.
            final_t = max(float(times[-1]) for times, _, _ in parts)
            states = np.concatenate(
                [np.stack([s[0], s[-1]]) for _, s, _ in parts], axis=1
            )
            energies = np.concatenate(
                [np.stack([e[0], e[-1]]) for _, _, e in parts], axis=1
            )
            return BatchTrajectory(
                times=np.array([0.0, final_t]),
                states=states,
                energies=energies,
            )
        times = parts[0][0]
        return BatchTrajectory(
            times=times,
            states=np.concatenate([states for _, states, _ in parts], axis=1),
            energies=np.concatenate([e for _, _, e in parts], axis=1),
        )

    with SharedArena(tag="circuit") as arena:
        sigma_shared = arena.share(sigma0)
        shared_drift = maybe_share_method(arena, drift)
        shared_energy = maybe_share_method(arena, energy)
        T = expected_record_count(simulator.config, duration)
        times_out = arena.empty((T,))
        states_out = arena.empty((T, batch, sigma0.shape[1]))
        energies_out = arena.empty((T, batch))
        tasks = [
            (
                simulator.config,
                simulator.faults,
                shared_drift,
                sigma_shared,
                part.start,
                part.stop,
                duration,
                clamp_index,
                clamp_value[part] if per_sample else clamp_value,
                shared_energy,
                seed,
                times_out,
                states_out,
                energies_out,
            )
            for part, seed in zip(slices, seeds)
        ]
        parallel_map(_circuit_shard_shm, tasks, workers)
        # Copy out before the arena unlinks the slabs on __exit__.
        return BatchTrajectory(
            times=times_out.array.copy(),
            states=states_out.array.copy(),
            energies=energies_out.array.copy(),
        )
