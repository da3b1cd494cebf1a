"""Process-pool plumbing behind :func:`~repro.parallel.run_batch_sharded`.

Three primitives keep the parallel layer seed-deterministic:

* :func:`shard_slices` — contiguous, balanced shard boundaries that are a
  function of the *problem size only*.  Worker count never changes how
  work is split, so ``workers=4`` executes exactly the shards that
  ``workers=1`` executes (just concurrently), and per-shard floating-point
  arithmetic — hence every bit of the output — is identical.
* :func:`spawn_seeds` — per-shard RNG seeds derived from
  ``(root_seed, shard_index)`` via :meth:`numpy.random.SeedSequence.spawn`,
  the collision-resistant derivation NumPy designed for exactly this.
* :func:`parallel_map` — ordered fan-out over a fresh ``fork`` process
  pool per call (falling back to ``spawn`` where fork is unavailable).
  ``workers=1`` runs the same task functions serially in-process, which
  is what the equivalence suite in ``tests/parallel/`` pins against.

Observability crosses the process boundary explicitly: workers drop the
sinks they inherited on fork (see :func:`repro.obs.worker_reset` — closing
an inherited file handle would corrupt the parent's trace stream), collect
into fresh in-memory sinks when the parent is observing, and ship the
result back with each task's return value for the parent to merge.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from typing import Callable, Sequence

import numpy as np

from .. import obs
from .shm import detach_task_attachments

__all__ = [
    "DEFAULT_SHARDS",
    "parallel_map",
    "resolve_num_shards",
    "resolve_start_method",
    "shard_slices",
    "spawn_seeds",
]

#: Default shard count when the caller does not pin one.  Fixed (never
#: derived from ``workers``) so the shard decomposition — and therefore
#: the bit pattern of every result — is independent of worker count.
DEFAULT_SHARDS = 4

#: Environment override for the pool start method; CI's spawn matrix leg
#: sets it so Linux (where ``fork`` is the default) also exercises the
#: pickle-everything spawn path the equivalence contract covers.
START_METHOD_ENV = "REPRO_PARALLEL_START_METHOD"


def resolve_start_method() -> str:
    """The multiprocessing start method for this ``parallel_map`` call.

    ``fork`` where available (cheap, inherits the parent image), ``spawn``
    otherwise; :data:`START_METHOD_ENV` overrides either way.  Resolved
    per call, not at import, so tests and CI can flip it at runtime.
    """
    requested = os.environ.get(START_METHOD_ENV)
    available = multiprocessing.get_all_start_methods()
    if requested:
        if requested not in available:
            raise ValueError(
                f"{START_METHOD_ENV}={requested!r} is not one of {available}"
            )
        return requested
    return "fork" if "fork" in available else "spawn"


def shard_slices(total: int, num_shards: int) -> list[slice]:
    """Split ``range(total)`` into contiguous, balanced slices.

    The first ``total % num_shards`` shards receive one extra element.
    Shard boundaries depend only on ``total`` and ``num_shards``.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    num_shards = min(num_shards, max(total, 1))
    base, extra = divmod(total, num_shards)
    slices = []
    start = 0
    for index in range(num_shards):
        size = base + (1 if index < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


def resolve_num_shards(total: int, shards: int | None) -> int:
    """The effective shard count for ``total`` work items.

    ``shards=None`` means :data:`DEFAULT_SHARDS`; the result is clamped to
    ``total`` (no empty shards) and floored at 1.
    """
    if shards is not None and shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    requested = DEFAULT_SHARDS if shards is None else shards
    return max(1, min(requested, total))


def spawn_seeds(
    root_seed: int | np.random.SeedSequence, num_shards: int
) -> list[np.random.SeedSequence]:
    """Independent per-shard seed sequences derived from ``root_seed``.

    Shard ``i`` always receives the ``i``-th spawned child, so the stream
    feeding a given slice of the batch is a pure function of
    ``(root_seed, shard_index)`` — never of worker count.
    """
    if isinstance(root_seed, np.random.SeedSequence):
        sequence = root_seed
    else:
        sequence = np.random.SeedSequence(root_seed)
    return sequence.spawn(num_shards)


def _worker_init() -> None:
    """Pool initializer: detach sinks inherited across the fork."""
    obs.worker_reset()


def _call_task(payload: tuple) -> tuple:
    """Run one task in a worker, optionally capturing observability.

    Shared-memory views attached while the task ran are closed in the
    ``finally`` — a long-lived pool worker must not accumulate mappings of
    blocks the parent is about to unlink.

    ``ctx`` is the parent's :func:`repro.obs.trace_context` and ``index``
    the task's position in the dispatching ``parallel_map``; together they
    let the worker's records stitch back into the parent timeline (same
    trace id, re-parented under the parent's open span, task-tagged).
    """
    fn, args, collect, ctx, index = payload
    if not collect:
        try:
            return fn(*args), None
        finally:
            detach_task_attachments()
    # Detach inside the capture scope so the detach counters ride back to
    # the parent with the rest of this task's metrics.
    with obs.capture_worker_state(parent=ctx, task=index) as state:
        try:
            with obs.tracer().span("parallel.task", task=index):
                result = fn(*args)
        finally:
            detach_task_attachments()
    return result, state


def _account_pickled(payloads: list) -> None:
    """Record per-task serialized sizes (only when metrics are live)."""
    registry = obs.metrics()
    sizes = [
        len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        for payload in payloads
    ]
    registry.counter("parallel.tasks").inc(len(sizes))
    registry.counter("parallel.bytes_pickled").inc(sum(sizes))
    histogram = registry.histogram("parallel.task_pickled_bytes")
    for size in sizes:
        histogram.observe(size)


def parallel_map(
    fn: Callable,
    tasks: Sequence[tuple],
    workers: int | None = 1,
) -> list:
    """``[fn(*task) for task in tasks]``, fanned out over ``workers``.

    Results come back in task order.  ``workers`` of ``None`` or 1 (or a
    single task) short-circuits to an in-process loop — same task
    function, same order, so parallel and serial runs are bit-for-bit
    interchangeable.  ``fn`` and every task argument must be picklable
    (``fn`` must be a module-level callable or bound method of one).

    When the parent has observability enabled, each worker task collects
    metrics/trace records locally and the parent merges them back (in
    task order) into the live :mod:`repro.obs` sinks; the parent also
    records per-task pickled payload sizes (``parallel.bytes_pickled``),
    the quantity the shared-memory descriptors exist to shrink.
    """
    workers = 1 if workers is None else int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = list(tasks)
    if workers == 1 or len(tasks) <= 1:
        if not obs.enabled():
            try:
                return [fn(*args) for args in tasks]
            finally:
                detach_task_attachments()
        # Mirror the pooled span structure (parallel.map wrapping one
        # parallel.task per task, in task order) so the recorded span-name
        # sequence is identical at any worker count.
        try:
            with obs.tracer().span(
                "parallel.map", tasks=len(tasks), workers=1
            ):
                results = []
                for index, args in enumerate(tasks):
                    with obs.tracer().span("parallel.task", task=index):
                        results.append(fn(*args))
                return results
        finally:
            detach_task_attachments()

    collect = obs.enabled()
    with obs.tracer().span(
        "parallel.map", tasks=len(tasks), workers=workers
    ):
        # Captured *inside* the map span: worker roots re-parent onto it.
        ctx = obs.trace_context()
        payloads = [
            (fn, args, collect, ctx, index)
            for index, args in enumerate(tasks)
        ]
        if collect:
            _account_pickled(payloads)
        context = multiprocessing.get_context(resolve_start_method())
        processes = min(workers, len(tasks))
        with context.Pool(
            processes=processes, initializer=_worker_init
        ) as pool:
            outputs = pool.map(_call_task, payloads, chunksize=1)
        results = []
        for result, state in outputs:
            if state is not None:
                obs.merge_worker_state(state)
            results.append(result)
        return results
