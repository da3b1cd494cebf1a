"""``repro.parallel`` — seed-deterministic multi-worker execution.

The DSPU exists so annealing work can proceed in parallel beyond one
coupling crossbar; this package is the software analogue: it shards the
members of a batched circuit run across a process pool
(:func:`run_batch_sharded`).

The load-bearing guarantee, pinned by ``tests/parallel/``: **results are
bit-for-bit identical for any worker count.**  Three rules deliver it:

1. Work is split into shards whose boundaries depend only on the problem
   (:func:`shard_slices`), never on ``workers``.
2. Shard ``i`` derives its RNG from ``(root_seed, i)`` via
   :meth:`numpy.random.SeedSequence.spawn` (:func:`spawn_seeds`).
3. ``workers=1`` executes the very same shard tasks serially in-process
   (:func:`parallel_map`), so per-shard floating-point arithmetic is
   byte-identical either way.

Task transport is zero-copy where the platform allows: problem arrays
and result slabs live in ``multiprocessing.shared_memory`` blocks owned
by a :class:`~repro.parallel.shm.SharedArena`, and tasks pickle
``(name, shape, dtype)`` descriptors instead of the arrays (see
:mod:`repro.parallel.shm`).  The transport never changes result bits —
the same shard functions run on the same values — only how many bytes
each task serializes.

Worker metrics and trace records merge back into the parent
:mod:`repro.obs` sinks (see ``obs.capture_worker_state`` /
``obs.merge_worker_state``).
"""

from .circuit import expected_record_count, run_batch_sharded, shard_task_bytes
from .pool import (
    DEFAULT_SHARDS,
    parallel_map,
    resolve_num_shards,
    resolve_start_method,
    shard_slices,
    spawn_seeds,
)
from .shm import (
    SharedArena,
    SharedArray,
    SharedCSR,
    SharedOperator,
    pickled_bytes,
    shm_available,
    shm_residue,
)

__all__ = [
    "DEFAULT_SHARDS",
    "SharedArena",
    "SharedArray",
    "SharedCSR",
    "SharedOperator",
    "expected_record_count",
    "parallel_map",
    "pickled_bytes",
    "resolve_num_shards",
    "resolve_start_method",
    "run_batch_sharded",
    "shard_slices",
    "shard_task_bytes",
    "shm_available",
    "shm_residue",
    "spawn_seeds",
]
