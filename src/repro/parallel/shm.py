"""Zero-copy shared-memory substrate for the parallel layer.

The PR-4 process pool pickles every shard task whole: a sharded batched
circuit run re-serializes the coupling matrix (inside the ``drift`` bound
method) once per shard, and every worker pickles its trajectory back.  That is
``O(shards x problem size)`` serialization and transient memory — the
exact scaling wall the ROADMAP's big-n item names.

This module replaces both directions with ``multiprocessing.shared_memory``:

* :class:`SharedArray` / :class:`SharedCSR` place ndarrays (and CSR
  triplets) in named shared-memory blocks.  They **pickle as a
  ``(name, shape, dtype)`` descriptor** — a few hundred bytes regardless
  of problem size — and workers attach read-only views on first access.
* :class:`SharedArena` is the single *owner* of every block it creates.
  It is a context manager: blocks are unlinked on exit, including the
  error path, so a worker crash mid-shard leaves no ``/dev/shm`` residue
  (pinned by ``tests/parallel/test_shm.py``).
* :class:`SharedOperator` is a zero-copy recipe for rebuilding a
  :class:`~repro.core.operators.CouplingOperator` inside a worker *around
  the shared buffers* — no copy, no re-validation (the parent already
  validated).
* Result slabs: callers preallocate output arrays through
  :meth:`SharedArena.empty` and workers write their shard's slice instead
  of returning pickled arrays.

Resource-tracker note: on Python < 3.13 every ``SharedMemory`` *attach*
also registers the block with the resource tracker (cpython#82300).  All
attaches here happen in pool workers, which inherit the parent's tracker
process (fork and spawn both pass the tracker fd down), and the tracker's
cache is a *set* — so a worker's attach-register is a no-op against the
owner's create-register, and the arena's single ``unlink()`` balances the
books.  Nothing may unregister in between: that would strip the owner's
entry and make the unlink print a spurious tracker KeyError.

Observability: the arena counts ``parallel.shm.blocks`` /
``parallel.shm.bytes_shared`` on the parent side and attach/detach
counters on whichever side opens a view; worker-side counts merge back
through the usual :func:`repro.obs.capture_worker_state` plumbing.
"""

from __future__ import annotations

import os
import pickle
import secrets
from contextlib import suppress
from multiprocessing import shared_memory

import numpy as np
from scipy import sparse as sp

from .. import obs

__all__ = [
    "SHM_PREFIX",
    "SharedArena",
    "SharedArray",
    "SharedCSR",
    "SharedOperator",
    "SharedOperatorMethod",
    "detach_task_attachments",
    "maybe_share_method",
    "pickled_bytes",
    "shm_available",
    "shm_residue",
]

#: Every block this module creates is named with this prefix, so tests
#: (and humans) can scan ``/dev/shm`` for leaks unambiguously.
SHM_PREFIX = "repro-shm-"

_SHM_DIR = "/dev/shm"

#: Worker-side attachments opened during the current task; the pool's
#: task wrapper detaches them in a ``finally`` (see ``pool._call_task``).
_TASK_ATTACHMENTS: list["SharedArray"] = []

_AVAILABLE: bool | None = None


def shm_available() -> bool:
    """Whether named shared memory works on this platform (cached probe)."""
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            probe = shared_memory.SharedMemory(
                name=f"{SHM_PREFIX}probe-{os.getpid():x}-{secrets.token_hex(4)}",
                create=True,
                size=1,
            )
            probe.close()
            probe.unlink()
            _AVAILABLE = True
        except Exception:  # pragma: no cover - platform without shm
            _AVAILABLE = False
    return _AVAILABLE


def shm_residue() -> list[str]:
    """Leftover repro-owned block names visible in ``/dev/shm``.

    An empty list is the invariant every code path must restore — the
    cleanup tests call this after forcing worker crashes.
    """
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux
        return []
    return sorted(
        entry for entry in os.listdir(_SHM_DIR) if entry.startswith(SHM_PREFIX)
    )


def pickled_bytes(obj) -> int:
    """Serialized size of ``obj`` — what one pool task would ship."""
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def detach_task_attachments() -> None:
    """Close every view the current task attached (pool ``finally`` hook)."""
    while _TASK_ATTACHMENTS:
        _TASK_ATTACHMENTS.pop().detach()


class SharedArray:
    """An ndarray in a named shared-memory block, pickled by descriptor.

    Instances are created by :meth:`SharedArena.share` /
    :meth:`SharedArena.empty` (owner side, view pre-attached) or by
    unpickling a descriptor inside a worker, where the first ``.array``
    access attaches a view — read-only unless the block is an output
    slab (``writable=True``).
    """

    __slots__ = ("name", "shape", "dtype", "writable", "_shm", "_array")

    def __init__(self, name: str, shape, dtype, writable: bool = False):
        self.name = name
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.writable = bool(writable)
        self._shm: shared_memory.SharedMemory | None = None
        self._array: np.ndarray | None = None

    def __reduce__(self):
        return (
            SharedArray,
            (self.name, self.shape, str(self.dtype), self.writable),
        )

    @property
    def nbytes(self) -> int:
        """Payload size of the block in bytes."""
        return int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize

    @property
    def array(self) -> np.ndarray:
        """The live ndarray view (attaching to the block on first use)."""
        if self._array is None:
            self._attach()
        return self._array

    def _attach(self) -> None:
        block = shared_memory.SharedMemory(name=self.name)
        view = np.ndarray(self.shape, dtype=self.dtype, buffer=block.buf)
        if not self.writable:
            view.flags.writeable = False
        self._shm = block
        self._array = view
        _TASK_ATTACHMENTS.append(self)
        if obs.enabled():
            obs.metrics().counter("parallel.shm.attaches").inc()

    def detach(self) -> None:
        """Close this process's view of the block (never unlinks it)."""
        if self._shm is None:
            return
        self._array = None
        # A result object may still hold a (pickled-by-value) view export;
        # closing then is deferred to process exit rather than crashing.
        with suppress(BufferError):
            self._shm.close()
        self._shm = None
        if obs.enabled():
            obs.metrics().counter("parallel.shm.detaches").inc()

    def _adopt(self, block: shared_memory.SharedMemory, view: np.ndarray) -> None:
        """Owner-side wiring: the arena pre-attaches its own view."""
        self._shm = block
        self._array = view


class SharedCSR:
    """A CSR matrix as three shared blocks plus a shape.

    :meth:`matrix` rebuilds a ``scipy.sparse.csr_matrix`` *around* the
    shared buffers (``copy=False``) — workers never duplicate the
    coupling data, only their row slices if they take any.
    """

    __slots__ = ("data", "indices", "indptr", "shape", "_matrix")

    def __init__(
        self,
        data: SharedArray,
        indices: SharedArray,
        indptr: SharedArray,
        shape: tuple[int, int],
    ):
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.shape = (int(shape[0]), int(shape[1]))
        self._matrix: sp.csr_matrix | None = None

    def __reduce__(self):
        return (SharedCSR, (self.data, self.indices, self.indptr, self.shape))

    @property
    def nnz(self) -> int:
        """Stored entries of the shared matrix."""
        return self.data.shape[0]

    def matrix(self) -> sp.csr_matrix:
        """The CSR matrix viewing the shared buffers (cached per process)."""
        if self._matrix is None:
            self._matrix = sp.csr_matrix(
                (self.data.array, self.indices.array, self.indptr.array),
                shape=self.shape,
                copy=False,
            )
        return self._matrix


class SharedOperator:
    """Zero-copy recipe for a :class:`CouplingOperator` in a worker.

    Carries the storage backend plus shared ``J`` (dense block or CSR
    triplet) and ``h``; :meth:`operator` rebuilds the operator around the
    shared views without re-validating (the parent's operator already
    passed construction).
    """

    __slots__ = ("backend", "J", "h", "symmetric", "density", "_operator")

    def __init__(self, backend: str, J, h: SharedArray, symmetric: bool, density: float):
        self.backend = backend
        self.J = J
        self.h = h
        self.symmetric = bool(symmetric)
        self.density = float(density)
        self._operator = None

    def __reduce__(self):
        return (
            SharedOperator,
            (self.backend, self.J, self.h, self.symmetric, self.density),
        )

    def operator(self):
        """The rebuilt :class:`CouplingOperator` (cached per process)."""
        if self._operator is None:
            from ..core.operators import CouplingOperator

            J = self.J.matrix() if isinstance(self.J, SharedCSR) else self.J.array
            self._operator = CouplingOperator._from_parts(
                J,
                self.h.array,
                backend=self.backend,
                symmetric=self.symmetric,
                density=self.density,
            )
        return self._operator


class SharedOperatorMethod:
    """Picklable stand-in for a bound :class:`CouplingOperator` method.

    Pickling ``operator.drift`` drags the whole coupling matrix along;
    this wrapper pickles a :class:`SharedOperator` descriptor plus a
    method name instead.  ``drift`` and ``energy`` handles built from the
    same arena share one descriptor object, so a task that carries both
    attaches (and rebuilds) exactly once.
    """

    __slots__ = ("shared", "method")

    def __init__(self, shared: SharedOperator, method: str):
        self.shared = shared
        self.method = method

    def __reduce__(self):
        return (SharedOperatorMethod, (self.shared, self.method))

    def __call__(self, *args, **kwargs):
        return getattr(self.shared.operator(), self.method)(*args, **kwargs)


class SharedArena:
    """Owner of a family of shared-memory blocks (context manager).

    Every block created through the arena is unlinked on :meth:`close` —
    which the ``with`` statement reaches on success *and* on error — so a
    raising worker, a failed map, or an exception between share and run
    can never strand a block in ``/dev/shm``.
    """

    def __init__(self, tag: str = "arena"):
        self._tag = tag
        self._blocks: list[shared_memory.SharedMemory] = []
        self._operators: dict[int, SharedOperator] = {}
        self._closed = False

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _new_block(self, nbytes: int) -> shared_memory.SharedMemory:
        if self._closed:
            raise RuntimeError("arena is closed")
        name = f"{SHM_PREFIX}{self._tag}-{os.getpid():x}-{secrets.token_hex(4)}"
        block = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, int(nbytes))
        )
        self._blocks.append(block)
        if obs.enabled():
            obs.metrics().counter("parallel.shm.blocks").inc()
            obs.metrics().counter("parallel.shm.bytes_shared").inc(
                max(1, int(nbytes))
            )
        return block

    def share(self, array: np.ndarray, writable: bool = False) -> SharedArray:
        """Copy ``array`` into a new block; returns the descriptor handle.

        The one copy here replaces ``shards`` pickled copies downstream.
        """
        array = np.ascontiguousarray(array)
        block = self._new_block(array.nbytes)
        handle = SharedArray(
            block.name, array.shape, array.dtype, writable=writable
        )
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
        view[...] = array
        if not writable:
            view.flags.writeable = False
        handle._adopt(block, view)
        return handle

    def empty(self, shape, dtype=float) -> SharedArray:
        """A zero-initialized writable output slab for workers to fill."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        block = self._new_block(nbytes)
        handle = SharedArray(block.name, shape, dtype, writable=True)
        view = np.ndarray(handle.shape, dtype=dtype, buffer=block.buf)
        view[...] = 0
        handle._adopt(block, view)
        return handle

    def share_csr(self, matrix) -> SharedCSR:
        """Share a CSR matrix as a (data, indices, indptr) triplet."""
        matrix = matrix.tocsr() if not sp.isspmatrix_csr(matrix) else matrix
        return SharedCSR(
            self.share(matrix.data),
            self.share(matrix.indices),
            self.share(matrix.indptr),
            matrix.shape,
        )

    def share_operator(self, operator) -> SharedOperator:
        """Share a :class:`CouplingOperator` (memoized per operator)."""
        key = id(operator)
        shared = self._operators.get(key)
        if shared is None:
            J = operator._J
            shared = SharedOperator(
                backend=operator.backend,
                J=self.share_csr(J) if sp.issparse(J) else self.share(J),
                h=self.share(operator.h),
                symmetric=operator.symmetric,
                density=operator.density,
            )
            self._operators[key] = shared
        return shared

    def close(self) -> None:
        """Close the owner views and unlink every block (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for block in self._blocks:
            # close() can refuse while result copies are being taken from
            # a still-exported view; unlink works regardless on POSIX and
            # is the call that actually frees /dev/shm.
            with suppress(BufferError):
                block.close()
            with suppress(FileNotFoundError):
                block.unlink()
        self._blocks.clear()
        self._operators.clear()


def maybe_share_method(arena: SharedArena, fn):
    """Swap a bound ``CouplingOperator`` method for a shared-memory handle.

    Any other callable (module-level function, other bound method, or
    ``None``) is returned unchanged and travels by pickle as before — the
    zero-copy path is an optimization, never a new requirement.
    """
    if fn is None:
        return None
    from ..core.operators import CouplingOperator

    owner = getattr(fn, "__self__", None)
    if isinstance(owner, CouplingOperator):
        return SharedOperatorMethod(arena.share_operator(owner), fn.__name__)
    return fn
