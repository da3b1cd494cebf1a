"""Pluggable coupling-operator backends for the annealing hot paths.

Every hot loop of the software DSPU reduces to products with the coupling
matrix ``J``: the drift evaluation inside the circuit integrator (one
``J @ sigma`` per step, four per RK4 step), the Hamiltonian energies
recorded along a trajectory, and the clamped-reduced linear system solved
by equilibrium inference.  Trained GL systems are sparse after
decomposition (Sec. IV.B prunes to a few percent density), so the same
algebra can be served by ``scipy.sparse`` at a fraction of the dense cost.

:class:`CouplingOperator` hides the storage choice behind one interface:

* ``backend="dense"`` — a plain ``(n, n)`` ndarray; BLAS matvecs.
* ``backend="sparse"`` — a CSR matrix; matvec cost scales with the number
  of non-zero couplings instead of ``n**2``.
* ``backend="auto"`` — selects sparse when the system is large enough and
  its off-diagonal density is below a threshold (see
  :func:`select_backend`).

All operations accept both a single state ``(n,)`` and a state batch
``(batch, n)``, which is what lets :class:`~repro.core.dynamics.
CircuitSimulator.run_batch` and the batched inference paths share one
matvec per integration step across a whole batch of samples.
"""

from __future__ import annotations

import copy

import numpy as np
from scipy import sparse as sp
from scipy.linalg import LinAlgError, lu_factor, lu_solve
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import splu

from .fingerprint import content_fingerprint

__all__ = [
    "CouplingOperator",
    "ReducedSystem",
    "select_backend",
    "DEFAULT_DENSITY_THRESHOLD",
    "DEFAULT_MIN_SPARSE_SIZE",
    "DEFAULT_MAX_UPDATE_RANK",
]

#: Off-diagonal density at or below which ``auto`` prefers the sparse
#: backend.  CSR matvec beats BLAS only once the matrix is genuinely
#: sparse; a quarter of the entries is a conservative crossover.
DEFAULT_DENSITY_THRESHOLD = 0.25

#: Smallest system size for which ``auto`` may pick sparse storage; below
#: this the dense matvec fits in cache and index indirection only hurts.
DEFAULT_MIN_SPARSE_SIZE = 64

#: Default bound on the accumulated Sherman-Morrison-Woodbury update rank
#: a :class:`ReducedSystem` will carry before requesting a refactorization.
#: Each SMW solve costs an extra ``O(num_free * rank)`` on top of the back
#: substitution, so past a few dozen columns refactoring wins anyway.
DEFAULT_MAX_UPDATE_RANK = 32


def node_columns(index: np.ndarray):
    """``index`` as a slice when it is one ascending run of consecutive
    nodes (the predicted nodes of a window are), else unchanged.

    Both select the same columns; with the slice numpy returns views and
    assigns blocks instead of gathering and scattering.
    """
    index = np.asarray(index)
    if index.size and np.all(np.diff(index) == 1):
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def _csr_accumulate(indptr, indices, data, columns: int, x, out) -> None:
    """``out += A @ x`` for the CSR rows ``A = (indptr, indices, data)``
    over ``columns`` input rows.

    This is scipy's CSR kernel without the zeroed output and the copy of
    ``x`` that its ``@`` adds.  Each ``out`` entry starts from its current
    value and adds ``data[k] * x[indices[k]]`` in storage order, with one
    rounding per product and one per sum.  ``x`` is ``(columns,)`` or
    ``(columns, batch)``, ``out`` is ``(rows,)`` or ``(rows, batch)``, and
    both are C-contiguous with ``data``'s dtype.  The kernel checks no
    bounds, so the shapes are checked here, and ``indices`` must lie in
    ``[0, columns)``.  ``tests/core/test_clamped_prefix.py`` pins the
    kernel's arithmetic.
    """
    rows = indptr.size - 1
    if x.shape[:1] != (columns,) or out.shape != (rows,) + x.shape[1:]:
        raise ValueError(
            f"cannot accumulate {rows} rows over {columns} columns from an "
            f"input of shape {x.shape} into shape {out.shape}"
        )
    vectors = x.shape[1] if x.ndim == 2 else 1
    _sparsetools.csr_matvecs(
        rows, columns, vectors, indptr, indices, data, x, out
    )


class _RowsDrift:
    """The drift currents of the nodes ``rows`` alone, optionally bound to
    one run (see :meth:`CouplingOperator._rows_drift`).

    A full ``(n,)`` or ``(batch, n)`` state in, ``h[rows] * sigma[...,
    rows] + (J[rows] @ sigma.T).T`` out, each CSR row summed in storage
    order by :func:`_csr_accumulate`.

    :meth:`bind` fixes the run's free nodes and clamped values.  The
    leading entries of each row whose columns are clamped are summed once,
    into a per-member *prefix*, and each call continues the row sums from
    it over the remaining entries.  A clamped entry that follows a free
    one stays in the per-call sums: it falls between two partial sums that
    change, and floating-point addition is not associative.  Each call
    then gathers only the free columns and the clamped columns the
    remaining entries read.  Unbound, the prefix is empty: every entry is
    summed per call, from +0.0.
    """

    def __init__(self, J_rows, h_rows, rows, free=None, sigma=None):
        self.rows = rows
        self.dtype = J_rows.dtype
        self._J_rows = J_rows
        self._h = h_rows
        self._cols = node_columns(rows)
        count, n = J_rows.shape
        indptr, indices, data = J_rows.indptr, J_rows.indices, J_rows.data
        self._prefix = None
        if free is None:
            self._rest = (indptr, indices, data, n)
            self._read = slice(0, n)
        else:
            itype = indices.dtype
            is_free = np.zeros(n, dtype=bool)
            is_free[free] = True
            # An entry leads when no entry of its row up to it is free.
            seen = np.cumsum(is_free[indices])
            before = np.concatenate(([0], seen))[indptr[:-1]]
            lead = seen == np.repeat(before, np.diff(indptr))
            rest = ~lead
            lead_ptr = np.concatenate(([0], np.cumsum(lead)))[indptr]
            lead_ptr = lead_ptr.astype(itype)
            # Each call reads the free columns and those the rest reads.
            is_free[indices[rest]] = True
            read = np.flatnonzero(is_free)
            position = np.zeros(n, dtype=itype)
            position[read] = np.arange(read.size)
            self._rest = (
                indptr - lead_ptr,
                position[indices[rest]],
                data[rest],
                read.size,
            )
            self._read = node_columns(read)
            x = np.ascontiguousarray(np.asarray(sigma).T, dtype=self.dtype)
            self._prefix = np.zeros((count,) + x.shape[1:], dtype=self.dtype)
            _csr_accumulate(
                lead_ptr, indices[lead], data[lead], n, x, self._prefix
            )
        #: CSR entries each call multiplies, and those folded into the prefix.
        self.drift_entries = int(self._rest[2].size)
        self.folded_entries = int(indices.size) - self.drift_entries

    def __call__(self, sigma):
        sigma = np.asarray(sigma)
        x = np.ascontiguousarray(sigma.T[self._read], dtype=self.dtype)
        if self._prefix is None:
            sums = np.zeros((self.rows.size,) + x.shape[1:], dtype=self.dtype)
        else:
            sums = self._prefix.copy()
        _csr_accumulate(*self._rest, x, sums)
        currents = self._h * sigma[..., self._cols]
        currents += sums.T
        return currents

    def bind(self, sigma: np.ndarray, free: np.ndarray) -> "_RowsDrift":
        """This drift for one run: the currents of the sorted ``free``
        nodes, for states whose other columns hold ``sigma``'s values.

        Raises ``ValueError`` when a free node is not among :attr:`rows`.
        """
        position = np.full(self._J_rows.shape[1], -1)
        position[self.rows] = np.arange(self.rows.size)
        keep = position[free]
        if np.any(keep < 0):
            raise ValueError("the drift does not compute every free node")
        return _RowsDrift(
            self._J_rows[keep], self._h[keep], self.rows[keep], free, sigma
        )

    def select(self, members) -> "_RowsDrift":
        """A bound batch drift for the batch members ``members`` (an index
        or a mask over the batch) alone."""
        if self._prefix is None:
            return self
        narrowed = copy.copy(self)
        narrowed._prefix = self._prefix[:, members]
        return narrowed


def _offdiag_density(J) -> float:
    """Fraction of non-zero off-diagonal entries of dense or sparse ``J``."""
    n = J.shape[0]
    if n < 2:
        return 0.0
    if sp.issparse(J):
        nnz = J.count_nonzero() - int(np.count_nonzero(J.diagonal()))
    else:
        nnz = int(np.count_nonzero(J)) - int(np.count_nonzero(np.diag(J)))
    return float(nnz) / (n * (n - 1))


def select_backend(
    J,
    density_threshold: float = DEFAULT_DENSITY_THRESHOLD,
    min_sparse_size: int = DEFAULT_MIN_SPARSE_SIZE,
) -> str:
    """Pick ``"dense"`` or ``"sparse"`` for a coupling matrix.

    Args:
        J: Dense ndarray or scipy sparse matrix, shape ``(n, n)``.
        density_threshold: Maximum off-diagonal density for sparse storage.
        min_sparse_size: Minimum ``n`` for sparse storage.

    Returns:
        The backend name.
    """
    n = J.shape[0]
    if n >= min_sparse_size and _offdiag_density(J) <= density_threshold:
        return "sparse"
    return "dense"


class ReducedSystem:
    """The clamped-reduced linear system of equilibrium inference, factored once.

    With the observed nodes clamped, the free nodes of a convex system sit
    at the solution of (Eq. 10)::

        (J_ff + diag(h_f)) sigma_f = -J_fo sigma_o

    Accuracy sweeps re-solve this system thousands of times with different
    right-hand sides but the *same* observed-index set, so the expensive
    part — the LU factorization of the left-hand side — is computed once
    here and reused for every solve (dense ``lu_factor`` or sparse
    ``splu`` depending on the operator backend).

    Streaming deltas extend the reuse story across *matrix* changes:
    :meth:`apply_increments` folds small edits (an edge reweight, an
    ``h`` nudge) into the held factorization as low-rank
    Sherman-Morrison-Woodbury corrections instead of refactoring, with
    one step of iterative refinement per solve and a measured relative
    residual.  When the accumulated update rank would exceed
    :attr:`max_update_rank`, or a solve's residual exceeds
    :attr:`residual_tol`, the system flags :attr:`needs_refactor` and the
    owner falls back to a full refactorization.

    Attributes:
        backend: ``"dense"`` or ``"sparse"`` — which factorization is held.
        num_free: Number of free (solved-for) nodes.
        num_observed: Number of clamped nodes.
        free_index: Global indices of the free nodes, when the builder
            provided them (required for :meth:`apply_increments`).
        clamp_index: Global indices of the clamped nodes, likewise.
        max_update_rank: SMW rank budget before refactorization.
        residual_tol: Relative residual bound on corrected solves;
            defaults to ``sqrt(eps)`` of the factored dtype.
        update_rank: SMW columns currently folded into solves.
        updates_applied: Number of successful :meth:`apply_increments`.
        last_residual: Relative residual of the most recent corrected
            solve (``0.0`` while no updates are held — base solves are
            exact to the factorization).
        needs_refactor: True once the residual bound was exceeded; the
            system keeps solving (best effort) but owners should rebuild.
    """

    def __init__(
        self,
        A,
        B,
        backend: str,
        free_index: np.ndarray | None = None,
        clamp_index: np.ndarray | None = None,
        max_update_rank: int = DEFAULT_MAX_UPDATE_RANK,
        residual_tol: float | None = None,
    ):
        self.backend = backend
        self.num_free = int(A.shape[0])
        self.num_observed = int(B.shape[1])
        self._B = B
        self._A = A
        dtype = np.asarray(A.data if sp.issparse(A) else A).dtype
        if dtype.kind != "f":
            dtype = np.dtype(float)
        if residual_tol is None:
            residual_tol = float(np.sqrt(np.finfo(dtype).eps))
        self.residual_tol = float(residual_tol)
        self.max_update_rank = int(max_update_rank)
        self.free_index = None
        self.clamp_index = None
        self._free_pos: dict[int, int] = {}
        self._clamp_pos: dict[int, int] = {}
        if free_index is not None:
            self.free_index = np.asarray(free_index, dtype=int).reshape(-1)
            self._free_pos = {
                int(g): p for p, g in enumerate(self.free_index)
            }
        if clamp_index is not None:
            self.clamp_index = np.asarray(clamp_index, dtype=int).reshape(-1)
            self._clamp_pos = {
                int(g): p for p, g in enumerate(self.clamp_index)
            }
        self._U: np.ndarray | None = None
        self._V: np.ndarray | None = None
        self._Z: np.ndarray | None = None
        self._S_factor = None
        self.update_rank = 0
        self.updates_applied = 0
        self.last_residual = 0.0
        self.needs_refactor = False
        if self.num_free == 0:
            self._solve = None
        elif backend == "sparse":
            self._solve = splu(sp.csc_matrix(A)).solve
        else:
            factorization = lu_factor(np.asarray(A))
            self._solve = lambda rhs: lu_solve(factorization, rhs)

    # ------------------------------------------------------------------
    # Incremental (Sherman-Morrison-Woodbury) updates
    # ------------------------------------------------------------------
    def apply_increments(self, edge_increments, h_increments) -> bool:
        """Fold coupling/self-reaction edits into the held factorization.

        Args:
            edge_increments: Iterable of ``(i, j, old, new)`` symmetric
                edge edits in *global* node indices (``i != j``; both
                orientations are implied).
            h_increments: Iterable of ``(i, old, new)`` self-reaction
                edits in global node indices.

        Edits touching two free nodes (or the free diagonal through
        ``h``) become rank-1/rank-2 SMW columns against the *original*
        factorization; free-observed edits rewrite the right-hand-side
        matrix ``B`` exactly; observed-observed edits are no-ops.  Solves
        then apply the Woodbury correction plus one iterative-refinement
        step, tracking :attr:`last_residual`.

        Returns:
            False when the update cannot be absorbed — no index maps
            were provided, the rank budget would be exceeded,
            :attr:`needs_refactor` is already set, or the small capacity
            system is singular.  The caller should refactorize; this
            system is left unchanged in that case.
        """
        if self.num_free == 0:
            return True
        if not self._free_pos and not self._clamp_pos:
            return False
        if self.needs_refactor:
            return False
        u_cols: list[np.ndarray] = []
        v_cols: list[np.ndarray] = []
        b_edits: list[tuple[int, int, float]] = []
        for i, j, old, new in edge_increments:
            i, j = int(i), int(j)
            dw = float(new) - float(old)
            p = self._free_pos.get(i)
            q = self._free_pos.get(j)
            if p is not None and q is not None:
                e_p = np.zeros(self.num_free)
                e_q = np.zeros(self.num_free)
                e_p[p] = 1.0
                e_q[q] = 1.0
                u_cols.extend((e_p, e_q))
                v_cols.extend((dw * e_q, dw * e_p))
            elif p is not None:
                c = self._clamp_pos.get(j)
                if c is None:
                    return False
                b_edits.append((p, c, -float(new)))
            elif q is not None:
                c = self._clamp_pos.get(i)
                if c is None:
                    return False
                b_edits.append((q, c, -float(new)))
            # Both observed: J_oo never enters the reduced system.
        for i, old, new in h_increments:
            p = self._free_pos.get(int(i))
            if p is None:
                continue
            dv = float(new) - float(old)
            e_p = np.zeros(self.num_free)
            e_p[p] = 1.0
            u_cols.append(e_p)
            v_cols.append(dv * e_p)
        added = len(u_cols)
        if self.update_rank + added > self.max_update_rank:
            return False
        if added:
            U_new = np.column_stack(u_cols)
            V_new = np.column_stack(v_cols)
            Z_new = np.asarray(self._solve(U_new))
            if Z_new.ndim == 1:
                Z_new = Z_new.reshape(-1, 1)
            if self._U is None:
                U, V, Z = U_new, V_new, Z_new
            else:
                U = np.concatenate((self._U, U_new), axis=1)
                V = np.concatenate((self._V, V_new), axis=1)
                Z = np.concatenate((self._Z, Z_new), axis=1)
            rank = U.shape[1]
            S = np.eye(rank) + V.T @ Z
            try:
                S_factor = lu_factor(S)
            except (LinAlgError, ValueError):
                return False
            self._U, self._V, self._Z = U, V, Z
            self._S_factor = S_factor
            self.update_rank = rank
        if b_edits:
            self._set_B_entries(b_edits)
        self.updates_applied += 1
        return True

    def _set_B_entries(self, edits: list[tuple[int, int, float]]) -> None:
        """SET entries of the right-hand-side matrix ``B`` exactly."""
        if sp.issparse(self._B):
            coo = self._B.tocoo()
            edited = {(p, c) for p, c, _ in edits}
            keep = np.fromiter(
                (
                    (int(r), int(c)) not in edited
                    for r, c in zip(coo.row, coo.col)
                ),
                dtype=bool,
                count=coo.nnz,
            )
            rows = list(coo.row[keep])
            cols = list(coo.col[keep])
            data = list(coo.data[keep])
            for p, c, value in edits:
                if value != 0.0:
                    rows.append(p)
                    cols.append(c)
                    data.append(value)
            rebuilt = sp.csr_matrix(
                (data, (rows, cols)),
                shape=self._B.shape,
                dtype=self._B.dtype,
            )
            rebuilt.sum_duplicates()
            rebuilt.sort_indices()
            self._B = rebuilt
        else:
            for p, c, value in edits:
                self._B[p, c] = value

    def _apply_updated(self, x: np.ndarray) -> np.ndarray:
        """``A' @ x`` for the updated matrix ``A' = A0 + U V^T``."""
        out = np.asarray(self._A @ x)
        if self.update_rank:
            out = out + self._U @ (self._V.T @ x)
        return out

    def _smw_apply(self, x0: np.ndarray) -> np.ndarray:
        """Woodbury-corrected solution from a base solution ``A0^-1 rhs``."""
        w = self._V.T @ x0
        y = lu_solve(self._S_factor, w)
        return x0 - self._Z @ y

    def _corrected_solve(self, rhs: np.ndarray) -> np.ndarray:
        """SMW solve + one iterative-refinement step, residual-tracked."""
        x = self._smw_apply(np.asarray(self._solve(rhs)))
        r = rhs - self._apply_updated(x)
        x = x + self._smw_apply(np.asarray(self._solve(r)))
        r = rhs - self._apply_updated(x)
        rhs_norm = np.linalg.norm(rhs, axis=0)
        res_norm = np.linalg.norm(r, axis=0)
        scale = np.maximum(rhs_norm, np.finfo(float).tiny)
        self.last_residual = float(np.max(res_norm / scale))
        if self.last_residual > self.residual_tol:
            self.needs_refactor = True
        return x

    def solve(self, clamp_values: np.ndarray) -> np.ndarray:
        """Free-node equilibrium states for one or many clamp assignments.

        Args:
            clamp_values: Normalized observed-node values, ``(k,)`` for a
                single sample or ``(batch, k)`` for a batch.

        Returns:
            ``(num_free,)`` or ``(batch, num_free)`` free-node voltages.
        """
        clamp_values = np.asarray(clamp_values, dtype=float)
        single = clamp_values.ndim == 1
        if clamp_values.ndim not in (1, 2):
            raise ValueError(
                f"clamp_values must be 1-D or 2-D, got shape {clamp_values.shape}"
            )
        if clamp_values.shape[-1] != self.num_observed:
            raise ValueError(
                f"expected {self.num_observed} observed values per sample, "
                f"got {clamp_values.shape[-1]}"
            )
        if self.num_free == 0:
            shape = (0,) if single else (clamp_values.shape[0], 0)
            return np.zeros(shape)
        rhs = self._B @ (clamp_values if single else clamp_values.T)
        rhs = np.asarray(rhs)
        if self.update_rank:
            out = self._corrected_solve(rhs)
        else:
            out = self._solve(rhs)
        return out if single else out.T


class CouplingOperator:
    """Backend-selected linear operator over a coupling pair ``(J, h)``.

    Wraps the symmetric coupling matrix as either a dense ndarray or a
    ``scipy.sparse.csr_matrix`` and serves the three annealing hot paths —
    drift evaluation, real-valued Hamiltonian energy, and the
    clamped-reduced system — for single states and state batches alike.

    The same storage/backend machinery also serves the GNN baselines'
    graph propagation (``repro.nn.graph``): a normalized adjacency is in
    general *asymmetric* with a non-zero diagonal, so ``symmetric=False``
    skips the Ising-side validation and makes :meth:`matvec` /
    :meth:`rmatvec` orientation-aware.

    Args:
        J: Coupling matrix; dense ndarray or any scipy sparse matrix.
            Must be symmetric with zero diagonal unless ``symmetric`` is
            False.
        h: ``(n,)`` self-reaction vector, or ``None`` for zeros (pure
            linear-operator use).
        backend: ``"dense"``, ``"sparse"``, or ``"auto"`` (density-based).
        density_threshold: ``auto`` crossover density (see
            :func:`select_backend`).
        min_sparse_size: ``auto`` minimum size for sparse storage.
        symmetric: Declare ``J`` symmetric with zero diagonal (validated).
            Pass False for general matrices such as normalized graph
            adjacencies.
        dtype: Storage dtype; ``None`` keeps the historical float64.
    """

    def __init__(
        self,
        J,
        h: np.ndarray | None = None,
        backend: str = "auto",
        density_threshold: float = DEFAULT_DENSITY_THRESHOLD,
        min_sparse_size: int = DEFAULT_MIN_SPARSE_SIZE,
        symmetric: bool = True,
        dtype=None,
    ):
        if backend not in ("auto", "dense", "sparse"):
            raise ValueError(f"unknown backend {backend!r}")
        dtype = np.dtype(float if dtype is None else dtype)
        if dtype.kind != "f":
            raise TypeError(f"operator dtype must be floating, got {dtype}")
        if sp.issparse(J):
            J = J.tocsr().astype(dtype)
        else:
            J = np.asarray(J, dtype=dtype)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise ValueError(f"coupling matrix must be square, got shape {J.shape}")
        if h is None:
            self.h = np.zeros(J.shape[0], dtype=dtype)
        else:
            self.h = np.asarray(h, dtype=dtype).reshape(-1)
        if self.h.shape[0] != J.shape[0]:
            raise ValueError(
                f"self-reaction vector length {self.h.shape[0]} does not "
                f"match system size {J.shape[0]}"
            )
        self.symmetric = bool(symmetric)
        if self.symmetric:
            self._validate_symmetric(J)
        if backend == "auto":
            backend = select_backend(J, density_threshold, min_sparse_size)
        self.backend = backend
        if backend == "sparse":
            self._J = J if sp.issparse(J) else sp.csr_matrix(J)
        else:
            self._J = J.toarray() if sp.issparse(J) else J
        self._JT = None
        self._density = _offdiag_density(self._J)

    @classmethod
    def _from_parts(
        cls,
        J,
        h: np.ndarray,
        *,
        backend: str,
        symmetric: bool,
        density: float,
    ) -> "CouplingOperator":
        """Rebuild an operator around already-validated storage, zero-copy.

        The shared-memory transport (:mod:`repro.parallel.shm`) hands
        workers read-only views of a parent operator's ``J``/``h``; going
        through ``__init__`` would copy them and re-run the O(n^2)
        symmetry check the parent already passed.  ``J`` must match the
        declared ``backend`` (CSR for ``"sparse"``, ndarray otherwise).
        """
        operator = object.__new__(cls)
        operator._J = J
        operator.h = h
        operator.backend = backend
        operator.symmetric = bool(symmetric)
        operator._JT = None
        operator._density = float(density)
        return operator

    @staticmethod
    def _validate_symmetric(J) -> None:
        if sp.issparse(J):
            asym = J - J.T
            max_asym = float(np.max(np.abs(asym.data))) if asym.nnz else 0.0
            if max_asym > 1e-9:
                raise ValueError("coupling matrix must be symmetric")
            if np.any(np.abs(J.diagonal()) > 1e-12):
                raise ValueError("coupling matrix must have a zero diagonal")
        else:
            if not np.allclose(J, J.T, atol=1e-9):
                raise ValueError("coupling matrix must be symmetric")
            if not np.allclose(np.diag(J), 0.0, atol=1e-12):
                raise ValueError("coupling matrix must have a zero diagonal")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of system variables."""
        return self._J.shape[0]

    @property
    def density(self) -> float:
        """Fraction of non-zero off-diagonal couplings."""
        return self._density

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the coupling matrix."""
        return self._J.dtype

    @property
    def nnz(self) -> int:
        """Number of stored non-zero couplings."""
        if sp.issparse(self._J):
            return int(self._J.count_nonzero())
        return int(np.count_nonzero(self._J))

    def to_dense(self) -> np.ndarray:
        """The coupling matrix as a dense ndarray (always a copy)."""
        if sp.issparse(self._J):
            return self._J.toarray()
        return self._J.copy()

    def fingerprint(self, checksum: bool = False) -> str:
        """Content fingerprint of ``(J, h)`` for cache keying.

        See :func:`repro.core.fingerprint.content_fingerprint`;
        ``checksum=True`` makes any value change observable at O(n) cost.
        """
        return content_fingerprint((self._J, self.h), checksum=checksum)

    def entry(self, i: int, j: int) -> float:
        """The stored coupling value ``J[i, j]`` (0.0 when absent)."""
        if sp.issparse(self._J):
            pos = self._csr_pos(i, j)
            return float(self._J.data[pos]) if pos >= 0 else 0.0
        return float(self._J[i, j])

    def _csr_pos(self, i: int, j: int) -> int:
        """Position of ``(i, j)`` in the CSR data array, or -1 if absent."""
        indptr = self._J.indptr
        indices = self._J.indices
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        pos = lo + int(np.searchsorted(indices[lo:hi], j))
        if pos < hi and indices[pos] == j:
            return pos
        return -1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CouplingOperator(n={self.n}, backend={self.backend!r}, "
            f"density={self.density:.4f})"
        )

    # ------------------------------------------------------------------
    # Hot-path algebra
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``J @ x`` for a state ``(n,)`` or a state batch ``(batch, n)``.

        The batched form shares one matrix product across the batch — for
        the dense backend a single BLAS GEMM, for the sparse backend one
        CSR multi-vector product.
        """
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim == 1:
            return self._J @ x
        if x.ndim != 2:
            raise ValueError(f"state must be 1-D or 2-D, got shape {x.shape}")
        if sp.issparse(self._J):
            return np.asarray((self._J @ x.T).T)
        if self.symmetric:
            # J is symmetric, so x @ J == (J @ x.T).T in one GEMM.
            return x @ self._J
        return x @ self._J.T

    def _transpose(self):
        """``J.T`` in this operator's storage format (cached)."""
        if self._JT is None:
            if sp.issparse(self._J):
                self._JT = self._J.T.tocsr()
            else:
                self._JT = self._J.T
        return self._JT

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``J.T @ x`` — the adjoint of :meth:`matvec`, batch-aware.

        For symmetric operators this is :meth:`matvec` itself; for
        asymmetric ones (graph adjacencies) it is what reverse-mode
        differentiation of ``y = J x`` needs.
        """
        if self.symmetric:
            return self.matvec(x)
        x = np.asarray(x, dtype=self.dtype)
        JT = self._transpose()
        if x.ndim == 1:
            return np.asarray(JT @ x)
        if x.ndim != 2:
            raise ValueError(f"state must be 1-D or 2-D, got shape {x.shape}")
        if sp.issparse(JT):
            return np.asarray((JT @ x.T).T)
        return x @ self._J

    def propagate(self, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Apply ``J`` (or ``J.T``) along the node axis of ``(..., n, c)``.

        The graph-propagation primitive: feature tensors carry arbitrary
        leading batch/time axes and a trailing channel axis, and the
        operator contracts the ``n`` axis.  Dense storage broadcasts a
        single ``matmul``; sparse storage folds the leading/channel axes
        into one CSR multi-vector product.
        """
        x = np.asarray(x)
        if x.ndim < 2 or x.shape[-2] != self.n:
            raise ValueError(
                f"expected a (..., {self.n}, channels) tensor, got shape {x.shape}"
            )
        matrix = self._transpose() if adjoint and not self.symmetric else self._J
        if not sp.issparse(matrix):
            return np.matmul(matrix, x)
        lead = x.shape[:-2]
        folded = np.moveaxis(x, -2, 0).reshape(self.n, -1)
        out = np.asarray(matrix @ folded)
        out = out.reshape((self.n,) + lead + (x.shape[-1],))
        return np.moveaxis(out, 0, -2)

    def drift(self, sigma: np.ndarray) -> np.ndarray:
        """Circuit drift ``J sigma + h * sigma`` (Eq. 8), batch-aware."""
        return self.matvec(sigma) + self.h * sigma

    def _rows_drift(self, rows: np.ndarray):
        """The drift currents of the nodes ``rows`` alone.

        Returns a callable ``sigma -> h[rows] * sigma[..., rows] + (J[rows]
        @ sigma.T).T``: a full ``(n,)`` or ``(batch, n)`` state in,
        ``len(rows)`` currents per state out, as the integration loop of
        :class:`~repro.core.dynamics.CircuitSimulator` takes them when
        ``rows`` are its free nodes.  It carries ``rows`` as its ``rows``
        attribute.

        The loop binds it once per run
        (:func:`~repro.core.dynamics.free_drift`): the leading clamped
        entries of every row are folded into a constant per-member prefix,
        and each step sums only the remaining entries, continuing from it.
        The early-exit freeze-out narrows the prefix to the surviving
        members.  Called unbound, as here, nothing is folded.

        The bits equal :meth:`drift`'s ``rows`` columns, bound or not.
        scipy's CSR product starts each sum at +0.0 and adds ``J[i, j] *
        sigma[j]`` in storage order, one rounding per product and one per
        sum; row slicing keeps that order.  The clamped columns do not
        change within a run, so a row's leading clamped terms and the
        running sum after them are the same on every step, and continuing
        from that sum makes exactly the additions the full product makes.
        On the paper's windows every clamped entry of a row comes before
        every free one, so the prefix holds the whole clamped drive.

        Only the sparse backend has this drift: a dense ``J``'s BLAS
        product does not sum in storage order.
        """
        if self.backend != "sparse":
            raise ValueError("a rows drift needs the sparse backend")
        rows = np.asarray(rows, dtype=int)
        return _RowsDrift(self._J[rows], self.h[rows], rows)

    def gradient(self, sigma: np.ndarray) -> np.ndarray:
        """Real-valued Hamiltonian gradient ``-2 (J sigma + h * sigma)``."""
        return -2.0 * self.drift(sigma)

    def energy(self, sigma: np.ndarray):
        """Real-valued Hamiltonian ``H_RV`` (Eq. 4), batch-aware.

        Returns a float for a single state ``(n,)`` and a ``(batch,)``
        vector for a state batch.
        """
        sigma = np.asarray(sigma, dtype=float)
        Js = self.matvec(sigma)
        if sigma.ndim == 1:
            return float(-(sigma @ Js) - self.h @ (sigma * sigma))
        return -np.sum(sigma * Js, axis=-1) - (sigma * sigma) @ self.h

    def reduced_system(
        self,
        free_index: np.ndarray,
        clamp_index: np.ndarray,
        max_update_rank: int = DEFAULT_MAX_UPDATE_RANK,
        residual_tol: float | None = None,
    ) -> ReducedSystem:
        """Factor the clamped-reduced system for one observed-index set.

        Args:
            free_index: Indices of the free (solved-for) nodes.
            clamp_index: Indices of the clamped (observed) nodes.
            max_update_rank: SMW rank budget before the returned system
                asks for refactorization (see :class:`ReducedSystem`).
            residual_tol: Relative residual bound on corrected solves;
                ``None`` means ``sqrt(eps)`` of the factored dtype.

        Returns:
            A :class:`ReducedSystem` whose factorization can be reused for
            every right-hand side sharing this observed set — and, via
            :meth:`ReducedSystem.apply_increments`, across small coupling
            deltas.
        """
        free_index = np.asarray(free_index, dtype=int).reshape(-1)
        clamp_index = np.asarray(clamp_index, dtype=int).reshape(-1)
        if sp.issparse(self._J):
            A = self._J[free_index][:, free_index] + sp.diags(self.h[free_index])
            B = -self._J[free_index][:, clamp_index]
        else:
            A = self._J[np.ix_(free_index, free_index)] + np.diag(
                self.h[free_index]
            )
            B = -self._J[np.ix_(free_index, clamp_index)]
        return ReducedSystem(
            A,
            B,
            self.backend,
            free_index=free_index,
            clamp_index=clamp_index,
            max_update_rank=max_update_rank,
            residual_tol=residual_tol,
        )

    # ------------------------------------------------------------------
    # Streaming deltas
    # ------------------------------------------------------------------
    def apply_delta(self, delta, info: dict | None = None) -> "CouplingOperator":
        """A new operator with a :class:`~repro.stream.deltas.GraphDelta` applied.

        Structure is reused rather than rebuilt: the dense backend copies
        ``J`` once and edits in place; the sparse backend shares the CSR
        ``indices``/``indptr`` arrays when every edit lands on an existing
        non-zero (a pattern-preserving value update) and only rebuilds the
        pattern — canonically, matching a from-scratch
        ``csr_matrix(dense)`` layout bit-for-bit — when edges are added or
        removed.  Set semantics: an edit's weight *replaces* the stored
        value, zero removes the edge, and edits equal to the current
        stored value are normalized out.  A delta whose effective edit set
        is empty returns ``self`` unchanged (same object, same
        fingerprint).

        Symmetric operators expand each edit to both orientations and
        reject diagonal or conflicting-orientation edits; asymmetric
        operators treat edits as directed.

        Args:
            delta: The edits (duck-typed: anything with the
                :class:`~repro.stream.deltas.GraphDelta` attributes).
            info: Optional dict populated with the *effective* edits —
                ``edge_increments`` as ``(i, j, old, new)`` tuples
                (canonical upper-triangle orientation when symmetric),
                ``h_increments`` as ``(i, old, new)``,
                ``pattern_rebuilt``, and ``noop`` — which is exactly what
                :meth:`ReducedSystem.apply_increments` consumes.

        Raises:
            ValueError: On out-of-range indices, or (symmetric only) on
                diagonal edits or conflicting opposite-orientation edits.
        """
        delta.validate_range(self.n)
        if self.symmetric:
            rows, cols, weights = delta.symmetric_edges()
        else:
            rows = delta.edge_index[:, 0]
            cols = delta.edge_index[:, 1]
            weights = delta.edge_weight
        sparse_J = sp.issparse(self._J)
        dtype = self.dtype

        edge_edits: list[tuple[int, int, float, float]] = []
        for i, j, w in zip(rows, cols, weights):
            i, j = int(i), int(j)
            new = float(dtype.type(w))
            old = self.entry(i, j)
            if new != old:
                edge_edits.append((i, j, old, new))
        h_edits: list[tuple[int, float, float]] = []
        for i, v in zip(delta.h_index, delta.h_value):
            i = int(i)
            new = float(self.h.dtype.type(v))
            old = float(self.h[i])
            if new != old:
                h_edits.append((i, old, new))

        if not edge_edits and not h_edits:
            if info is not None:
                info.update(
                    edge_increments=[],
                    h_increments=[],
                    pattern_rebuilt=False,
                    noop=True,
                )
            return self

        pattern_rebuilt = False
        if not edge_edits:
            new_J = self._J
        elif not sparse_J:
            new_J = self._J.copy()
            for i, j, _, new in edge_edits:
                new_J[i, j] = new
                if self.symmetric:
                    new_J[j, i] = new
        else:
            # Rebuild when an edit adds a missing entry or zeroes an
            # existing one; otherwise it is a pure value update.
            pattern_change = False
            for i, j, _, new in edge_edits:
                present = self._csr_pos(i, j) >= 0
                if (new == 0.0 and present) or (new != 0.0 and not present):
                    pattern_change = True
                    break
            if not pattern_change:
                new_data = self._J.data.copy()
                for i, j, _, new in edge_edits:
                    new_data[self._csr_pos(i, j)] = new
                    if self.symmetric:
                        new_data[self._csr_pos(j, i)] = new
                new_J = sp.csr_matrix(
                    (new_data, self._J.indices, self._J.indptr),
                    shape=self._J.shape,
                )
            else:
                pattern_rebuilt = True
                new_J = self._rebuild_pattern(edge_edits)

        if h_edits:
            new_h = self.h.copy()
            for i, _, new in h_edits:
                new_h[i] = new
        else:
            new_h = self.h

        if info is not None:
            info.update(
                edge_increments=edge_edits,
                h_increments=h_edits,
                pattern_rebuilt=pattern_rebuilt,
                noop=False,
            )
        return CouplingOperator._from_parts(
            new_J,
            new_h,
            backend=self.backend,
            symmetric=self.symmetric,
            density=_offdiag_density(new_J),
        )

    def _rebuild_pattern(self, edge_edits) -> sp.csr_matrix:
        """Canonical CSR rebuild after additions/removals.

        Drops every edited entry from the current pattern, re-adds the
        non-zero new values (both orientations when symmetric), and lets
        the COO→CSR conversion canonicalize — sorted indices, no explicit
        zeros — so the result is bit-identical in ``data``/``indices``/
        ``indptr`` to ``csr_matrix`` built from the edited dense matrix.
        """
        coo = self._J.tocoo()
        edited = set()
        for i, j, _, _ in edge_edits:
            edited.add((i, j))
            if self.symmetric:
                edited.add((j, i))
        keep = np.fromiter(
            (
                (int(r), int(c)) not in edited
                for r, c in zip(coo.row, coo.col)
            ),
            dtype=bool,
            count=coo.nnz,
        )
        rows = list(coo.row[keep])
        cols = list(coo.col[keep])
        data = list(coo.data[keep])
        for i, j, _, new in edge_edits:
            if new == 0.0:
                continue
            rows.append(i)
            cols.append(j)
            data.append(new)
            if self.symmetric:
                rows.append(j)
                cols.append(i)
                data.append(new)
        rebuilt = sp.csr_matrix(
            (
                np.asarray(data, dtype=self.dtype),
                (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)),
            ),
            shape=self._J.shape,
        )
        rebuilt.sum_duplicates()
        rebuilt.sort_indices()
        return rebuilt
