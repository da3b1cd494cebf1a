"""Delta-vs-rebuild equivalence: the streaming correctness contract.

A graph maintained by chaining :meth:`CouplingOperator.apply_delta`
must be indistinguishable from one rebuilt from scratch off the edited
matrix — *bit for bit* on operator results (matvec/drift/energy, CSR
storage layout included), and within the documented residual tolerance
on solves through incrementally updated
:class:`~repro.core.operators.ReducedSystem` factorizations.

The chains are seeded random streams mixing additions, removals, and
reweights (plus self-reaction edits), applied one-by-one and batched
(composed), across both backends and both float dtypes, and — for the
engine-level end — through fork and spawn pool workers.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest
from scipy import sparse as sp

from repro.core.dynamics import CircuitSimulator
from repro.core.inference import NaturalAnnealingEngine
from repro.core.model import DSGLModel
from repro.core.operators import CouplingOperator
from repro.parallel.pool import START_METHOD_ENV
from repro.stream import GraphDelta, delta_stream, random_delta

BACKENDS = ("dense", "sparse")
DTYPES = (np.float32, np.float64)


def _random_symmetric(n, density, seed, dtype=np.float64):
    """A seeded symmetric zero-diagonal coupling with convex h."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    raw = rng.normal(size=(n, n)) * 0.3 * mask
    upper = np.triu(raw, k=1)
    J = upper + upper.T
    h = -(np.abs(J).sum(axis=1) + 1.0)
    return J.astype(dtype), h.astype(dtype)


def _assert_operators_identical(streamed, rebuilt, rng):
    """Bitwise agreement on results *and* storage layout."""
    x = rng.normal(size=streamed.n).astype(streamed.dtype)
    sigma = rng.normal(size=streamed.n).astype(streamed.dtype)
    assert np.array_equal(streamed.matvec(x), rebuilt.matvec(x))
    assert np.array_equal(streamed.drift(sigma), rebuilt.drift(sigma))
    assert streamed.energy(sigma) == rebuilt.energy(sigma)
    assert np.array_equal(streamed.h, rebuilt.h)
    if streamed.backend == "sparse":
        assert np.array_equal(streamed._J.data, rebuilt._J.data)
        assert np.array_equal(streamed._J.indices, rebuilt._J.indices)
        assert np.array_equal(streamed._J.indptr, rebuilt._J.indptr)
    else:
        assert np.array_equal(streamed._J, rebuilt._J)


class TestOperatorChainEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_streamed_chain_matches_rebuild_bitwise(self, backend, dtype):
        """12 windows of mixed add/remove/reweight + h edits: after every
        window the streamed operator is bit-identical to one rebuilt from
        the reference dense matrix maintained by ``apply_to_dense``."""
        n = 40
        J, h = _random_symmetric(n, density=0.15, seed=5, dtype=dtype)
        operator = CouplingOperator(J, h, backend=backend, dtype=dtype)
        J_ref, h_ref = J.copy(), h.copy()
        check_rng = np.random.default_rng(99)
        for delta in delta_stream(
            operator, seed=17, windows=12, edges=5, h_edits=1
        ):
            operator = operator.apply_delta(delta)
            delta.apply_to_dense(J_ref, h_ref, symmetric=True)
            rebuilt = CouplingOperator(
                J_ref, h_ref, backend=backend, dtype=dtype
            )
            _assert_operators_identical(operator, rebuilt, check_rng)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batched_delta_equals_sequential(self, backend):
        """Composing a window's deltas into one batch edit lands on the
        same bits as applying them one at a time."""
        n = 32
        J, h = _random_symmetric(n, density=0.2, seed=3)
        base = CouplingOperator(J, h, backend=backend)
        deltas = list(delta_stream(base, seed=8, windows=6, edges=3))
        sequential = base
        for delta in deltas:
            sequential = sequential.apply_delta(delta)
        batched = base.apply_delta(deltas[0].compose(*deltas[1:]))
        _assert_operators_identical(
            sequential, batched, np.random.default_rng(1)
        )

    def test_sparse_pattern_rebuild_matches_canonical_csr(self):
        """Additions/removals trigger the pattern-rebuild path; the
        resulting CSR must match ``csr_matrix(dense)`` exactly — same
        data, indices, indptr — so no phantom explicit zeros survive."""
        n = 24
        J, h = _random_symmetric(n, density=0.25, seed=11)
        operator = CouplingOperator(J, h, backend="sparse")
        delta = random_delta(
            operator, np.random.default_rng(2), edges=8,
            p_add=0.5, p_remove=0.5,
        )
        info = {}
        updated = operator.apply_delta(delta, info=info)
        assert info["pattern_rebuilt"] is True
        dense = updated.to_dense()
        canonical = sp.csr_matrix(dense)
        assert np.array_equal(updated._J.data, canonical.data)
        assert np.array_equal(updated._J.indices, canonical.indices)
        assert np.array_equal(updated._J.indptr, canonical.indptr)

    def test_value_only_delta_preserves_csr_pattern_arrays(self):
        """Reweights that do not change the sparsity pattern must reuse
        the existing indices/indptr buffers (zero-copy structure)."""
        n = 24
        J, h = _random_symmetric(n, density=0.25, seed=11)
        operator = CouplingOperator(J, h, backend="sparse")
        delta = random_delta(
            operator, np.random.default_rng(4), edges=4,
            p_add=0.0, p_remove=0.0,
        )
        info = {}
        updated = operator.apply_delta(delta, info=info)
        assert info["pattern_rebuilt"] is False
        assert np.shares_memory(updated._J.indices, operator._J.indices)
        assert np.shares_memory(updated._J.indptr, operator._J.indptr)


class TestReducedSystemEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_incremental_solve_within_residual_tolerance(self, backend):
        """A chain of deltas absorbed via ``apply_increments`` solves to
        within the documented residual tolerance of a freshly
        refactorized system, and the tracked residual stays bounded."""
        n = 64
        J, h = _random_symmetric(n, density=0.1, seed=21)
        operator = CouplingOperator(J, h, backend=backend)
        rng = np.random.default_rng(6)
        observed = np.sort(rng.choice(n, size=16, replace=False))
        free = np.setdiff1d(np.arange(n), observed)
        reduced = operator.reduced_system(
            free, observed, max_update_rank=256
        )
        clamp = rng.normal(size=(4, observed.size))
        for delta in delta_stream(
            operator, seed=33, windows=5, edges=3,
            p_add=0.0, p_remove=0.0, h_edits=1,
        ):
            info = {}
            operator = operator.apply_delta(delta, info=info)
            applied = reduced.apply_increments(
                info["edge_increments"], info["h_increments"]
            )
            assert applied, "rank budget sized to absorb the whole stream"
            incremental = reduced.solve(clamp)
            rebuilt = operator.reduced_system(free, observed)
            reference = rebuilt.solve(clamp)
            scale = max(1.0, float(np.max(np.abs(reference))))
            assert np.max(np.abs(incremental - reference)) <= (
                10.0 * reduced.residual_tol * scale
            )
            assert reduced.last_residual <= reduced.residual_tol
            assert not reduced.needs_refactor

    def test_float32_residual_tolerance_scales_with_dtype(self):
        """A float32 system gets the float32 residual tolerance (sqrt of
        that dtype's epsilon), and incremental solves respect it."""
        n = 48
        J, h = _random_symmetric(n, density=0.15, seed=9, dtype=np.float32)
        operator = CouplingOperator(
            J, h, backend="dense", dtype=np.float32
        )
        rng = np.random.default_rng(12)
        observed = np.sort(rng.choice(n, size=12, replace=False))
        free = np.setdiff1d(np.arange(n), observed)
        reduced = operator.reduced_system(free, observed)
        expected_tol = float(np.sqrt(np.finfo(np.float32).eps))
        assert reduced.residual_tol == pytest.approx(expected_tol)
        info = {}
        operator = operator.apply_delta(
            random_delta(
                operator, rng, edges=2, p_add=0.0, p_remove=0.0
            ),
            info=info,
        )
        assert reduced.apply_increments(
            info["edge_increments"], info["h_increments"]
        )
        clamp = rng.normal(size=(2, observed.size))
        reference = operator.reduced_system(free, observed).solve(clamp)
        deviation = np.max(np.abs(reduced.solve(clamp) - reference))
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert deviation <= 10.0 * expected_tol * scale


class TestWorkerPoolEquivalence:
    """Engine-level replay equivalence across process start methods: an
    engine's clamped inference batch, run on its streamed operator through
    the circuit pool (:func:`repro.parallel.run_batch_sharded`)."""

    def _streamed_predictions(
        self, workers: int, deltas: bool = True
    ) -> np.ndarray:
        n = 24
        J, h = _random_symmetric(n, density=0.2, seed=31)
        engine = NaturalAnnealingEngine(
            model=DSGLModel(J=J, h=h), backend="dense", seed=7
        )
        rng = np.random.default_rng(44)
        observed = np.sort(rng.choice(n, size=6, replace=False))
        values = rng.normal(size=(4, observed.size))
        if deltas:
            for delta in delta_stream(
                engine.operator, seed=55, windows=3, edges=3
            ):
                engine.apply_delta(delta)
        # Unnormalized model: the clamps are the raw observed values and
        # the free nodes' voltages are the predictions.
        sigma0 = rng.uniform(-1.0, 1.0, size=(values.shape[0], n))
        sigma0[:, observed] = values
        operator = engine.operator
        trajectory = CircuitSimulator(config=engine.config).run_batch(
            operator.drift, sigma0, 5.0,
            clamp_index=observed, clamp_value=values,
            energy=operator.energy, workers=workers, shards=2,
        )
        free = np.setdiff1d(np.arange(n), observed)
        return trajectory.final_states[:, free]

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_post_delta_inference_identical_across_workers(
        self, start_method, monkeypatch
    ):
        """After a delta stream, sharded inference returns the same bits
        whether the pool forks, spawns, or never leaves the process."""
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        monkeypatch.setenv(START_METHOD_ENV, start_method)
        serial = self._streamed_predictions(workers=1)
        pooled = self._streamed_predictions(workers=2)
        assert np.array_equal(serial, pooled)
        # The workers ran the edited coupling, not the original one.
        assert not np.array_equal(
            serial, self._streamed_predictions(workers=1, deltas=False)
        )
