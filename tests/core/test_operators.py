"""Tests of the pluggable coupling-operator backends."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    CouplingOperator,
    DSGLModel,
    NaturalAnnealingEngine,
    RealValuedHamiltonian,
    random_sparse_system,
    select_backend,
)

DENSITIES = (0.02, 0.05, 0.20)


def _operators(n, density, seed=0):
    J, h = random_sparse_system(n, density, seed=seed)
    return (
        CouplingOperator(J, h, backend="dense"),
        CouplingOperator(J, h, backend="sparse"),
    )


class TestBackendSelection:
    def test_auto_picks_sparse_for_large_sparse_matrix(self):
        J, h = random_sparse_system(128, 0.05)
        op = CouplingOperator(J, h, backend="auto")
        assert op.backend == "sparse"
        assert select_backend(J) == "sparse"

    def test_auto_picks_dense_for_dense_matrix(self):
        rng = np.random.default_rng(0)
        J = rng.normal(size=(128, 128))
        J = (J + J.T) / 2.0
        np.fill_diagonal(J, 0.0)
        h = -(np.abs(J).sum(axis=1) + 1.0)
        assert CouplingOperator(J, h).backend == "dense"

    def test_auto_picks_dense_below_minimum_size(self):
        J, h = random_sparse_system(16, 0.05)
        assert CouplingOperator(J, h, backend="auto").backend == "dense"

    def test_explicit_override_wins(self):
        J, h = random_sparse_system(16, 0.05)
        assert CouplingOperator(J, h, backend="sparse").backend == "sparse"

    def test_accepts_scipy_sparse_input(self):
        J, h = random_sparse_system(64, 0.1)
        op = CouplingOperator(sp.csr_matrix(J), h, backend="auto")
        assert op.backend == "sparse"
        assert np.allclose(op.to_dense(), J)

    def test_rejects_unknown_backend(self):
        J, h = random_sparse_system(16, 0.5)
        with pytest.raises(ValueError, match="backend"):
            CouplingOperator(J, h, backend="cuda")

    def test_rejects_asymmetric_and_nonzero_diagonal(self):
        J, h = random_sparse_system(16, 0.5)
        bad = J.copy()
        bad[0, 1] += 1.0
        with pytest.raises(ValueError, match="symmetric"):
            CouplingOperator(bad, h)
        bad = J.copy()
        bad[2, 2] = 1.0
        with pytest.raises(ValueError, match="diagonal"):
            CouplingOperator(bad, h)
        with pytest.raises(ValueError, match="length"):
            CouplingOperator(J, h[:-1])


class TestAlgebraParity:
    """Sparse and dense backends must agree on every served operation."""

    @pytest.mark.parametrize("density", DENSITIES)
    def test_matvec_drift_energy_match(self, density):
        dense, sparse = _operators(96, density)
        rng = np.random.default_rng(1)
        single = rng.uniform(-1, 1, size=96)
        batch = rng.uniform(-1, 1, size=(7, 96))
        assert np.allclose(dense.matvec(single), sparse.matvec(single), atol=1e-12)
        assert np.allclose(dense.matvec(batch), sparse.matvec(batch), atol=1e-12)
        assert np.allclose(dense.drift(single), sparse.drift(single), atol=1e-12)
        assert np.allclose(dense.drift(batch), sparse.drift(batch), atol=1e-12)
        assert np.isclose(dense.energy(single), sparse.energy(single), atol=1e-10)
        assert np.allclose(dense.energy(batch), sparse.energy(batch), atol=1e-10)
        assert np.allclose(
            dense.gradient(batch), sparse.gradient(batch), atol=1e-12
        )

    @pytest.mark.parametrize("density", DENSITIES)
    def test_energy_matches_hamiltonian(self, density):
        dense, sparse = _operators(64, density)
        ham = RealValuedHamiltonian(dense.to_dense(), dense.h)
        rng = np.random.default_rng(2)
        states = rng.uniform(-1, 1, size=(5, 64))
        expected = ham.energy_batch(states)
        assert np.allclose(dense.energy(states), expected, atol=1e-10)
        assert np.allclose(sparse.energy(states), expected, atol=1e-10)
        assert np.isclose(dense.energy(states[0]), ham.energy(states[0]))

    @pytest.mark.parametrize("density", DENSITIES)
    def test_reduced_solve_matches_direct_solve(self, density):
        dense, sparse = _operators(96, density)
        observed = np.arange(0, 96, 3)
        free = np.setdiff1d(np.arange(96), observed)
        rng = np.random.default_rng(3)
        clamp = rng.uniform(-1, 1, size=observed.size)
        ham = RealValuedHamiltonian(dense.to_dense(), dense.h)
        expected = ham.fixed_point(observed, clamp)[free]

        for operator in (dense, sparse):
            reduced = operator.reduced_system(free, observed)
            assert np.allclose(reduced.solve(clamp), expected, atol=1e-8)
            # Batched right-hand sides share the factorization.
            batch = np.stack([clamp, 0.5 * clamp, -clamp])
            solved = reduced.solve(batch)
            assert solved.shape == (3, free.size)
            assert np.allclose(solved[0], expected, atol=1e-8)

    def test_reduced_solve_validates_shapes(self):
        dense, _ = _operators(32, 0.2)
        reduced = dense.reduced_system(np.arange(16, 32), np.arange(16))
        with pytest.raises(ValueError, match="observed"):
            reduced.solve(np.zeros(3))
        with pytest.raises(ValueError, match="1-D or 2-D"):
            reduced.solve(np.zeros((2, 2, 2)))


class TestEndToEndBackendParity:
    """Acceptance: sparse predictions match dense within 1e-8 across
    graph densities, on identical seeds."""

    @pytest.mark.parametrize("density", DENSITIES)
    def test_equilibrium_predictions_match(self, density):
        J, h = random_sparse_system(80, density, seed=4)
        model = DSGLModel(J=J, h=h)
        observed = np.arange(0, 80, 2)
        rng = np.random.default_rng(5)
        values = rng.uniform(-1, 1, size=observed.size)

        dense = NaturalAnnealingEngine(model, backend="dense", seed=11)
        sparse = NaturalAnnealingEngine(model, backend="sparse", seed=11)
        pd = dense.infer_equilibrium(observed, values).prediction
        ps = sparse.infer_equilibrium(observed, values).prediction
        assert np.allclose(pd, ps, atol=1e-8)

    @pytest.mark.parametrize("density", DENSITIES)
    def test_circuit_predictions_match(self, density):
        J, h = random_sparse_system(80, density, seed=6)
        model = DSGLModel(J=J, h=h)
        observed = np.arange(0, 80, 2)
        rng = np.random.default_rng(7)
        values = rng.uniform(-1, 1, size=observed.size)

        dense = NaturalAnnealingEngine(model, backend="dense", seed=11)
        sparse = NaturalAnnealingEngine(model, backend="sparse", seed=11)
        pd = dense.infer(observed, values, duration=40.0).prediction
        ps = sparse.infer(observed, values, duration=40.0).prediction
        assert np.allclose(pd, ps, atol=1e-8)


class TestIntrospection:
    def test_density_and_nnz(self):
        J, h = random_sparse_system(64, 0.1, seed=8)
        dense, sparse = (
            CouplingOperator(J, h, backend="dense"),
            CouplingOperator(J, h, backend="sparse"),
        )
        assert np.isclose(dense.density, sparse.density)
        assert dense.nnz == sparse.nnz == np.count_nonzero(J)

    def test_to_dense_is_a_copy(self):
        J, h = random_sparse_system(32, 0.2)
        op = CouplingOperator(J, h, backend="dense")
        out = op.to_dense()
        out[0, 1] = 99.0
        assert op.to_dense()[0, 1] != 99.0
