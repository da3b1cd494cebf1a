"""Tests of the random coupling generators in :mod:`repro.core.model`.

``random_sparse_mesh`` builds the 100k-node system of the README's
scale-out recipe and the shared-memory perf gates without ever forming a
dense matrix; these checks pin its contract at sizes tier-1 can afford:
a symmetric, zero-diagonal CSR matrix holding exactly the target number
of distinct pairs, spread evenly over the nodes, with fields that make the
system convex.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import CouplingOperator, random_sparse_mesh, random_sparse_system


class TestRandomSparseMesh:
    N = 2000
    DENSITY = 0.005

    @pytest.fixture(scope="class")
    def mesh(self):
        return random_sparse_mesh(self.N, self.DENSITY, seed=0)

    def test_returns_square_csr(self, mesh):
        J, h = mesh
        assert sp.issparse(J) and J.format == "csr"
        assert J.shape == (self.N, self.N)
        assert h.shape == (self.N,)

    def test_symmetric_with_zero_diagonal(self, mesh):
        J, _ = mesh
        assert (J != J.T).nnz == 0
        assert not np.any(J.diagonal())

    def test_realized_pair_count_matches_target(self, mesh):
        J, _ = mesh
        pairs = self.N * (self.N - 1) // 2
        target = int(round(self.DENSITY * pairs))
        # Each pair is stored as (i, j) and (j, i).  The CSR conversion sums
        # repeated pairs into one entry, so a repeat would show as a short
        # count here.
        assert J.nnz == 2 * target
        assert np.count_nonzero(J.data) == J.nnz

    def test_each_tenth_of_the_nodes_holds_its_share(self, mesh):
        # Every node expects density * (n - 1) entries in its row, so each
        # tenth of the nodes should hold about a tenth of all entries.
        J, _ = mesh
        per_tenth = np.diff(J.indptr).reshape(10, -1).sum(axis=1)
        np.testing.assert_allclose(per_tenth, J.nnz / 10, rtol=0.1)

    def test_fields_make_the_system_convex(self, mesh):
        J, h = mesh
        row_sums = np.asarray(abs(J).sum(axis=1)).ravel()
        assert np.all(h < 0)
        assert np.all(-h > row_sums)

    def test_deterministic_per_seed(self, mesh):
        J, h = mesh
        J2, h2 = random_sparse_mesh(self.N, self.DENSITY, seed=0)
        assert (J != J2).nnz == 0
        assert np.array_equal(h, h2)

    def test_seeds_differ(self, mesh):
        J, _ = mesh
        other, _ = random_sparse_mesh(self.N, self.DENSITY, seed=1)
        assert (J != other).nnz > 0

    @pytest.mark.parametrize("density", [0.0, -0.5, 1.5])
    def test_rejects_density_outside_unit_interval(self, density):
        with pytest.raises(ValueError, match="density"):
            random_sparse_mesh(100, density)

    def test_sparse_operator_keeps_csr_storage(self, mesh):
        J, h = mesh
        operator = CouplingOperator(J, h, backend="auto")
        assert operator.backend == "sparse"
        assert operator.nnz == J.nnz


class TestRandomSparseSystem:
    def test_symmetric_dense_and_convex(self):
        J, h = random_sparse_system(64, 0.1, seed=2)
        assert isinstance(J, np.ndarray)
        assert np.array_equal(J, J.T)
        assert not np.any(np.diag(J))
        assert np.all(-h > np.abs(J).sum(axis=1))

    def test_pair_count_matches_target(self):
        J, _ = random_sparse_system(64, 0.1, seed=2)
        pairs = 64 * 63 // 2
        assert np.count_nonzero(np.triu(J, k=1)) == round(0.1 * pairs)

    @pytest.mark.parametrize("density", [0.0, 1.5])
    def test_rejects_density_outside_unit_interval(self, density):
        with pytest.raises(ValueError, match="density"):
            random_sparse_system(16, density)
