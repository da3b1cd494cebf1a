"""The clamped prefix of a CSR rows drift bound to a run.

:func:`~repro.core.dynamics.free_drift` binds
:meth:`~repro.core.operators.CouplingOperator._rows_drift` to a run's
clamped state: the leading clamped entries of every free row are summed
once into a per-member prefix, and every step continues the row sums from
it over the remaining entries.  The bound drift must equal the full
drift's free columns, ``operator.drift(state)[:, free]``, byte for byte:
for any CSR layout (unsorted, duplicate entries, empty rows), any clamp
set, shared and per-sample clamps, and after the early-exit freeze-out
narrows it to some of the batch's members.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp
from scipy.sparse import _sparsetools

from repro import obs
from repro.core import IntegrationConfig, NaturalAnnealingEngine
from repro.core.dynamics import CircuitSimulator, free_drift
from repro.core.model import DSGLModel
from repro.core.operators import CouplingOperator, _csr_accumulate
from repro.obs import read_trace

RAIL = 1.0
#: Values a state may hold: signed zeros, the rails, and ordinary values.
SPECIAL = np.array([0.0, -0.0, RAIL, -RAIL, 0.5, -1e-300])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


def _messy_csr(J: np.ndarray, rng, layout: str) -> sp.csr_matrix:
    """``J`` in CSR, each row's entries shuffled (``unsorted``) and some
    split into two entries of the same column (``duplicates``)."""
    indptr, indices, data = [0], [], []
    for row in J:
        cols = np.flatnonzero(row)
        if layout != "sorted":
            cols = rng.permutation(cols)
        for col in cols:
            value = row[col]
            if layout == "duplicates" and rng.random() < 0.4:
                part = value * rng.uniform(0.2, 0.8)
                indices += [col, col]
                data += [part, value - part]
            else:
                indices.append(col)
                data.append(value)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data), np.array(indices), np.array(indptr)), shape=J.shape
    )


def _operator(n, seed, layout, dtype=np.float64, empty_rows=True):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5)
    J = np.triu(raw, 1)
    J = J + J.T
    if empty_rows:
        lonely = rng.random(n) < 0.2
        J[lonely] = 0.0
        J[:, lonely] = 0.0
    h = -(np.abs(J).sum(axis=1) + rng.uniform(0.1, 1.0, n))
    messy = _messy_csr(J, rng, layout).astype(dtype)
    # The constructor would canonicalize the layout (count_nonzero sums
    # duplicates in place); the zero-copy path keeps it.
    return CouplingOperator._from_parts(
        messy, h.astype(dtype), backend="sparse", symmetric=True, density=0.5
    )


def _clamp_set(n, kind, rng) -> np.ndarray:
    if kind == "none":
        return np.zeros(0, dtype=int)
    if kind == "all_but_one":
        return np.delete(np.arange(n), rng.integers(n))
    k = int(rng.integers(1, n))
    if kind == "leading":
        return np.arange(k)
    if kind == "trailing":
        return np.arange(n - k, n)
    return np.sort(rng.choice(n, size=k, replace=False))


def _states(rng, batch, n, clamp, shared, count):
    """``count`` states that hold the same clamped values, the first the
    run's starting state."""
    def draw(shape):
        values = rng.uniform(-1.5, 1.5, shape)
        special = rng.random(shape) < 0.3
        values[special] = rng.choice(SPECIAL, size=int(special.sum()))
        return values

    clamped = draw((1 if shared else batch, clamp.size))
    states = []
    for _ in range(count):
        state = draw((batch, n))
        state[:, clamp] = clamped
        states.append(state)
    return states


class TestKernel:
    """``csr_matvecs`` adds into its output, in storage order, with one
    rounding per product and one per sum.  The fold relies on all three."""

    @staticmethod
    def _reference(A, x, out):
        expected = out.copy()
        scalar = A.dtype.type
        for i in range(A.shape[0]):
            for b in range(x.shape[1]):
                total = expected[i, b]
                for k in range(A.indptr[i], A.indptr[i + 1]):
                    total = scalar(total + scalar(A.data[k] * x[A.indices[k], b]))
                expected[i, b] = total
        return expected

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("layout", ["sorted", "unsorted", "duplicates"])
    def test_adds_into_the_output_in_storage_order(self, layout, dtype):
        rng = np.random.default_rng(1)
        A = _messy_csr(
            rng.normal(size=(9, 11)) * (rng.random((9, 11)) < 0.6), rng, layout
        ).astype(dtype)
        x = rng.normal(size=(11, 3)).astype(dtype)
        out = rng.normal(size=(9, 3)).astype(dtype)
        expected = self._reference(A, x, out)
        _sparsetools.csr_matvecs(
            9, 11, 3, A.indptr, A.indices, A.data, x, out
        )
        assert _same_bits(out, expected)

    def test_accumulate_from_zero_is_scipys_product(self):
        rng = np.random.default_rng(2)
        A = _messy_csr(rng.normal(size=(7, 7)), rng, "duplicates")
        x = rng.normal(size=(7, 4))
        out = np.zeros((7, 4))
        _csr_accumulate(A.indptr, A.indices, A.data, 7, x, out)
        assert _same_bits(out, A @ x)
        vector = np.zeros(7)
        _csr_accumulate(A.indptr, A.indices, A.data, 7, x[:, 0].copy(), vector)
        assert _same_bits(vector, A @ x[:, 0])

    @pytest.mark.parametrize(
        "x_shape, out_shape", [((6, 4), (7, 4)), ((7, 3), (7, 4)), ((7,), (7, 1))]
    )
    def test_rejects_mismatched_shapes(self, x_shape, out_shape):
        A = sp.random(7, 7, density=0.5, format="csr", random_state=3)
        with pytest.raises(ValueError, match="cannot accumulate"):
            _csr_accumulate(
                A.indptr, A.indices, A.data, 7, np.zeros(x_shape),
                np.zeros(out_shape),
            )


class TestBoundDrift:
    @settings(max_examples=250, deadline=None)
    @given(
        n=st.integers(2, 14),
        seed=st.integers(0, 2**32 - 1),
        layout=st.sampled_from(["sorted", "unsorted", "duplicates"]),
        clamps=st.sampled_from(
            ["none", "all_but_one", "leading", "trailing", "scattered"]
        ),
        shared=st.booleans(),
        all_rows=st.booleans(),
        batch=st.integers(1, 5),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_bound_drift_is_the_full_drift_on_the_free_columns(
        self, n, seed, layout, clamps, shared, all_rows, batch, dtype
    ):
        rng = np.random.default_rng(seed)
        operator = _operator(n, seed, layout, dtype)
        clamp = _clamp_set(n, clamps, rng)
        free = np.setdiff1d(np.arange(n), clamp)
        # A drift of every row is bound to the free rows (stuck nodes
        # leave a rows drift more rows than free nodes).
        rows = np.arange(n) if all_rows else free
        states = _states(rng, batch, n, clamp, shared, count=3)
        bound = free_drift(operator._rows_drift(rows), free, states[0])
        assert bound.folded_entries + bound.drift_entries == (
            operator._J[free].nnz
        )
        for state in states:
            assert _same_bits(bound(state), operator.drift(state)[:, free])
        members = np.sort(
            rng.choice(batch, size=int(rng.integers(1, batch + 1)), replace=False)
        )
        narrowed = bound.select(members)
        mask = np.isin(np.arange(batch), members)
        for state in states:
            want = operator.drift(state[members])[:, free]
            assert _same_bits(narrowed(state[members]), want)
            assert _same_bits(bound.select(mask)(state[members]), want)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        layout=st.sampled_from(["sorted", "unsorted", "duplicates"]),
    )
    def test_unbound_and_single_state_drifts(self, n, seed, layout):
        rng = np.random.default_rng(seed)
        operator = _operator(n, seed, layout)
        rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        (state,) = _states(rng, 3, n, np.zeros(0, dtype=int), True, count=1)
        drift = operator._rows_drift(rows)
        assert drift.folded_entries == 0
        assert _same_bits(drift(state), operator.drift(state)[:, rows])
        bound = free_drift(drift, rows, state[0])
        assert _same_bits(bound(state[0]), operator.drift(state[0])[rows])

    def test_window_clamps_fold_every_clamped_entry(self):
        # Frames 0..W-2 clamped, frame W-1 free: on sorted CSR every
        # clamped column of a free row precedes every free one.
        operator = _operator(12, 5, "sorted", empty_rows=False)
        free = np.arange(8, 12)
        sigma = np.random.default_rng(0).uniform(-1, 1, (3, 12))
        bound = free_drift(operator._rows_drift(free), free, sigma)
        J_free = operator._J[free]
        clamped_entries = int(np.count_nonzero(J_free.indices < 8))
        assert bound.folded_entries == clamped_entries > 0
        assert bound.drift_entries == J_free.nnz - clamped_entries
        assert bound._read == slice(8, 12)

    @pytest.mark.parametrize("layout", ["sorted", "unsorted", "duplicates"])
    def test_scattered_clamps_fold_only_leading_runs(self, layout):
        operator = _operator(12, 6, layout, empty_rows=False)
        clamp = np.array([1, 4, 6, 9])
        free = np.setdiff1d(np.arange(12), clamp)
        sigma = np.random.default_rng(0).uniform(-1, 1, (3, 12))
        bound = free_drift(operator._rows_drift(free), free, sigma)
        J_free = operator._J[free]
        leading = clamped_after_free = 0
        for i in range(free.size):
            row = J_free.indices[J_free.indptr[i]:J_free.indptr[i + 1]]
            is_clamped = np.isin(row, clamp)
            run = int(np.argmin(is_clamped)) if not is_clamped.all() else row.size
            leading += run
            clamped_after_free += int(is_clamped[run:].sum())
        assert bound.folded_entries == leading > 0
        assert clamped_after_free > 0
        assert bound.drift_entries == J_free.nnz - leading

    def test_the_dense_backend_has_no_rows_drift(self):
        J = np.ones((4, 4)) - np.eye(4)
        operator = CouplingOperator(J, np.full(4, -4.0), backend="dense")
        with pytest.raises(ValueError, match="sparse backend"):
            operator._rows_drift(np.arange(2, 4))

    def test_a_state_of_another_batch_is_rejected(self):
        operator = _operator(8, 7, "sorted", empty_rows=False)
        free = np.arange(5, 8)
        sigma = np.zeros((4, 8))
        bound = free_drift(operator._rows_drift(free), free, sigma)
        with pytest.raises(ValueError, match="cannot accumulate"):
            bound(np.zeros((3, 8)))
        with pytest.raises(ValueError, match="cannot accumulate"):
            bound(np.zeros((4, 7)))


class TestRunsOwnTheirPrefix:
    """A rows drift binds afresh on every run; nothing carries over."""

    @pytest.mark.parametrize("policy", [{}, {"early_exit": True}])
    def test_one_rows_drift_serves_two_runs_of_one_batch_size(self, policy):
        operator = _operator(12, 8, "unsorted", empty_rows=False)
        clamp = np.arange(7)
        free = np.arange(7, 12)
        drift = operator._rows_drift(free)
        rng = np.random.default_rng(9)
        # Starting states of different sizes settle at different checks,
        # so the early-exit runs narrow the bound drift mid-run.
        sigma0 = rng.uniform(-1, 1, (4, 12)) * np.array([[0.01], [0.3], [1], [3]])
        config = IntegrationConfig(dt=0.05, settle_tolerance=0.05, **policy)
        for values in (rng.uniform(-1, 1, (4, 7)), rng.uniform(-1, 1, (4, 7))):
            with obs.observe() as (registry, _tracer):
                runs = [
                    CircuitSimulator(config=config).run_batch(
                        each, sigma0, 3.0, clamp, values
                    )
                    for each in (drift, operator.drift)
                ]
                counters = registry.snapshot()["counters"]
            assert _same_bits(runs[0].states, runs[1].states)
            assert _same_bits(runs[0].times, runs[1].times)
            if policy:
                assert counters["circuit.member_steps"] < 4 * counters["circuit.steps"]

    def test_infer_batch_results_do_not_depend_on_call_order(self):
        rng = np.random.default_rng(4)
        n = 20
        raw = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.3)
        J = (raw + raw.T) / 2.0
        np.fill_diagonal(J, 0.0)
        model = DSGLModel(
            J=J, h=-(np.abs(J).sum(axis=1) + 1.0), mean=np.zeros(n),
            scale=np.ones(n),
        )
        observed = np.arange(14)
        first, second = rng.normal(size=(2, 4, observed.size))

        def predictions(order):
            engine = NaturalAnnealingEngine(
                model, config=IntegrationConfig(dt=0.05, early_exit=True),
                backend="sparse",
            )
            return {
                key: engine.infer_batch(observed, values, duration=4.0).predictions
                for key, values in order
            }

        forward = predictions([("a", first), ("b", second)])
        backward = predictions([("b", second), ("a", first)])
        for key in ("a", "b"):
            assert _same_bits(forward[key], backward[key])


class TestFoldTelemetry:
    def test_spans_and_counters_carry_the_fold(self, tmp_path):
        operator = _operator(12, 10, "sorted", empty_rows=False)
        clamp, free = np.arange(8), np.arange(8, 12)
        sigma0 = np.random.default_rng(1).uniform(-1, 1, (2, 12))
        expected = free_drift(operator._rows_drift(free), free, sigma0)
        path = tmp_path / "trace.jsonl"
        simulator = CircuitSimulator(config=IntegrationConfig(dt=0.1))
        with obs.observe(trace_path=path) as (registry, _tracer):
            simulator.run_batch(
                operator._rows_drift(free), sigma0, 1.0, clamp, sigma0[:, clamp]
            )
            simulator.run(
                operator._rows_drift(free), sigma0[0], 1.0, clamp, sigma0[0, clamp]
            )
            simulator.run_batch(operator.drift, sigma0, 1.0, clamp, sigma0[:, clamp])
            counters = registry.snapshot()["counters"]
        assert counters["circuit.folded_entries"] == 2 * expected.folded_entries
        assert counters["circuit.drift_entries"] == 2 * expected.drift_entries
        spans = [
            record["attributes"] for record in read_trace(path)
            if record["kind"] == "span"
            and record["name"] in ("circuit.run", "circuit.run_batch")
        ]
        assert [span.get("folded_entries") for span in spans] == [
            expected.folded_entries, expected.folded_entries, None,
        ]
        assert [span.get("drift_entries") for span in spans] == [
            expected.drift_entries, expected.drift_entries, None,
        ]
