"""The CONCORD fine-tune loop, pinned bit for bit.

``_concord_descent`` runs the scalar work of each coordinate update on
Python floats and its row updates in place on row views.  It must compute
the same bits as the plain numpy loop below, which indexes the arrays per
entry and forms ``delta * S[j, :]`` as a temporary row: the decomposed
models of every figure and table are built from its output.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.hamiltonian import symmetrize_coupling
from repro.core.training import (
    TrainingConfig,
    _concord_descent,
    fit_precision_masked,
    normalization_stats,
)
from repro.decompose import DecompositionConfig
from repro.experiments import ExperimentContext
from repro.obs import format_metrics, read_trace


def _reference_descent(S, mask, max_sweeps, tol):
    """The plain numpy loop: per-entry indexing and temporary rows."""
    n = S.shape[0]
    omega = np.diag(1.0 / np.maximum(np.diag(S), 1e-8)).copy()
    U = omega @ S
    rows, cols = np.nonzero(np.triu(mask, 1))
    pairs = list(zip(rows.tolist(), cols.tolist()))
    for _sweep in range(max_sweeps):
        largest = 0.0
        for i, j in pairs:
            partial_i = U[i, j] - omega[i, j] * S[j, j]
            partial_j = U[j, i] - omega[i, j] * S[i, i]
            new = -(partial_i + partial_j) / (S[i, i] + S[j, j])
            delta = new - omega[i, j]
            if delta != 0.0:
                omega[i, j] = omega[j, i] = new
                U[i, :] += delta * S[j, :]
                U[j, :] += delta * S[i, :]
                largest = max(largest, abs(delta))
        for i in range(n):
            partial = U[i, i] - omega[i, i] * S[i, i]
            new = (-partial + np.sqrt(partial * partial + 4.0 * S[i, i])) / (
                2.0 * S[i, i]
            )
            delta = new - omega[i, i]
            if delta != 0.0:
                omega[i, i] = new
                U[i, :] += delta * S[i, :]
                largest = max(largest, abs(delta))
        if largest < tol:
            break
    return omega


def _sample_matrix(samples, config):
    """The ridge-regularized sample matrix ``fit_precision_masked`` builds."""
    mean, scale = normalization_stats(samples, config.target_rail_fraction)
    z = (samples - mean) / scale
    S = z.T @ z / samples.shape[0]
    S.flat[:: S.shape[0] + 1] += config.ridge
    return S


@st.composite
def problems(draw):
    """A sample matrix and a symmetric mask: empty, full or random, with
    some nodes isolated (every pair of theirs removed)."""
    n = draw(st.integers(min_value=1, max_value=12))
    num_samples = draw(st.integers(min_value=2, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mixing = rng.normal(size=(n, n)) * draw(st.floats(0.0, 2.0))
    samples = rng.normal(size=(num_samples, n)) @ (np.eye(n) + mixing)
    config = TrainingConfig(ridge=draw(st.sampled_from([1e-3, 1e-2, 0.5])))
    kind = draw(st.sampled_from(["empty", "full", "random"]))
    if kind == "empty":
        mask = np.zeros((n, n), dtype=bool)
    elif kind == "full":
        mask = np.ones((n, n), dtype=bool)
    else:
        mask = rng.random((n, n)) < draw(st.floats(0.05, 0.95))
    isolated = draw(st.lists(st.integers(0, n - 1), max_size=3))
    mask[isolated, :] = False
    mask[:, isolated] = False
    mask = mask & mask.T & ~np.eye(n, dtype=bool)
    return _sample_matrix(samples, config), mask


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestMatchesReferenceLoop:
    @given(
        problems(),
        st.sampled_from([0, 1, 40]),
        # 1e3 exceeds every update of a sweep, so the descent stops after
        # the first one.
        st.sampled_from([1e-6, 1e3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_bits_on_drawn_problems(self, problem, max_sweeps, tol):
        S, mask = problem
        omega, _sweeps, _last = _concord_descent(S, mask, max_sweeps, tol)
        assert _same_bits(omega, _reference_descent(S, mask, max_sweeps, tol))

    @given(problems(), st.sampled_from([1, 40]), st.sampled_from([1e-6, 1e3]))
    @settings(max_examples=60, deadline=None)
    def test_reports_its_stop(self, problem, max_sweeps, tol):
        """``sweeps`` is the reference's stopping sweep, and ``last_update``
        the largest entry change over that sweep: every entry is updated
        once per sweep, so the change is that entry's update."""
        S, mask = problem
        omega, sweeps, last = _concord_descent(S, mask, max_sweeps, tol)
        assert 1 <= sweeps <= max_sweeps
        assert sweeps == max_sweeps or last < tol
        before = _reference_descent(S, mask, sweeps - 1, tol)
        assert last == float(np.max(np.abs(omega - before)))
        if tol > 1.0:
            assert sweeps == 1

    def test_no_sweep_returns_the_start(self):
        S = _sample_matrix(
            np.random.default_rng(0).normal(size=(20, 4)), TrainingConfig()
        )
        omega, sweeps, last = _concord_descent(S, np.ones((4, 4), bool), 0, 1e-6)
        assert (sweeps, last) == (0, 0.0)
        assert np.array_equal(omega, np.diag(1.0 / np.diag(S)))


class TestPaperMasks:
    """The masks of the small-size traffic and no2 design points."""

    @pytest.fixture(scope="class")
    def context(self):
        return ExperimentContext(size="small")

    @pytest.mark.parametrize("name", ["traffic", "no2"])
    @pytest.mark.parametrize("density", [0.05, 0.15])
    def test_same_bits_as_reference(self, context, name, density):
        system = context.decomposed(name, density, "dmesh")
        n = system.model.n
        config = DecompositionConfig().finetune
        S = _sample_matrix(context.dense(name).samples, config)
        mask = system.mask & system.mask.T & ~np.eye(n, dtype=bool)
        reference = _reference_descent(S, mask, 40, 1e-6)
        omega, _sweeps, _last = _concord_descent(S, mask, 40, 1e-6)
        assert _same_bits(omega, reference)
        # The decomposed model was built from these bits.
        assert _same_bits(system.model.J, symmetrize_coupling(-reference))


class TestFineTuneMetadata:
    def test_capped_fit_is_flagged(self, gaussian_samples):
        samples, _ = gaussian_samples
        n = samples.shape[1]
        mask = ~np.eye(n, dtype=bool)
        model = fit_precision_masked(samples, mask, max_sweeps=1, tol=1e-12)
        assert model.metadata["finetune_sweeps"] == 1
        assert model.metadata["finetune_last_update"] >= 1e-12
        assert model.metadata["finetune_capped"] is True

    def test_converged_fit_is_not_flagged(self, gaussian_samples):
        samples, _ = gaussian_samples
        n = samples.shape[1]
        mask = ~np.eye(n, dtype=bool)
        model = fit_precision_masked(samples, mask, max_sweeps=1, tol=1e3)
        assert model.metadata["finetune_sweeps"] == 1
        assert model.metadata["finetune_capped"] is False


class TestFineTuneTelemetry:
    def test_decompose_span_counters_and_summary(self, tmp_path):
        context = ExperimentContext(size="small")
        path = tmp_path / "trace.jsonl"
        with obs.observe(trace_path=path) as (registry, _tracer):
            system = context.decomposed("no2", 0.05, "dmesh")
            context.decomposed("no2", 0.05, "dmesh")  # cached: no second fit
            snapshot = registry.snapshot()
        fit = system.model.metadata
        (span,) = [
            r["attributes"] for r in read_trace(path)
            if r["kind"] == "span" and r["name"] == "experiments.decompose"
        ]
        assert span["finetune_sweeps"] == fit["finetune_sweeps"]
        assert span["finetune_last_update"] == fit["finetune_last_update"]
        capped = int(fit["finetune_capped"])
        assert snapshot["counters"]["decompose.finetune_fits"] == 1
        assert snapshot["counters"]["decompose.finetune_capped"] == capped
        assert (
            f"CONCORD fine-tune: 1 fits, {capped} stopped at the sweep cap"
            in format_metrics(snapshot)
        )
