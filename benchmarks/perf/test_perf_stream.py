"""Streaming-update performance gates (``perf``-marked, skipped by default).

These execute only under ``pytest benchmarks/perf --run-perf`` (the CI
perf job) or with ``REPRO_RUN_PERF=1``.  The authoritative entry point
is ``repro bench``, whose core suite in :mod:`repro.perf` includes the
same rows.

The acceptance gate: absorbing a single-edge delta into a cached
reduced-system factorization via the Sherman-Morrison-Woodbury
incremental path must beat a full LU refactorization by at least 5x at
n=4096 — the headline claim recorded in ``BENCH_core.json``.
"""

import pytest

from repro.perf import bench_stream_update, run_suite

pytestmark = pytest.mark.perf


def test_stream_smoke_suite_rows_are_well_formed():
    rows = [
        row
        for row in run_suite("core", smoke=True, repeats=1)["results"]
        if row["name"] == "stream_incremental_update"
    ]
    assert len(rows) == 2
    for row in rows:
        assert row["name"] == "stream_incremental_update"
        assert row["delta_edges"] in (1, 8)
        # Free-free edges contribute two SMW columns each; edges touching
        # observed nodes become exact B-edits and cost no rank.
        assert 0 <= row["update_rank"] <= 2 * row["delta_edges"]
        assert row["speedup"] > 0
        # Incremental and refactorized solves agree within the bound.
        assert row["residual"] <= row["residual_tol"]
        assert row["max_abs_diff"] < 1e-8
        assert row["baseline_stats"]["samples_ms"]
        assert row["optimized_stats"]["samples_ms"]


def test_single_edge_incremental_update_beats_refactorization_5x():
    """The acceptance point: one edge edit at n=4096, incremental path
    >= 5x faster than refactorize-from-scratch (delta -> next prediction,
    both arms ending in the same batch solve)."""
    row = bench_stream_update(
        n=4096, density=0.01, delta_edges=1, repeats=2
    )
    assert row["speedup"] >= 5.0
    assert row["residual"] <= row["residual_tol"]
    assert row["max_abs_diff"] < 1e-8


def test_incremental_advantage_grows_with_n():
    """The scaling story behind the gate: the refactorization arm grows
    superlinearly while the SMW update stays low-rank, so the speedup at
    n=1024 must already exceed the one at n=256."""
    small = bench_stream_update(n=256, density=0.05, delta_edges=1, repeats=2)
    large = bench_stream_update(n=1024, density=0.02, delta_edges=1, repeats=2)
    assert large["speedup"] > small["speedup"]
    assert large["speedup"] > 2.0
