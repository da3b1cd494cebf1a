"""Annealing-path tuning performance gates (``perf``-marked).

These execute only under ``pytest benchmarks/perf --run-perf`` (the CI
perf job) or with ``REPRO_RUN_PERF=1``.  The authoritative entry point
is ``repro bench``, whose core suite in :mod:`repro.perf` includes the
same rows.

The acceptance gate: per-member early-exit freeze-out must beat the
fixed worst-case step budget by at least 2x at n=2048 while both sides
stay within the absolute accuracy ceiling (MAE against the exact
equilibrium fixed point) — the headline claim recorded in
``BENCH_core.json``.
"""

import pytest

from repro.perf import bench_tune, run_suite

pytestmark = pytest.mark.perf


def test_tune_smoke_suite_rows_are_well_formed():
    rows = [
        row
        for row in run_suite("core", smoke=True, repeats=1)["results"]
        if row["name"].startswith("tune_")
    ]
    assert len(rows) == 2
    names = {row["name"] for row in rows}
    assert names == {"tune_early_exit_vs_fixed", "tune_adaptive_vs_conservative"}
    for row in rows:
        assert row["speedup"] > 0
        # Both sides must land within the absolute accuracy ceiling for
        # the speedup to count as equal-accuracy.
        assert row["baseline_mae"] <= row["accuracy_tol"]
        assert row["optimized_mae"] <= row["accuracy_tol"]
        assert row["equal_accuracy"]
        # The optimized side stopped before the worst-case budget.
        assert row["early_exit_t_ns"] <= row["duration_ns"]
        assert row["baseline_stats"]["samples_ms"]
        assert row["optimized_stats"]["samples_ms"]


def test_early_exit_beats_fixed_budget_2x_at_n2048():
    """The acceptance point: at n=2048 the freeze-out path must cut
    integration latency by at least 2x against the same-dt fixed budget,
    with both arms within the equal-accuracy MAE ceiling."""
    row = bench_tune(
        "tune_early_exit_vs_fixed",
        n=2048, density=0.01, batch=8, duration=100.0, repeats=2
    )
    assert row["speedup"] >= 2.0
    assert row["equal_accuracy"]
    assert row["early_exit_t_ns"] < row["duration_ns"]


def test_adaptive_beats_conservative_dt_at_equal_accuracy():
    """The variable-step story: starting from a 10x-safety-margin dt the
    PI controller recovers most of the headroom — faster than the
    conservative fixed step at the same accuracy ceiling."""
    row = bench_tune(
        "tune_adaptive_vs_conservative",
        n=1024, density=0.02, batch=8, duration=100.0, repeats=2
    )
    assert row["speedup"] > 1.0
    assert row["equal_accuracy"]
