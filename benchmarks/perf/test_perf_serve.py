"""Serving SLO benchmarks (``perf``-marked, skipped by default).

These execute only under ``pytest benchmarks/perf --run-perf`` (the CI
perf job) or with ``REPRO_RUN_PERF=1``.  The authoritative entry point
is ``repro bench --suite serve``, which shares the same harness in
:mod:`repro.perf`.
"""

import json

import pytest

from repro.perf import (
    bench_serve_burst,
    bench_serve_overload,
    run_suite,
    write_bench_json,
)

pytestmark = pytest.mark.perf


def test_serve_bench_smoke_writes_valid_payload(tmp_path):
    payload = run_suite("serve", smoke=True, repeats=1)
    assert payload["benchmark"] == "serve_slo"
    open_rows = [
        r for r in payload["results"] if r["name"] == "serve_open_loop"
    ]
    assert len(open_rows) >= 3
    for row in open_rows:
        assert row["completed"] == row["requests"]
        assert row["p50_ms"] <= row["p99_ms"] <= row["p999_ms"]

    out = write_bench_json(payload, tmp_path / "BENCH_serve.json")
    reloaded = json.loads(out.read_text())
    assert reloaded["results"] == payload["results"]


def test_dynamic_batching_beats_serial_at_equal_accuracy():
    """The serving claim at a real (not smoke) size: coalescing a burst
    into dynamic batches beats batch-size-1 serial serving on throughput
    while producing bit-for-bit identical predictions."""
    row = bench_serve_burst(n=256, density=0.05, burst=64, repeats=2)
    assert row["bitwise_identical"] is True
    assert row["max_abs_diff"] == 0.0
    assert row["speedup"] > 1.5
    assert row["throughput_batched_rps"] > row["throughput_serial_rps"]


def test_admission_control_sheds_instead_of_collapsing():
    """Overload must degrade by shedding (distinct status), not by
    unbounded queueing: everything is either served or shed, promptly."""
    row = bench_serve_overload(n=128, density=0.05, seed=0)
    assert row["shed"] > 0
    assert row["completed"] > 0
    assert row["shed"] + row["completed"] == row["requests"]
