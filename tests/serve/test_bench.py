"""The serve suite of the bench harness (``repro bench --suite serve``):
payload shape, serving guarantees, determinism.

Row identity and the silent self-diff are checked for every suite in
``tests/test_perf.py``.
"""

import pytest

from repro.perf import (
    SERVE_SMOKE_WINDOWS,
    bench_serve_burst,
    bench_serve_overload,
    format_bench,
    run_suite,
)


@pytest.fixture(scope="module")
def payload():
    return run_suite("serve", smoke=True, repeats=2)


class TestPayloadShape:
    def test_envelope(self, payload):
        assert payload["benchmark"] == "serve_slo"
        assert payload["smoke"] is True
        assert payload["repeats"] == 2
        assert payload["results"]
        assert "metrics" in payload
        assert payload["metrics"]["counters"]["serve.batches"] > 0

    def test_open_loop_curve_covers_every_window(self, payload):
        rows = [
            r for r in payload["results"] if r["name"] == "serve_open_loop"
        ]
        assert len(rows) == len(SERVE_SMOKE_WINDOWS) >= 3
        assert sorted(r["batch_window_ms"] for r in rows) == sorted(
            SERVE_SMOKE_WINDOWS
        )
        for row in rows:
            assert row["completed"] == row["requests"]
            assert 0.0 < row["p50_ms"] <= row["p99_ms"] <= row["p999_ms"]
            assert row["throughput_rps"] > 0
            assert row["optimized_stats"]["samples_ms"]

    def test_wider_window_batches_more(self, payload):
        rows = sorted(
            (
                r
                for r in payload["results"]
                if r["name"] == "serve_open_loop"
            ),
            key=lambda r: r["batch_window_ms"],
        )
        assert (
            rows[-1]["mean_batch_size"] >= rows[0]["mean_batch_size"]
        )

    def test_format_renders(self, payload):
        rendered = format_bench(payload)
        assert "serve_open_loop" in rendered
        assert "bitwise_identical=True" in rendered


class TestGuarantees:
    def test_batched_beats_serial_bit_for_bit(self, payload):
        row = next(
            r
            for r in payload["results"]
            if r["name"] == "serve_batched_vs_serial"
        )
        assert row["bitwise_identical"] is True
        assert row["max_abs_diff"] == 0.0
        assert row["speedup"] > 1.0
        assert row["throughput_batched_rps"] > row["throughput_serial_rps"]

    def test_overload_sheds_but_still_serves(self, payload):
        row = next(
            r
            for r in payload["results"]
            if r["name"] == "serve_overload_shed"
        )
        assert row["shed"] > 0
        assert row["completed"] > 0
        assert row["shed"] + row["completed"] == row["requests"]
        assert 0.0 < row["shed_fraction"] < 1.0


class TestDeterminism:
    def test_burst_predictions_seeded(self):
        first = bench_serve_burst(32, 0.2, burst=8, repeats=1, seed=9)
        second = bench_serve_burst(32, 0.2, burst=8, repeats=1, seed=9)
        assert first["bitwise_identical"] is True
        assert second["bitwise_identical"] is True
        assert first["max_abs_diff"] == second["max_abs_diff"] == 0.0

    def test_overload_statuses_depend_only_on_timing(self):
        row = bench_serve_overload(32, 0.2, seed=1)
        assert set(row["statuses"]) <= {"ok", "shed"}
