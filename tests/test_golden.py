"""Golden-file regression tests of the user-facing report surfaces.

These outputs are pinned against committed files in ``tests/golden/``:

* the ``repro faults sweep`` payload (schema exactly, float values to a
  BLAS-tolerant relative tolerance);
* the ``repro obs summarize`` report over a committed trace JSONL
  fixture — pure text aggregation, so the comparison is byte-exact;
* the stdout of ``repro figure 11 --size small`` and ``repro figure 12
  --size small`` (the paper pipeline end to end: dataset, training,
  decomposition, DSPU mapping, co-annealing, readout RMSE), byte-exact.
  Regenerate them from the repository root with
  ``PYTHONPATH=src python -m repro figure N --size small`` for N = 11
  and 12, redirected to ``tests/golden/figureN_small.txt``.

Regenerate deliberately (after verifying a change is intended) with the
commands above or the expression each test names for its file; a
silent drift in any surface is a regression, not noise.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import ExperimentContext, fault_sweep_data
from repro.obs import format_summary, summarize_trace

GOLDEN = Path(__file__).parent / "golden"

#: Relative tolerance for golden floats: bitwise agreement holds on one
#: machine, but BLAS build differences legitimately move the last bits.
RTOL = 1e-6


def _assert_matches_golden(actual, expected, path="$"):
    """Structural equality with rtol on floats, exactness on the rest."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected mapping"
        assert sorted(actual) == sorted(expected), f"{path}: keys differ"
        for key in expected:
            _assert_matches_golden(
                actual[key], expected[key], f"{path}.{key}"
            )
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{path}: expected list"
        assert len(actual) == len(expected), f"{path}: length differs"
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches_golden(a, e, f"{path}[{i}]")
    elif isinstance(expected, bool):
        assert actual is expected, f"{path}: {actual!r} != {expected!r}"
    elif isinstance(expected, float):
        assert np.isclose(actual, expected, rtol=RTOL, atol=0.0), (
            f"{path}: {actual!r} != {expected!r} (rtol={RTOL})"
        )
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


class TestFaultSweepGolden:
    @pytest.fixture(scope="class")
    def sweep(self):
        # Builder of tests/golden/fault_sweep.json: dump this payload
        # with json.dump(..., indent=2, sort_keys=True) to regenerate.
        return fault_sweep_data(
            ExperimentContext(size="small"),
            datasets=("traffic",),
            fault_rates=(0.0, 0.02),
            duration_ns=1000.0,
            max_windows=1,
            trials=1,
            seed=0,
        )

    def test_payload_matches_golden(self, sweep):
        golden = json.loads((GOLDEN / "fault_sweep.json").read_text())
        _assert_matches_golden(sweep, golden)

    def test_schema_fields(self, sweep):
        entry = sweep["traffic"]
        assert sorted(entry) == [
            "diverged", "fault_rates", "rmse", "scenarios", "trials",
        ]
        assert all(np.isfinite(v) for v in entry["rmse"])
        assert entry["scenarios"][0] == {"enabled": False}


class TestStreamRunGolden:
    """``repro stream run`` summary pinned byte-exact.

    The replay is a pure function of the config seed and the per-window
    MAE is rendered at 4 decimals (slack of ~5e-5, orders of magnitude
    above BLAS build jitter), so the pinned text is machine-independent.
    Latency columns are excluded via ``include_latency=False``.
    """

    CONFIG = dict(
        n=64, density=0.08, windows=6, batch=8, edges_per_window=3,
        h_edits_per_window=1, seed=42, backend="sparse",
    )

    def _summary(self, mode):
        # Builder of tests/golden/stream_run.txt: this expression (engine
        # mode) plus a trailing newline.
        from repro.stream import (
            StreamConfig, format_stream_summary, run_stream,
        )

        result = run_stream(StreamConfig(mode=mode, **self.CONFIG))
        return format_stream_summary(result, include_latency=False)

    def test_engine_replay_matches_golden_exactly(self):
        expected = (GOLDEN / "stream_run.txt").read_text()
        assert self._summary("engine") + "\n" == expected

    def test_serve_replay_matches_the_same_golden(self):
        """Routing every window through the dynamic-batching server must
        reproduce the direct-engine replay to the rendered digit —
        per-window update/refactor counts included."""
        expected = (GOLDEN / "stream_run.txt").read_text()
        engine_header, _, body = expected.partition("\n")
        serve = self._summary("serve") + "\n"
        serve_header, _, serve_body = serve.partition("\n")
        assert serve_body == body
        assert serve_header == engine_header.replace(
            "mode=engine", "mode=serve"
        )


class TestObsSummarizeGolden:
    def test_report_matches_golden_exactly(self):
        # Builder of tests/golden/obs_summary.txt: this expression plus a
        # trailing newline.  The fixture is hand-written (fixed timings),
        # so the aggregation is fully deterministic.
        report = format_summary(
            summarize_trace(GOLDEN / "trace_fixture.jsonl")
        )
        expected = (GOLDEN / "obs_summary.txt").read_text()
        assert report + "\n" == expected

    def test_cli_summarize_prints_the_report(self, capsys):
        assert main(
            ["obs", "summarize", str(GOLDEN / "trace_fixture.jsonl")]
        ) == 0
        out = capsys.readouterr().out
        assert "LU-cache hit rate: 75.0%" in out
        assert "circuit.run_batch" in out


class TestFigureGolden:
    """The paper's co-annealing curves at small size, byte for byte."""

    @pytest.mark.parametrize("number", [11, 12])
    def test_stdout_matches_golden_exactly(self, number, capsys):
        assert main(["figure", str(number), "--size", "small"]) == 0
        expected = (GOLDEN / f"figure{number}_small.txt").read_text()
        assert capsys.readouterr().out == expected
