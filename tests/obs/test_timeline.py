"""Timeline reconstruction tests: stitching health and breakdowns."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.dynamics import CircuitSimulator, IntegrationConfig
from repro.core.operators import CouplingOperator
from repro.obs.timeline import analyze_records, format_timeline
from repro.parallel import run_batch_sharded


def _span(name, span_id, parent_id, start, duration, **attributes):
    return {
        "kind": "span",
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "start_ms": start,
        "duration_ms": duration,
        "attributes": attributes,
    }


@pytest.fixture
def fanout_records():
    """A synthetic stitched trace: one map over four worker tasks."""
    records = [
        _span("session", 1, None, 0.0, 100.0),
        _span("parallel.map", 2, 1, 5.0, 90.0, tasks=4, workers=2),
    ]
    walls = [20.0, 40.0, 22.0, 21.0]
    for index, wall in enumerate(walls):
        records.append(
            _span(
                "parallel.task",
                3 + index,
                2,
                6.0 + index,
                wall,
                worker=True,
                task=index,
            )
        )
    return records


class TestAnalyzeRecords:
    def test_reconstructs_tree_with_no_orphans(self, fanout_records):
        analysis = analyze_records(fanout_records)
        assert analysis["orphans"] == []
        assert len(analysis["roots"]) == 1
        assert analysis["extent_ms"] == pytest.approx(100.0)

    def test_detects_orphan_spans(self, fanout_records):
        fanout_records.append(
            _span("lost.child", 99, 42, 1.0, 5.0)
        )
        analysis = analyze_records(fanout_records)
        assert [s["name"] for s in analysis["orphans"]] == ["lost.child"]
        rendered = format_timeline(analysis)
        assert "ORPHAN SPANS: 1" in rendered

    def test_per_shard_wall_time_and_skew(self, fanout_records):
        analysis = analyze_records(fanout_records)
        assert [row["task"] for row in analysis["shards"]] == [0, 1, 2, 3]
        assert analysis["shards"][1]["wall_ms"] == pytest.approx(40.0)
        # slowest 40 / median of (20, 40, 22, 21) = 21.5 -> ~1.86x
        assert analysis["skew"] == pytest.approx(40.0 / 21.5)

    def test_pool_idle_breakdown(self, fanout_records):
        analysis = analyze_records(fanout_records)
        (fanout,) = analysis["maps"]
        assert fanout["tasks"] == 4
        assert fanout["busy_ms"] == pytest.approx(103.0)
        assert fanout["longest_task_ms"] == pytest.approx(40.0)
        assert fanout["dispatch_overhead_ms"] == pytest.approx(50.0)
        # duration 90 x 2 workers - 103 busy
        assert fanout["idle_ms"] == pytest.approx(77.0)

    def test_critical_path_descends_heaviest_children(self, fanout_records):
        analysis = analyze_records(fanout_records)
        assert [s["name"] for s in analysis["critical_path"]] == [
            "session",
            "parallel.map",
            "parallel.task",
        ]

    def test_tolerates_missing_timing_fields(self):
        records = [
            {"kind": "span", "name": "bare", "span_id": 1, "parent_id": None},
            {"kind": "event", "name": "e", "span_id": 1, "at_ms": 1.0},
        ]
        analysis = analyze_records(records)
        assert analysis["orphans"] == []
        assert "bare" in format_timeline(analysis)

    def test_empty_trace_renders_placeholder(self):
        assert format_timeline(analyze_records([])) == "(no spans recorded)"


class TestFormatTimeline:
    def test_reports_stitching_and_breakdown_sections(self, fanout_records):
        rendered = format_timeline(analyze_records(fanout_records), width=40)
        assert "no orphan spans" in rendered
        assert "straggler skew" in rendered
        assert "critical path" in rendered
        assert "shard" in rendered
        assert "idle ms" in rendered
        assert "worker process" in rendered


class TestEndToEndStitching:
    """Acceptance: a workers=4 sharded run stitches with no orphans."""

    @pytest.fixture(scope="class")
    def sharded_trace(self, tmp_path_factory):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(10, 10)) * 0.3
        J = (raw + raw.T) / 2.0
        np.fill_diagonal(J, 0.0)
        operator = CouplingOperator(
            J, -(np.abs(J).sum(axis=1) + 1.0), backend="dense"
        )
        simulator = CircuitSimulator(
            config=IntegrationConfig(
                dt=0.05, record_every=8, node_noise_std=0.02
            )
        )
        path = tmp_path_factory.mktemp("timeline") / "trace.jsonl"
        sigma0 = rng.uniform(-1.0, 1.0, size=(8, operator.n))
        with obs.observe(trace_path=path) as (_metrics, tracer_):
            with tracer_.span("session"):
                run_batch_sharded(
                    simulator, operator.drift, sigma0, 2.0,
                    energy=operator.energy, root_seed=3,
                    workers=4, shards=4,
                )
        return obs.read_trace(path)

    def test_worker_spans_stitch_with_no_orphans(self, sharded_trace):
        analysis = analyze_records(self_records := sharded_trace)
        assert analysis["orphans"] == []
        worker_spans = [
            r
            for r in self_records
            if r.get("kind") == "span"
            and (r.get("attributes") or {}).get("worker")
        ]
        assert worker_spans, "no worker spans were absorbed"
        by_id = {
            r["span_id"]
            for r in self_records
            if r.get("kind") == "span"
        }
        assert all(s["parent_id"] in by_id for s in worker_spans)

    def test_reports_per_shard_wall_time_and_idle(self, sharded_trace):
        analysis = analyze_records(sharded_trace)
        assert [row["task"] for row in analysis["shards"]] == [0, 1, 2, 3]
        assert all(row["wall_ms"] > 0 for row in analysis["shards"])
        assert analysis["maps"] and analysis["maps"][0]["workers"] == 4
        rendered = format_timeline(analysis)
        assert "no orphan spans" in rendered
        assert "straggler skew" in rendered
        assert "idle ms" in rendered

    def test_worker_timestamps_rebased_into_parent_extent(self, sharded_trace):
        analysis = analyze_records(sharded_trace)
        session = next(
            s for s in analysis["spans"] if s["name"] == "session"
        )
        session_end = session["start_ms"] + session["duration_ms"]
        for row in analysis["spans"]:
            if (row.get("attributes") or {}).get("worker"):
                # Rebased worker clocks land inside the parent's session
                # window (wall-clock skew tolerance: a few ms).
                assert row["start_ms"] > session["start_ms"] - 5.0
                assert row["start_ms"] < session_end + 5.0
