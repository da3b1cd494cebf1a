"""Tests of trace aggregation and the ``obs summarize`` rendering."""

import pytest

from repro import obs
from repro.obs import format_metrics, format_summary, summarize_trace
from repro.obs.summary import summarize_records


def _recorded_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    with obs.observe(trace_path=path) as (registry, tracer):
        with tracer.span("circuit.run_batch", batch=4, steps=100) as span:
            span.set("settled_fraction", 0.75)
            tracer.event("circuit.energy_probe", step=50, energy_mean=-2.0)
        with tracer.span("circuit.run_batch", batch=2, steps=100):
            pass
        registry.counter("engine.cache_hits").inc(9)
        registry.counter("engine.cache_misses").inc(1)
        registry.histogram("engine.solve_ms").observe(0.5)
    return path


class TestSummarizeRecords:
    def test_groups_spans_by_name(self, tmp_path):
        summary = summarize_trace(_recorded_trace(tmp_path))
        spans = summary["spans"]["circuit.run_batch"]
        assert spans["count"] == 2
        assert spans["total_ms"] >= spans["max_ms"]
        assert spans["mean_ms"] * 2 == pytest.approx(spans["total_ms"])

    def test_aggregates_numeric_attributes(self, tmp_path):
        summary = summarize_trace(_recorded_trace(tmp_path))
        steps = summary["span_attributes"]["circuit.run_batch.steps"]
        assert steps == {
            "count": 2, "sum": 200.0, "mean": 100.0, "min": 100.0,
            "max": 100.0,
        }
        batch = summary["span_attributes"]["circuit.run_batch.batch"]
        assert batch["sum"] == 6.0

    def test_collects_events_and_metrics(self, tmp_path):
        summary = summarize_trace(_recorded_trace(tmp_path))
        assert summary["events"] == {"circuit.energy_probe": 1}
        probe = summary["event_attributes"]["circuit.energy_probe.energy_mean"]
        assert probe["mean"] == -2.0
        assert summary["metrics"]["counters"]["engine.cache_hits"] == 9

    def test_non_numeric_attributes_ignored(self):
        summary = summarize_records(
            [
                {
                    "kind": "span",
                    "name": "s",
                    "duration_ms": 1.0,
                    "attributes": {"mode": "spatial", "n": 8, "flag": True},
                }
            ]
        )
        assert set(summary["span_attributes"]) == {"s.n"}

    def test_empty_records(self):
        summary = summarize_records([])
        assert summary["spans"] == {}
        assert summary["metrics"] is None


class TestFormatting:
    def test_format_summary_mentions_key_observables(self, tmp_path):
        text = format_summary(summarize_trace(_recorded_trace(tmp_path)))
        assert "circuit.run_batch" in text
        assert "settled_fraction" in text
        assert "steps" in text
        assert "LU-cache hit rate: 90.0%" in text

    def test_format_summary_without_spans(self):
        text = format_summary(summarize_records([]))
        assert "(no spans recorded)" in text

    def test_format_metrics_empty_snapshot(self):
        assert format_metrics({"counters": {}, "gauges": {}, "histograms": {}}) == ""

    def test_format_metrics_hit_rate_with_only_misses(self):
        text = format_metrics(
            {"counters": {"engine.cache_misses": 3}, "gauges": {}, "histograms": {}}
        )
        assert "LU-cache hit rate: 0.0%" in text

    def test_format_metrics_annealing_path_lines(self):
        text = format_metrics(
            {
                "counters": {
                    "circuit.steps": 100,
                    "circuit.samples": 8,
                    "circuit.member_steps": 400,
                    "circuit.frozen_members": 8,
                    "circuit.early_exits": 1,
                    "circuit.rejected_steps": 25,
                },
                "gauges": {},
                "histograms": {},
            }
        )
        assert "400 member-steps executed (50.0% of the step budget saved)" in text
        assert "early exit: 8 members frozen, 1 runs exited before budget" in text
        assert "adaptive steps: 80.0% accepted (25 rejected)" in text

    def test_format_metrics_fixed_runs_show_no_adaptive_lines(self):
        # The fixed-step path records only steps/samples; none of the
        # derived annealing-path lines may appear for it.
        text = format_metrics(
            {
                "counters": {"circuit.steps": 100, "circuit.samples": 8},
                "gauges": {},
                "histograms": {},
            }
        )
        assert "member-steps" not in text
        assert "adaptive steps" not in text

    def test_format_metrics_propagator_cache_line(self):
        text = format_metrics(
            {
                "counters": {
                    "dspu.propagator_hits": 9,
                    "dspu.propagator_builds": 3,
                    "dspu.damped_builds": 2,
                    "dspu.capped_phases": 5,
                    "dspu.exact_growth_bounds": 7,
                },
                "gauges": {},
                "histograms": {},
            }
        )
        assert (
            "DSPU propagators: 75.0% of anneal calls served from cache "
            "(9 hits, 3 builds, 2 damped, 5 capped phases, 7 exact bounds)"
        ) in text

    def test_format_metrics_without_anneals_has_no_propagator_line(self):
        text = format_metrics(
            {"counters": {"circuit.steps": 100}, "gauges": {}, "histograms": {}}
        )
        assert "DSPU propagators" not in text

    def test_format_metrics_dspu_mapping_line_next_to_propagators(self):
        text = format_metrics(
            {
                "counters": {
                    "experiments.dspu_maps": 4,
                    "experiments.dspu_map_reuses": 28,
                    "dspu.propagator_builds": 32,
                },
                "gauges": {},
                "histograms": {},
            }
        )
        lines = text.splitlines()
        mapping = lines.index("DSPU mappings: 4 built, 28 reused")
        assert lines[mapping + 1].startswith("DSPU propagators: ")

    def test_format_metrics_finetune_line_before_dspu_lines(self):
        text = format_metrics(
            {
                "counters": {
                    "decompose.finetune_fits": 15,
                    "decompose.finetune_capped": 12,
                    "experiments.dspu_maps": 15,
                },
                "gauges": {},
                "histograms": {},
            }
        )
        lines = text.splitlines()
        finetune = lines.index(
            "CONCORD fine-tune: 15 fits, 12 stopped at the sweep cap"
        )
        assert lines[finetune + 1].startswith("DSPU mappings: ")

    def test_format_metrics_circuit_rail_line(self):
        text = format_metrics(
            {
                "counters": {"circuit.rail_clips": 0, "circuit.runs": 3},
                "gauges": {},
                "histograms": {},
            }
        )
        assert "circuit rails: 0 free-node values clipped over 3 runs" in text

    def test_format_metrics_circuit_drift_line(self):
        text = format_metrics(
            {
                "counters": {
                    "circuit.drift_entries": 2696,
                    "circuit.folded_entries": 1946,
                },
                "gauges": {},
                "histograms": {},
            }
        )
        lines = text.splitlines()
        assert (
            "circuit drift: 1946 of 4642 free-row CSR entries folded into "
            "the clamped drive"
        ) in lines

    def test_format_metrics_dspu_rotation_line(self):
        text = format_metrics(
            {
                "counters": {
                    "dspu.anneal_runs": 7,
                    "dspu.partial_rotations": 5,
                    "dspu.propagator_builds": 7,
                },
                "gauges": {},
                "histograms": {},
            }
        )
        lines = text.splitlines()
        rotations = lines.index(
            "DSPU rotations: 5 of 7 anneals ended inside their first rotation"
        )
        assert lines[rotations - 1].startswith("DSPU propagators: ")

    def test_format_metrics_without_fold_or_rotation_counters(self):
        text = format_metrics(
            {
                "counters": {"circuit.runs": 3, "dspu.anneal_runs": 2},
                "gauges": {},
                "histograms": {},
            }
        )
        assert "circuit drift" not in text
        assert "DSPU rotations" not in text

    def test_format_metrics_without_rail_counter_has_no_rail_line(self):
        text = format_metrics(
            {"counters": {"circuit.runs": 3}, "gauges": {}, "histograms": {}}
        )
        assert "circuit rails" not in text

    def test_format_metrics_without_fits_has_no_finetune_line(self):
        text = format_metrics(
            {"counters": {"circuit.steps": 100}, "gauges": {}, "histograms": {}}
        )
        assert "CONCORD fine-tune" not in text

    def test_format_metrics_without_mappings_has_no_mapping_line(self):
        text = format_metrics(
            {
                "counters": {"dspu.propagator_builds": 3},
                "gauges": {},
                "histograms": {},
            }
        )
        assert "DSPU mappings" not in text
