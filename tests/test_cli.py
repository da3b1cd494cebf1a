"""Tests of the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "traffic"])
        assert args.dataset == "traffic"
        assert args.size == "small"
        assert args.window == 3

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "imagenet"])

    def test_table_numbers_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "7"])

    def test_decompose_grid_option(self):
        args = build_parser().parse_args(
            ["decompose", "no2", "--grid", "2", "4", "--pattern", "mesh"]
        )
        assert tuple(args.grid) == (2, 4)
        assert args.pattern == "mesh"

    def test_observability_flags_on_every_subcommand(self):
        parser = build_parser()
        for argv in (
            ["datasets"],
            ["train", "o3"],
            ["decompose", "o3"],
            ["table", "1"],
            ["figure", "4"],
            ["bench"],
        ):
            args = parser.parse_args(argv + ["--trace", "t.jsonl", "--metrics"])
            assert args.trace == "t.jsonl"
            assert args.metrics is True

    def test_observability_flags_before_positionals(self):
        args = build_parser().parse_args(
            ["train", "--trace", "t.jsonl", "-vv", "o3"]
        )
        assert args.trace == "t.jsonl"
        assert args.verbose == 2
        assert args.dataset == "o3"

    def test_obs_summarize_requires_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "summarize"])

    def test_workers_only_on_bench(self):
        parser = build_parser()
        assert parser.parse_args(["bench", "--workers", "2"]).workers == 2
        for argv in (
            ["train", "o3", "--workers", "2"],
            ["tune", "--workers", "2"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)


class TestCommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("traffic", "covid", "powergrid", "climate"):
            assert name in out

    def test_train_reports_rmse(self, capsys, tmp_path):
        path = tmp_path / "model.npz"
        assert main(["train", "o3", "--save", str(path)]) == 0
        out = capsys.readouterr().out
        assert "test RMSE" in out
        assert path.exists()
        from repro.core import DSGLModel

        loaded = DSGLModel.load(path)
        assert loaded.metadata["dataset"] == "o3"

    def test_decompose_reports_structure(self, capsys):
        assert main(["decompose", "o3", "--density", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "modularity" in out
        assert "decomposed RMSE" in out

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        out = capsys.readouterr().out
        assert "BRIM" in out and "DS-GL" in out

    def test_figure4(self, capsys):
        assert main(["figure", "4"]) == 0
        out = capsys.readouterr().out
        assert "DSPU final" in out and "BRIM final" in out


class TestObservability:
    def test_train_trace_then_summarize(self, capsys, tmp_path):
        from repro import obs

        trace = tmp_path / "trace.jsonl"
        assert main(["train", "o3", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "circuit check" in out
        assert "settled fraction" in out
        assert f"trace written to {trace}" in out
        assert not obs.enabled()  # main() restores the disabled state

        records = obs.read_trace(trace)
        span_names = {r["name"] for r in records if r["kind"] == "span"}
        assert "circuit.run_batch" in span_names
        assert "engine.factorize" in span_names
        assert records[-1]["kind"] == "metrics"

        assert main(["obs", "summarize", str(trace)]) == 0
        summary = capsys.readouterr().out
        assert "circuit.run_batch" in summary
        assert "steps" in summary
        assert "settled_fraction" in summary
        assert "circuit.energy_probe" in summary
        assert "LU-cache hit rate" in summary

    def test_metrics_flag_prints_snapshot(self, capsys):
        assert main(["train", "o3", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "engine.cache_misses" in out
        assert "circuit.runs" in out
        assert "LU-cache hit rate" in out

    def test_no_flags_leaves_observability_disabled(self, capsys):
        from repro import obs

        assert main(["datasets"]) == 0
        assert not obs.enabled()
        assert "trace written" not in capsys.readouterr().out


class TestBenchCommand:
    def test_bench_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.suite == "core"
        assert args.out is None  # resolved to BENCH_<suite>.json at run time
        assert args.smoke is False
        assert args.batch == 64
        assert args.repeats == 3

    def test_bench_suite_nn_parses(self):
        args = build_parser().parse_args(["bench", "--suite", "nn"])
        assert args.suite == "nn"

    def test_bench_suite_serve_defaults(self):
        args = build_parser().parse_args(["bench", "--suite", "serve", "--smoke"])
        assert args.suite == "serve"
        assert args.smoke is True
        assert args.repeats == 3

    def test_bench_suite_serve_smoke_writes_payload(self, capsys, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        code = main(
            [
                "bench", "--suite", "serve", "--smoke", "--repeats", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "bitwise_identical=True" in printed
        import json

        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "serve_slo"
        names = {row["name"] for row in payload["results"]}
        assert {
            "serve_open_loop",
            "serve_batched_vs_serial",
            "serve_overload_shed",
        } <= names

    def test_bench_suite_nn_smoke_writes_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_nn.json"
        assert main(
            ["bench", "--suite", "nn", "--smoke", "--out", str(out),
             "--repeats", "1"]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "nn_fast_path"
        assert payload["smoke"] is True
        names = [r["name"] for r in payload["results"]]
        assert any("train_epoch" in n for n in names)
        assert any("graphconv" in n for n in names)
        stdout = capsys.readouterr().out
        assert "speedup" in stdout

    def test_bench_smoke_writes_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_core.json"
        assert main(["bench", "--smoke", "--out", str(out), "--repeats", "1"]) == 0
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "core_hot_paths"
        assert payload["smoke"] is True
        for result in payload["results"]:
            if result["name"] == "parallel_scaling_curve":
                # The scaling curve carries per-row deviations instead of
                # one comparison pair.
                for row in result["rows"]:
                    assert row["max_abs_diff"] < 1e-8
                    assert row["transport_max_abs_diff"] < 1e-8
                continue
            if result["name"].startswith("tune_"):
                # Tune rows judge both arms against an absolute MAE
                # ceiling instead of diffing the two outputs.
                assert result["equal_accuracy"] is True
                continue
            assert result["max_abs_diff"] < 1e-8
        stdout = capsys.readouterr().out
        assert "speedup" in stdout
        assert "scaling curve" in stdout
        assert str(out) in stdout

    def test_bench_embeds_samples_and_metrics(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_core.json"
        repeats = 2
        assert main(
            ["bench", "--smoke", "--out", str(out), "--repeats", str(repeats)]
        ) == 0
        payload = json.loads(out.read_text())
        for result in payload["results"]:
            if "baseline_stats" not in result:
                continue
            for stats_key in ("baseline_stats", "optimized_stats"):
                stats = result[stats_key]
                assert len(stats["samples_ms"]) == repeats
                assert stats["best_ms"] == min(stats["samples_ms"])
                assert stats["best_ms"] <= stats["median_ms"] <= stats["p90_ms"]
        equilibrium = next(
            r for r in payload["results"] if "equilibrium" in r["name"]
        )
        assert equilibrium["cache_hits"] > 0
        assert equilibrium["cache_misses"] >= 1
        counters = payload["metrics"]["counters"]
        assert counters["engine.cache_hits"] > 0
        assert counters["circuit.runs"] > 0
        stdout = capsys.readouterr().out
        assert "opt p50" in stdout
        assert "LU-cache hit rate" in stdout


class TestObsCliErrors:
    """Satellite: obs subcommands fail cleanly, never with a traceback."""

    def _fails_cleanly(self, capsys, argv, fragment):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert fragment in captured.err
        assert "Traceback" not in captured.err
        assert "Traceback" not in captured.out

    def test_summarize_empty_trace(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        self._fails_cleanly(
            capsys, ["obs", "summarize", str(empty)], "trace is empty"
        )

    def test_summarize_truncated_trace(self, capsys, tmp_path):
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text(
            '{"kind": "span", "name": "a", "span_id": 1, "parent_id": null,'
            ' "duration_ms": 1.0, "attributes": {}}\n'
            '{"kind": "span", "name": "b", "span_id'
        )
        self._fails_cleanly(
            capsys, ["obs", "summarize", str(truncated)], "line 2"
        )

    def test_summarize_missing_file(self, capsys, tmp_path):
        self._fails_cleanly(
            capsys,
            ["obs", "summarize", str(tmp_path / "nope.jsonl")],
            "no such trace file",
        )

    def test_timeline_shares_clean_error_handling(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        self._fails_cleanly(
            capsys, ["obs", "timeline", str(empty)], "trace is empty"
        )

    def test_export_without_embedded_metrics(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            '{"kind": "span", "name": "a", "span_id": 1, "parent_id": null,'
            ' "duration_ms": 1.0, "attributes": {}}\n'
        )
        self._fails_cleanly(
            capsys,
            ["obs", "export", str(trace)],
            "no embedded metrics snapshot",
        )

    def test_flame_missing_profile(self, capsys, tmp_path):
        self._fails_cleanly(
            capsys,
            ["obs", "flame", str(tmp_path / "nope.txt")],
            "no such profile file",
        )

    def test_diff_missing_snapshot(self, capsys, tmp_path):
        self._fails_cleanly(
            capsys,
            ["obs", "diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")],
            "no such bench snapshot",
        )


class TestObsToolingCli:
    """End-to-end smoke of the new obs subcommands on one traced run."""

    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("obs-cli")
        trace = tmp / "trace.jsonl"
        profile = tmp / "profile.txt"
        assert main(
            [
                "train", "o3",
                "--trace", str(trace),
                "--profile", str(profile),
                "--profile-interval", "0.002",
            ]
        ) == 0
        return trace, profile

    def test_profile_flag_writes_collapsed_stacks(self, traced_run):
        from repro import obs

        _trace, profile = traced_run
        assert profile.exists()
        samples = obs.read_profile(profile)
        assert sum(samples.values()) > 0
        assert all(stack[0].startswith("span:") for stack in samples)

    def test_timeline_renders_trace(self, capsys, traced_run):
        trace, _profile = traced_run
        assert main(["obs", "timeline", str(trace), "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "spans over" in out
        assert "no orphan spans" in out
        assert "critical path" in out

    def test_export_openmetrics_to_stdout(self, capsys, traced_run):
        trace, _profile = traced_run
        assert main(["obs", "export", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_circuit_runs_total counter" in out
        assert out.rstrip().endswith("# EOF")

    def test_export_json_to_file(self, capsys, traced_run, tmp_path):
        import json

        trace, _profile = traced_run
        out_path = tmp_path / "metrics.json"
        assert main(
            ["obs", "export", str(trace), "--format", "json",
             "--out", str(out_path)]
        ) == 0
        assert f"wrote {out_path}" in capsys.readouterr().out
        document = json.loads(out_path.read_text())
        assert document["schema"] == "repro.obs.metrics/v1"
        assert "circuit.runs" in document["snapshot"]["counters"]

    def test_flame_summarizes_profile(self, capsys, traced_run):
        _trace, profile = traced_run
        assert main(["obs", "flame", str(profile), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "samples across" in out
        assert "span:" in out


class TestObsDiffCli:
    def _bench(self, tmp_path, name, scale):
        import json

        samples = [scale * s for s in (10.0, 10.1, 10.2)]
        path = tmp_path / name
        path.write_text(json.dumps({
            "benchmark": "core",
            "results": [{
                "name": "engine_infer",
                "n": 96,
                "optimized_stats": {
                    "best_ms": min(samples),
                    "median_ms": sorted(samples)[1],
                    "samples_ms": samples,
                },
            }],
        }))
        return path

    def test_identical_snapshots_exit_zero(self, capsys, tmp_path):
        base = self._bench(tmp_path, "base.json", 1.0)
        cand = self._bench(tmp_path, "cand.json", 1.0)
        assert main(["obs", "diff", str(base), str(cand)]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out
        assert "REGRESSION" not in out

    def test_synthetic_slowdown_exits_three(self, capsys, tmp_path):
        base = self._bench(tmp_path, "base.json", 1.0)
        cand = self._bench(tmp_path, "cand.json", 2.0)
        assert main(["obs", "diff", str(base), str(cand)]) == 3
        out = capsys.readouterr().out
        assert "1 regression(s)" in out
        assert "REGRESSION" in out

    def test_min_band_flag_widens_tolerance(self, capsys, tmp_path):
        base = self._bench(tmp_path, "base.json", 1.0)
        cand = self._bench(tmp_path, "cand.json", 1.15)
        assert main(["obs", "diff", str(base), str(cand)]) == 3
        capsys.readouterr()
        assert main(
            ["obs", "diff", str(base), str(cand), "--min-band", "0.3"]
        ) == 0


class TestServeCli:
    def test_serve_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_run_defaults(self):
        args = build_parser().parse_args(["serve", "run"])
        assert args.serve_command == "run"
        assert args.batch_window_ms == 2.0
        assert args.max_batch_size == 64
        assert args.max_queue == 256
        assert args.closed_loop is False

    def test_serve_bench_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "bench"])

    def test_serve_accepts_observability_flags(self):
        args = build_parser().parse_args(
            ["serve", "run", "--trace", "t.jsonl", "--metrics"]
        )
        assert args.trace == "t.jsonl"
        assert args.metrics is True

    def test_serve_run_executes(self, capsys, tmp_path):
        out = tmp_path / "serve_run.json"
        code = main(
            [
                "serve", "run", "--n", "32", "--requests", "20",
                "--rate", "4000", "--json", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "open-loop: 20/20 served" in printed
        assert "p99.9" in printed
        import json

        document = json.loads(out.read_text())
        assert document["completed"] == 20
        assert document["latency_quantiles"]["p999_ms"] > 0

    def test_serve_run_closed_loop_executes(self, capsys):
        code = main(
            [
                "serve", "run", "--n", "32", "--requests", "12",
                "--closed-loop", "--concurrency", "3",
            ]
        )
        assert code == 0
        assert "closed-loop: 12/12 served" in capsys.readouterr().out

    def test_serve_run_records_serve_spans(self, tmp_path):
        trace = tmp_path / "serve.jsonl"
        code = main(
            [
                "serve", "run", "--n", "32", "--requests", "10",
                "--trace", str(trace),
            ]
        )
        assert code == 0
        from repro import obs

        records = obs.read_trace(trace)
        names = {
            r["name"] for r in records if r.get("kind") == "span"
        }
        assert "serve.batch" in names
        assert "serve.request" in names
