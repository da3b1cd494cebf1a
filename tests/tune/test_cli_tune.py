"""Tests of the ``repro tune`` CLI (search and replay modes)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.problem == "circuit"
        assert args.target_error == 1e-4
        assert args.config is None
        assert args.out == "TUNE_pareto.json"

    def test_dspu_problem_selectable(self):
        args = build_parser().parse_args(["tune", "--problem", "dspu"])
        assert args.problem == "dspu"

    def test_grid_flags_parse(self):
        args = build_parser().parse_args(
            ["tune", "--durations", "10", "20", "--dts", "0.1", "0.05",
             "--rtols", "1e-3", "--schedules", "cosine", "linear",
             "--smoke"]
        )
        assert args.durations == [10.0, 20.0]
        assert args.dts == [0.1, 0.05]
        assert args.schedules == ["cosine", "linear"]
        assert args.smoke


class TestSearchMode:
    def _search(self, tmp_path, *extra):
        out = tmp_path / "pareto.json"
        argv = [
            "tune", "--smoke", "--n", "32", "--density", "0.2",
            "--batch", "2", "--durations", "10", "20",
            "--target-error", "1e-3", "--repeats", "1",
            "--out", str(out), *extra,
        ]
        assert main(argv) == 0
        return json.loads(out.read_text())

    def test_smoke_search_writes_artifact(self, tmp_path, capsys):
        artifact = self._search(tmp_path)
        assert artifact["version"] == 2
        assert artifact["problem"]["kind"] == "circuit"
        assert artifact["front"]
        assert artifact["met_target"]
        output = capsys.readouterr().out
        assert "Pareto front" in output
        assert "<- best" in output

    def test_search_includes_requested_dimensions(self, tmp_path):
        artifact = self._search(
            tmp_path, "--schedules", "cosine", "--sync-intervals", "5",
        )
        labels = [row["label"] for row in artifact["rows"]]
        assert any("cosine" in label for label in labels)
        assert any("settle" in label for label in labels)
        assert any("rtol" in label for label in labels)

    def test_dspu_smoke_search(self, tmp_path, capsys):
        out = tmp_path / "dspu.json"
        argv = [
            "tune", "--problem", "dspu", "--smoke", "--n", "16",
            "--density", "0.3", "--durations", "2000", "5000",
            "--sync-intervals", "200", "--target-error", "0.5",
            "--repeats", "1", "--out", str(out),
        ]
        assert main(argv) == 0
        artifact = json.loads(out.read_text())
        assert artifact["problem"]["kind"] == "dspu"
        # The grid crosses durations x intervals x {fixed, early-exit}.
        assert len(artifact["rows"]) == 4


class TestReplayMode:
    def test_replay_met_target_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "pareto.json"
        assert main([
            "tune", "--smoke", "--n", "32", "--density", "0.2",
            "--batch", "2", "--durations", "20",
            "--target-error", "1e-3", "--repeats", "1", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert main(["tune", "--config", str(out), "--repeats", "1"]) == 0
        output = capsys.readouterr().out
        assert "MET" in output

    def test_replay_missed_target_exits_one(self, tmp_path, capsys):
        out = tmp_path / "pareto.json"
        assert main([
            "tune", "--smoke", "--n", "32", "--density", "0.2",
            "--batch", "2", "--durations", "2",
            "--target-error", "1e9", "--repeats", "1", "--out", str(out),
        ]) == 0
        # Tighten the recorded target below what the config achieves:
        # the replay must notice and fail.
        artifact = json.loads(out.read_text())
        artifact["target_error"] = 1e-15
        out.write_text(json.dumps(artifact))
        capsys.readouterr()
        assert main(["tune", "--config", str(out), "--repeats", "1"]) == 1
        assert "MISSED" in capsys.readouterr().out
