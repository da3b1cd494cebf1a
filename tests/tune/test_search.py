"""Tests of the Pareto search machinery (:mod:`repro.tune.search`)."""

import numpy as np
import pytest

from repro.tune import (
    CircuitProblem,
    DspuProblem,
    TuneCandidate,
    build_grid,
    build_problem,
    evaluate_candidate,
    load_artifact,
    pareto_front,
    replay,
    save_artifact,
    search,
)


@pytest.fixture(scope="module")
def problem():
    """A tiny circuit problem: exact reference, fast evaluations."""
    return CircuitProblem(n=32, density=0.2, batch=3, seed=0)


class TestTuneCandidate:
    def test_roundtrips_through_dict(self):
        candidate = TuneCandidate(
            dt=0.05, adaptive=True, rtol=1e-5, early_exit=True,
            settle_tolerance=1e-8, duration=25.0, schedule="cosine",
            sync_interval=5.0, restarts=3,
        )
        assert TuneCandidate.from_dict(candidate.to_dict()) == candidate

    def test_integration_config_mirrors_fields(self):
        candidate = TuneCandidate(dt=0.02, adaptive=True, rtol=1e-5)
        config = candidate.integration_config()
        assert config.dt == 0.02
        assert config.adaptive
        assert config.rtol == 1e-5
        # Tuned runs record nothing but endpoints and carry no noise.
        assert config.record_every == 1_000_000
        assert config.node_noise_std == 0.0

    def test_label_mentions_armed_dimensions(self):
        label = TuneCandidate(
            adaptive=True, early_exit=True, schedule="cosine", restarts=4
        ).label()
        for token in ("rtol", "settle", "cosine", "restarts=4"):
            assert token in label


class TestBuildGrid:
    def test_contains_fixed_baselines(self):
        grid = build_grid(durations=[10.0, 20.0], dts=[0.1, 0.05])
        baselines = [c for c in grid if not c.adaptive and not c.early_exit]
        assert len(baselines) == 4
        assert len(grid) == 4

    def test_layers_dimensions_linearly(self):
        grid = build_grid(
            durations=[10.0],
            dts=[0.1],
            rtols=[1e-3, 1e-5],
            settle_tolerances=[1e-6],
            schedules=["cosine"],
            sync_intervals=[5.0],
            restarts=[1, 3],
        )
        # 1 baseline + 2 adaptive + 1 early-exit + 2 adaptive×early-exit
        # + 1 schedule + 1 restart (count 1 is skipped).
        assert len(grid) == 8
        assert len(set(grid)) == len(grid)

    def test_deduplicates_overlapping_dimensions(self):
        grid = build_grid(durations=[10.0, 10.0], dts=[0.1, 0.1])
        assert len(grid) == 1


class TestParetoFront:
    def test_front_is_nondominated_and_sorted(self):
        rows = [
            {"latency_ms": 10.0, "error": 1e-3},
            {"latency_ms": 5.0, "error": 1e-2},
            {"latency_ms": 7.0, "error": 5e-2},  # dominated by the first two
            {"latency_ms": 20.0, "error": 1e-5},
        ]
        front = pareto_front(rows)
        assert [r["latency_ms"] for r in front] == [5.0, 10.0, 20.0]
        errors = [r["error"] for r in front]
        assert errors == sorted(errors, reverse=True)

    def test_single_row_is_its_own_front(self):
        rows = [{"latency_ms": 1.0, "error": 0.5}]
        assert pareto_front(rows) == rows


class TestEvaluateAndSearch:
    def test_evaluate_row_shape(self, problem):
        row = evaluate_candidate(
            problem, TuneCandidate(dt=0.1, duration=20.0), repeats=2
        )
        assert row["error"] >= 0.0
        assert row["latency_ms"] > 0.0
        assert len(row["samples_ms"]) == 2
        assert row["latency_ms"] == min(row["samples_ms"])

    def test_longer_budget_is_more_accurate(self, problem):
        short = evaluate_candidate(
            problem, TuneCandidate(dt=0.1, duration=2.0), repeats=1
        )
        long = evaluate_candidate(
            problem, TuneCandidate(dt=0.1, duration=50.0), repeats=1
        )
        assert long["error"] < short["error"]

    def test_search_artifact_structure(self, problem):
        grid = build_grid(
            durations=[20.0, 50.0], dts=[0.1], settle_tolerances=[1e-8]
        )
        artifact = search(problem, grid, target_error=1e-3, repeats=1)
        assert artifact["version"] == 2
        assert artifact["problem"]["kind"] == "circuit"
        assert len(artifact["rows"]) == len(grid)
        assert artifact["front"]
        assert artifact["met_target"]
        # Best is the fastest row meeting the target.
        meeting = [r for r in artifact["rows"] if r["error"] <= 1e-3]
        assert artifact["best"] == min(meeting, key=lambda r: r["latency_ms"])

    def test_unreachable_target_flags_miss(self, problem):
        artifact = search(
            problem,
            [TuneCandidate(dt=0.1, duration=1.0)],
            target_error=1e-15,
            repeats=1,
        )
        assert not artifact["met_target"]
        assert artifact["best"] == artifact["rows"][0]

    def test_rejects_empty_grid_and_bad_target(self, problem):
        with pytest.raises(ValueError, match="empty"):
            search(problem, [], target_error=1e-3)
        with pytest.raises(ValueError, match="target_error"):
            search(problem, [TuneCandidate()], target_error=0.0)


class TestArtifactRoundtrip:
    def test_save_load_replay(self, problem, tmp_path):
        grid = build_grid(durations=[20.0], dts=[0.1],
                          settle_tolerances=[1e-8])
        artifact = search(problem, grid, target_error=1e-3, repeats=1)
        path = tmp_path / "pareto.json"
        save_artifact(str(path), artifact)
        loaded = load_artifact(str(path))
        assert loaded["best"] == artifact["best"]
        row = replay(loaded, repeats=1)
        assert row["met_target"]
        assert row["target_error"] == 1e-3

    def test_version_1_artifact_is_rejected_and_fresh_one_replays(
        self, problem, tmp_path
    ):
        """Version 1 stored the removed ``shards``/``workers`` candidate
        fields; loading one fails on its version, not on the fields."""
        artifact = search(
            problem, [TuneCandidate(dt=0.1, duration=20.0)],
            target_error=1e-3, repeats=1,
        )
        fresh = tmp_path / "fresh.json"
        save_artifact(str(fresh), artifact)
        assert replay(load_artifact(str(fresh)), repeats=1)["met_target"]
        old = dict(artifact, version=1)
        old["best"] = dict(
            artifact["best"],
            candidate=dict(
                artifact["best"]["candidate"], shards=None, workers=None
            ),
        )
        stale = tmp_path / "v1.json"
        save_artifact(str(stale), old)
        with pytest.raises(
            ValueError, match="unsupported tune artifact version 1"
        ):
            load_artifact(str(stale))

    def test_load_rejects_bad_version(self, tmp_path):
        path = tmp_path / "bad.json"
        save_artifact(str(path), {"version": 99})
        with pytest.raises(ValueError, match="version"):
            load_artifact(str(path))

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "partial.json"
        save_artifact(str(path), {"version": 2, "problem": {}})
        with pytest.raises(ValueError, match="target_error"):
            load_artifact(str(path))


class TestBuildProblem:
    def test_rebuilds_circuit_from_describe(self, problem):
        rebuilt = build_problem(problem.describe())
        assert isinstance(rebuilt, CircuitProblem)
        # Same seed → identical reference, the replay contract.
        assert np.array_equal(rebuilt.reference, problem.reference)

    def test_rebuilds_dspu_from_describe(self):
        original = DspuProblem(n=16, density=0.3, seed=1)
        rebuilt = build_problem(original.describe())
        assert isinstance(rebuilt, DspuProblem)
        assert np.array_equal(rebuilt.reference, original.reference)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            build_problem({"kind": "quantum"})


class TestProblemEvaluations:
    def test_scheduled_candidate_runs(self, problem):
        row = evaluate_candidate(
            problem,
            TuneCandidate(dt=0.1, duration=20.0, schedule="cosine",
                          sync_interval=5.0, kick=0.02),
            repeats=1,
        )
        assert np.isfinite(row["error"])

    def test_restart_candidate_runs(self, problem):
        row = evaluate_candidate(
            problem,
            TuneCandidate(dt=0.1, duration=20.0, restarts=2),
            repeats=1,
        )
        assert np.isfinite(row["error"])

    def test_dspu_early_exit_candidate_runs(self):
        dspu_problem = DspuProblem(n=16, density=0.3, seed=1,
                                   reference_duration_ns=20000.0)
        row = evaluate_candidate(
            dspu_problem,
            TuneCandidate(duration=10000.0, sync_interval=200.0,
                          early_exit=True, settle_tolerance=1e-3),
            repeats=1,
        )
        assert np.isfinite(row["error"])
