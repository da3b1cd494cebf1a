"""Tests of the accuracy-vs-fault-rate sweep and its CLI."""

import dataclasses
import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments import (
    ExperimentContext,
    evaluate_hardware,
    fault_sweep_data,
    format_fault_sweep,
)
from repro.faults import FaultModel


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(size="small")


@pytest.fixture(scope="module")
def sweep(context):
    return fault_sweep_data(
        context,
        datasets=("traffic",),
        fault_rates=(0.0, 0.05),
        duration_ns=2000.0,
        max_windows=2,
    )


class TestSweepData:
    def test_structure(self, sweep):
        entry = sweep["traffic"]
        assert entry["fault_rates"] == [0.0, 0.05]
        assert len(entry["rmse"]) == 2
        assert len(entry["diverged"]) == 2
        assert len(entry["scenarios"]) == 2
        assert entry["scenarios"][0] == {"enabled": False}
        assert entry["scenarios"][1]["enabled"] is True

    def test_zero_rate_reproduces_baseline_bit_for_bit(self, context, sweep):
        """The integrity anchor: a disabled fault layer is a true no-op."""
        trained = context.dense("traffic")
        dspu = context.dspu("traffic", 0.15, "dmesh")
        baseline = evaluate_hardware(
            dspu,
            trained.windowing,
            trained.test.flat_series(),
            duration_ns=2000.0,
            max_windows=2,
        )
        assert sweep["traffic"]["rmse"][0] == baseline

    def test_faults_change_accuracy(self, sweep):
        rmse = sweep["traffic"]["rmse"]
        assert rmse[1] != rmse[0]
        assert np.isfinite(rmse).all() or sweep["traffic"]["diverged"][1]

    def test_trials_validated(self, context):
        with pytest.raises(ValueError, match="trials"):
            fault_sweep_data(context, trials=0)

    def test_json_serializable(self, sweep):
        payload = json.dumps(sweep)
        assert "fault_rates" in payload


class TestMultiTrialSweep:
    """Each rate averages ``trials`` scenarios sampled from ``seed + trial``."""

    RATES = (0.0, 0.05)
    SEED = 4

    @pytest.fixture(scope="class")
    def multi(self, context):
        return fault_sweep_data(
            context,
            datasets=("traffic",),
            fault_rates=self.RATES,
            duration_ns=2000.0,
            max_windows=2,
            trials=2,
            seed=self.SEED,
        )["traffic"]

    def _scenario(self, dspu, rate, trial):
        model = dataclasses.replace(
            FaultModel.uniform(rate, seed=self.SEED + trial),
            sync_skip_rate=rate,
        )
        return model.sample(dspu.model.n, J=dspu.model.J)

    def test_rmse_is_the_mean_over_trials(self, context, multi):
        trained = context.dense("traffic")
        dspu = context.dspu("traffic", 0.15, "dmesh")
        series = trained.test.flat_series()
        for i, rate in enumerate(self.RATES):
            values = [
                evaluate_hardware(
                    dspu,
                    trained.windowing,
                    series,
                    duration_ns=2000.0,
                    max_windows=2,
                    faults=self._scenario(dspu, rate, trial),
                )
                for trial in range(2)
            ]
            if rate > 0:
                assert values[0] != values[1]
            assert multi["rmse"][i] == float(np.mean(values))

    def test_scenarios_come_from_trial_zero(self, context, multi):
        dspu = context.dspu("traffic", 0.15, "dmesh")
        assert multi["scenarios"] == [
            self._scenario(dspu, rate, 0).summary() for rate in self.RATES
        ]

    def test_no_trial_diverges(self, multi):
        assert multi["diverged"] == [0, 0]
        assert multi["trials"] == 2


class TestReporting:
    def test_format_renders_rates_and_counts(self, sweep):
        text = format_fault_sweep(sweep)
        assert "traffic" in text
        assert "0.050" in text
        assert "diverged" in text

    def test_nan_rendered_as_na(self):
        data = {
            "x": {
                "fault_rates": [0.5],
                "rmse": [float("nan")],
                "diverged": [3],
                "scenarios": [{"stuck_nodes": 1, "dead_couplers": 2}],
                "trials": 3,
            }
        }
        assert "n/a" in format_fault_sweep(data)


class TestCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["faults", "sweep"])
        assert args.faults_command == "sweep"
        assert args.dataset is None
        assert args.rates is None
        assert not args.smoke

    def test_parser_options(self):
        args = build_parser().parse_args(
            [
                "faults", "sweep", "--smoke", "--dataset", "traffic",
                "--rates", "0.0", "0.02", "--trials", "2",
                "--json", "out.json", "--trace", "t.jsonl",
            ]
        )
        assert args.smoke
        assert args.dataset == ["traffic"]
        assert args.rates == [0.0, 0.02]
        assert args.trials == 2
        assert args.json == "out.json"
        assert args.trace == "t.jsonl"

    def test_smoke_run_writes_json(self, capsys, tmp_path):
        out = tmp_path / "fault_sweep.json"
        assert (
            main(
                [
                    "faults", "sweep", "--smoke", "--max-windows", "1",
                    "--duration-ns", "1000", "--json", str(out),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "rate" in printed
        payload = json.loads(out.read_text())
        assert payload["traffic"]["fault_rates"] == [0.0, 0.02]
