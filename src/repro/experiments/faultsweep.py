"""Accuracy-vs-fault-rate sweep: the hard-fault counterpart of Fig. 13.

The paper's robustness study (Sec. V.G) sweeps Gaussian noise; this sweep
drives the :mod:`repro.faults` device-fault channels instead — stuck-at-rail
nodes, open couplers, conductance drift, missed sync edges — all at one
uniform rate per design point, and reports co-annealing RMSE per rate.

The zero-rate column is the integrity anchor: ``FaultModel.sample`` returns
:data:`~repro.faults.NO_FAULTS` there, so the row must reproduce the
fault-free evaluation *bit-for-bit* (regression-tested by
``tests/faults/test_sweep.py``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..faults import DivergenceError, FaultModel
from .runner import ExperimentContext, evaluate_hardware

__all__ = ["FAULT_RATE_GRID", "fault_sweep_data"]

#: Uniform fault-rate grid of the sweep (probability / drift std per
#: channel).  Hard faults bite much faster than Gaussian noise, so the
#: grid stays well below the Fig. 13 noise axis.
FAULT_RATE_GRID: tuple[float, ...] = (0.0, 0.005, 0.01, 0.02, 0.05)


def _sweep_trial(
    dspu,
    windowing,
    series: np.ndarray,
    rate: float,
    trial: int,
    seed: int,
    include_sync_skips: bool,
    duration_ns: float,
    max_windows: int,
) -> tuple[float | None, dict | None]:
    """Evaluate one (rate, trial) cell of the sweep grid.

    Trial ``k`` samples its scenario from ``seed + k`` at every rate.
    Returns the cell's RMSE (``None`` when the anneal diverged) and the
    scenario summary (``None`` after trial 0, which alone is reported).
    """
    model = FaultModel.uniform(rate, seed=seed + trial)
    if include_sync_skips:
        model = dataclasses.replace(model, sync_skip_rate=rate)
    scenario = model.sample(dspu.model.n, J=dspu.model.J)
    summary = scenario.summary() if trial == 0 else None
    try:
        value = evaluate_hardware(
            dspu,
            windowing,
            series,
            duration_ns=duration_ns,
            max_windows=max_windows,
            faults=scenario,
        )
    except DivergenceError:
        value = None
    return value, summary


def fault_sweep_data(
    context: ExperimentContext,
    datasets: tuple[str, ...] = ("traffic",),
    fault_rates: tuple[float, ...] = FAULT_RATE_GRID,
    density: float = 0.15,
    pattern: str = "dmesh",
    duration_ns: float = 20000.0,
    max_windows: int = 10,
    trials: int = 1,
    include_sync_skips: bool = True,
    seed: int = 0,
) -> dict:
    """RMSE vs uniform device-fault rate per dataset.

    Every channel of :class:`~repro.faults.FaultModel` is driven at the
    same ``rate`` (sync skips optional), one sampled scenario per trial.
    A design point whose every trial diverges reports ``NaN`` RMSE — the
    divergence guard turned a garbage trajectory into a counted failure,
    which is itself a datapoint.

    Returns:
        ``{dataset: {"fault_rates", "rmse", "diverged", "scenarios",
        "trials"}}`` where ``rmse`` holds the per-rate mean over surviving
        trials and ``scenarios`` the first trial's fault summaries.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # Same empty-input contract as the sharded entry point
    # (run_batch_sharded): an empty grid would silently return an empty
    # payload that downstream plotting treats as a finished sweep.
    if not datasets:
        raise ValueError("cannot sweep an empty datasets tuple")
    if not fault_rates:
        raise ValueError("cannot sweep an empty fault_rates grid")
    out: dict = {}
    for name in datasets:
        trained = context.dense(name)
        dspu = context.dspu(name, density, pattern)
        series = trained.test.flat_series()
        rmse_row: list[float] = []
        diverged_row: list[int] = []
        summaries: list[dict] = []
        for rate in fault_rates:
            values: list[float] = []
            for trial in range(trials):
                value, summary = _sweep_trial(
                    dspu, trained.windowing, series, rate, trial, seed,
                    include_sync_skips, duration_ns, max_windows,
                )
                if summary is not None:
                    summaries.append(summary)
                if value is not None:
                    values.append(value)
            rmse_row.append(
                float(np.mean(values)) if values else float("nan")
            )
            diverged_row.append(trials - len(values))
        out[name] = {
            "fault_rates": list(fault_rates),
            "rmse": rmse_row,
            "diverged": diverged_row,
            "scenarios": summaries,
            "trials": trials,
        }
    return out
