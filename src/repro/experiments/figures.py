"""Generators for every figure of the evaluation section.

Each ``figN_data`` function returns plain dicts/arrays with the same series
the paper plots; the benchmark harness prints them as aligned tables.
"""

from __future__ import annotations

import numpy as np

from ..core import IntegrationConfig
from ..datasets import SCALAR_DATASETS
from ..ising import BRIMConfig, BRIMMachine, IsingProblem
from .runner import ExperimentContext, evaluate_hardware

__all__ = [
    "fig4_data",
    "fig10_data",
    "fig11_data",
    "fig12_data",
    "fig13_data",
]

#: Density grid of Fig. 10/13 sweeps.
DENSITY_GRID: tuple[float, ...] = (0.025, 0.05, 0.1, 0.15, 0.2)

#: Latency grid (ns) of Fig. 11.  The paper sweeps ~0-20 us; our time axis
#: is stretched ~2.5x because the simulated node time constant is paired to
#: the 200 ns switch interval (see EXPERIMENTS.md).
LATENCY_GRID_NS: tuple[float, ...] = (1000, 2500, 5000, 10000, 20000, 50000)

#: Synchronization-interval grid (ns) of Fig. 12 (paper: 1 ns - 5 us).
SYNC_GRID_NS: tuple[float, ...] = (50, 200, 500, 1000, 2500, 5000)

#: Noise grid of Fig. 13 (standard deviation, fraction).
NOISE_GRID: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15)

#: Datasets the paper uses for Figs. 12/13.
ROBUSTNESS_DATASETS: tuple[str, ...] = ("stock", "no2", "traffic")


def fig4_data(duration_ns: float = 50.0, dt_ns: float = 0.05) -> dict:
    """Circuit-level validation (Fig. 4): DSPU stabilizes, BRIM polarizes.

    A 6-spin graph with v0/v2/v4 clamped as inputs is run on both machines
    with identical coupling parameters.  Returns both trajectories; the
    validation criterion is that every free DSPU node settles strictly
    inside the rails while every free BRIM node ends on a rail.
    """
    rng = np.random.default_rng(42)
    n = 6
    J = rng.normal(0.0, 0.5, size=(n, n))
    J = (J + J.T) / 2.0
    np.fill_diagonal(J, 0.0)
    clamp_index = np.asarray([0, 2, 4])
    clamp_value = np.asarray([0.8, -0.5, 0.3])

    # Real-Valued DSPU: quadratic self-reaction stabilizes free nodes.
    from ..core import CircuitSimulator, DSGLModel

    h = np.full(n, -(np.abs(J).sum(axis=1).max() + 0.5))
    model = DSGLModel(J=J, h=h)
    simulator = CircuitSimulator(
        config=IntegrationConfig(dt=dt_ns, rail=1.0), rng=np.random.default_rng(0)
    )
    sigma0 = rng.uniform(-0.2, 0.2, size=n)
    sigma0[clamp_index] = clamp_value

    def dspu_drift(sigma: np.ndarray) -> np.ndarray:
        return J @ sigma + h * sigma

    dspu_run = simulator.run(
        dspu_drift,
        sigma0,
        duration_ns,
        clamp_index=clamp_index,
        clamp_value=clamp_value,
        energy=model.hamiltonian().energy,
    )

    # BRIM: bistable latch polarizes free nodes to the rails.
    problem = IsingProblem(J=J, h=np.zeros(n))
    machine = BRIMMachine(
        problem,
        BRIMConfig(integration=IntegrationConfig(dt=dt_ns, rail=1.0)),
    )
    brim_run = machine.anneal(
        duration=duration_ns,
        sigma0=sigma0.copy(),
        clamp_index=clamp_index,
        clamp_value=clamp_value,
    )

    free = np.setdiff1d(np.arange(n), clamp_index)
    return {
        "clamp_index": clamp_index,
        "free_index": free,
        "dspu": dspu_run,
        "brim": brim_run.trajectory,
        "dspu_final": dspu_run.final_state,
        "brim_final": brim_run.trajectory.final_state,
    }


def fig10_data(
    context: ExperimentContext,
    datasets: tuple[str, ...] = SCALAR_DATASETS,
    densities: tuple[float, ...] = DENSITY_GRID,
    patterns: tuple[str, ...] = ("chain", "mesh", "dmesh"),
) -> dict:
    """RMSE vs coupling-matrix density per pattern, with the best-GNN line."""
    out: dict = {}
    for name in datasets:
        curves = {
            pattern: [context.dsgl_rmse(name, d, pattern) for d in densities]
            for pattern in patterns
        }
        out[name] = {
            "densities": list(densities),
            "curves": curves,
            "best_gnn": context.best_gnn_rmse(name),
        }
    return out


def fig11_data(
    context: ExperimentContext,
    datasets: tuple[str, ...] = SCALAR_DATASETS,
    latencies_ns: tuple[float, ...] = LATENCY_GRID_NS,
    density: float = 0.15,
    pattern: str = "dmesh",
    max_windows: int = 12,
) -> dict:
    """Best RMSE vs inference latency via Temporal & Spatial co-annealing."""
    out: dict = {}
    for name in datasets:
        trained = context.dense(name)
        dspu = context.dspu(name, density, pattern)
        series = trained.test.flat_series()
        out[name] = {
            "latencies_us": [t / 1000.0 for t in latencies_ns],
            "rmse": [
                evaluate_hardware(
                    dspu, trained.windowing, series, duration_ns=t,
                    max_windows=max_windows,
                )
                for t in latencies_ns
            ],
            "mode": dspu.mode,
        }
    return out


def fig12_data(
    context: ExperimentContext,
    datasets: tuple[str, ...] = ROBUSTNESS_DATASETS,
    sync_grid_ns: tuple[float, ...] = SYNC_GRID_NS,
    duration_ns: float = 50000.0,
    density: float = 0.15,
    pattern: str = "dmesh",
    max_windows: int = 12,
) -> dict:
    """RMSE vs inter-tile synchronization interval (Fig. 12)."""
    out: dict = {}
    for name in datasets:
        trained = context.dense(name)
        dspu = context.dspu(name, density, pattern)
        series = trained.test.flat_series()
        out[name] = {
            "sync_ns": list(sync_grid_ns),
            "rmse": [
                evaluate_hardware(
                    dspu,
                    trained.windowing,
                    series,
                    duration_ns=duration_ns,
                    sync_interval_ns=s,
                    max_windows=max_windows,
                )
                for s in sync_grid_ns
            ],
        }
    return out


def fig13_data(
    context: ExperimentContext,
    datasets: tuple[str, ...] = ROBUSTNESS_DATASETS,
    densities: tuple[float, ...] = DENSITY_GRID,
    noise_grid: tuple[float, ...] = NOISE_GRID,
    pattern: str = "dmesh",
    duration_ns: float = 20000.0,
    max_windows: int = 10,
) -> dict:
    """RMSE vs density under dynamic Gaussian noise at nodes and couplers."""
    out: dict = {}
    for name in datasets:
        trained = context.dense(name)
        series = trained.test.flat_series()
        curves: dict[float, list[float]] = {}
        for noise in noise_grid:
            row = []
            for density in densities:
                dspu = context.dspu(name, density, pattern)
                row.append(
                    evaluate_hardware(
                        dspu,
                        trained.windowing,
                        series,
                        duration_ns=duration_ns,
                        node_noise_std=noise * 0.1,
                        coupling_noise_std=noise,
                        max_windows=max_windows,
                    )
                )
            curves[noise] = row
        out[name] = {"densities": list(densities), "curves": curves}
    return out
