"""Generators for every table of the evaluation section."""

from __future__ import annotations

from ..datasets import MULTIDIM_DATASETS, SCALAR_DATASETS
from ..hardware import ACCELERATORS, AcceleratorModel, DSPUCostModel, dsgl_energy_mj
from .runner import GNN_BASELINES, ExperimentContext, evaluate_hardware

__all__ = ["table1_data", "table2_data", "table3_data", "table4_data"]

#: Per-application DS-GL annealing latency (us) reported in Table III.
#: Our reproduction measures the latency at which the Fig. 11 curve
#: flattens; these are the defaults used when a measured value is absent.
DSGL_LATENCY_US = {"covid": 0.15, "air": 1.1, "traffic": 0.65, "stock": 1.0}

#: Table III application -> representative dataset mapping ("air" covers
#: the four pollutant series).
TABLE3_APPLICATIONS = {
    "covid": "covid",
    "air": "no2",
    "traffic": "traffic",
    "stock": "stock",
}


def table1_data(
    grid_shape: tuple[int, int] = (4, 4),
    pe_capacity: int = 500,
    lanes: int = 30,
) -> list[dict]:
    """Hardware comparison with BRIM (Table I)."""
    model = DSPUCostModel()
    rows = []
    for label, cost in (
        ("BRIM", model.brim(2000)),
        ("DSPU-2000", model.real_valued_dspu(2000)),
        ("DS-GL", model.scalable_dspu(grid_shape, pe_capacity, lanes)),
    ):
        rows.append(
            {
                "design": label,
                "effective_spins": cost.effective_spins,
                "power_mw": cost.power_mw,
                "area_mm2": cost.area_mm2,
                "scalable": cost.scalable,
                "data_type": cost.data_type,
            }
        )
    return rows


def table2_data(
    context: ExperimentContext,
    datasets: tuple[str, ...] = SCALAR_DATASETS,
    density: float = 0.15,
    spatial_duration_ns: float = 2500.0,
    full_duration_ns: float = 50000.0,
    max_windows: int = 12,
) -> dict:
    """RMSE of GNN baselines vs the four DS-GL design choices (Table II).

    ``DS-GL-Spatial`` disables temporal co-annealing (fast, less accurate);
    ``DS-GL-{Chain,Mesh,DMesh}`` enable both co-annealing modes with the
    respective decomposition pattern.
    """
    out: dict = {}
    for name in datasets:
        trained = context.dense(name)
        series = trained.test.flat_series()
        row: dict[str, float] = {}
        for baseline in GNN_BASELINES:
            row[baseline] = context.gnn_rmse(baseline, name)
        spatial_dspu = context.dspu(name, density, "dmesh")
        row["DS-GL-Spatial"] = evaluate_hardware(
            spatial_dspu,
            trained.windowing,
            series,
            duration_ns=spatial_duration_ns,
            force_spatial_only=True,
            max_windows=max_windows,
        )
        for pattern in ("chain", "mesh", "dmesh"):
            dspu = context.dspu(name, density, pattern)
            row[f"DS-GL-{pattern.capitalize()}"] = evaluate_hardware(
                dspu,
                trained.windowing,
                series,
                duration_ns=full_duration_ns,
                max_windows=max_windows,
            )
        out[name] = row
    return out


#: Paper-scale deployment dimensions used to cost the Table III GNN rows:
#: node counts of the paper's sensor networks and the hyper-parameters the
#: released GWN/MTGNN/DDGCRN configurations use.
PAPER_SCALE = {
    "covid": {"num_nodes": 3000, "window": 12, "hidden": 32},
    "air": {"num_nodes": 1500, "window": 12, "hidden": 32},
    "traffic": {"num_nodes": 2000, "window": 12, "hidden": 32},
    "stock": {"num_nodes": 2000, "window": 12, "hidden": 32},
}


def table3_data(
    context: ExperimentContext,
    dsgl_power_mw: float | None = None,
    measured_latency_us: dict[str, float] | None = None,
    paper_scale: bool = True,
) -> dict:
    """Latency & energy per inference (Table III).

    GNN latency/energy on each accelerator platform uses the paper's
    peak-TFLOPS/typical-power methodology.  With ``paper_scale`` (default)
    the FLOP counts are the analytic estimates of our baselines evaluated
    at the paper's deployment dimensions (thousands of sensor nodes);
    otherwise the laptop-scale trained models are counted.  DS-GL rows use
    the annealing latency and chip power of the cost model.
    """
    cost = DSPUCostModel().scalable_dspu((4, 4), 500, 30)
    power_mw = dsgl_power_mw if dsgl_power_mw is not None else cost.power_mw
    latencies = dict(DSGL_LATENCY_US)
    if measured_latency_us:
        latencies.update(measured_latency_us)

    out: dict = {"platforms": [], "dsgl": {}}
    flops_per_app: dict[str, dict[str, float]] = {}
    for app, dataset_name in TABLE3_APPLICATIONS.items():
        flops_per_app[app] = {}
        if paper_scale:
            dims = PAPER_SCALE[app]
            for baseline, model_cls in GNN_BASELINES.items():
                flops_per_app[app][baseline] = model_cls.estimate_flops(
                    dims["num_nodes"], dims["window"], dims["hidden"]
                )
        else:
            for baseline in GNN_BASELINES:
                trainer = context.gnn(baseline, dataset_name)
                flops_per_app[app][baseline] = trainer.model.flops_per_inference(
                    trainer.config.window
                )
    for spec in ACCELERATORS:
        model = AcceleratorModel(spec)
        rows: dict[str, dict[str, dict[str, float]]] = {}
        for app in TABLE3_APPLICATIONS:
            rows[app] = {}
            for baseline in GNN_BASELINES:
                flops = flops_per_app[app][baseline]
                rows[app][baseline] = {
                    "latency_us": model.latency_us(flops),
                    "energy_mj": model.energy_mj(flops),
                }
        out["platforms"].append(
            {
                "platform": spec.platform,
                "related_work": spec.name,
                "peak_tflops": spec.peak_tflops,
                "typical_power_w": spec.typical_power_w,
                "rows": rows,
            }
        )
    for app, latency_us in latencies.items():
        out["dsgl"][app] = {
            "latency_us": latency_us,
            "energy_mj": dsgl_energy_mj(latency_us, power_mw),
        }
    out["dsgl_power_mw"] = power_mw
    return out


def table4_data(
    context: ExperimentContext,
    datasets: tuple[str, ...] = MULTIDIM_DATASETS,
    density: float = 0.15,
    duration_ns: float = 20000.0,
    max_windows: int = 10,
) -> dict:
    """Multi-dimensional datasets: RMSE and latency vs GNNs (Table IV)."""
    out: dict = {}
    for name in datasets:
        trained = context.dense(name)
        series = trained.test.flat_series()
        row: dict[str, dict[str, float]] = {}
        for baseline in GNN_BASELINES:
            trainer = context.gnn(baseline, name)
            row[baseline] = {
                "rmse": context.gnn_rmse(baseline, name),
                "latency_us": trainer.measure_latency(trained.test) * 1e6,
            }
        dspu = context.dspu(name, density, "dmesh")
        row["DS-GL"] = {
            "rmse": evaluate_hardware(
                dspu,
                trained.windowing,
                series,
                duration_ns=duration_ns,
                max_windows=max_windows,
            ),
            "latency_us": duration_ns / 1000.0,
        }
        out[name] = row
    return out
