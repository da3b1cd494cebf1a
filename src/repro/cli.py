"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the registered datasets with their shapes.
``train``
    Train a dense DS-GL system on one dataset, report the test RMSE of
    natural-annealing inference, and optionally save the model.
``decompose``
    Train + decompose for a PE grid and print the decomposition report.
``table {1,2,3,4}`` / ``figure {4,10,11,12,13}``
    Regenerate one paper artifact and print it.
``bench``
    Run one micro-benchmark suite of :mod:`repro.perf` and write
    ``BENCH_<suite>.json`` (per-repeat timing samples, the machine, and a
    metrics snapshot embedded): ``--suite core`` times the annealing hot
    paths (sparse vs dense, batched vs looped, incremental vs refactored,
    early-exit vs fixed), ``--suite nn`` the GNN baseline fast path, and
    ``--suite serve`` the serving SLOs (throughput-vs-batch-window curve,
    batched-vs-serial burst, overload shedding).
``faults sweep``
    Sweep co-annealing accuracy against a uniform device-fault rate
    (stuck nodes, open couplers, conductance drift, missed syncs) and
    optionally dump the table as JSON.
``obs summarize PATH``
    Aggregate a recorded trace JSONL into a span/metric table.
``obs timeline PATH``
    Reconstruct the causal timeline of a trace — stitched worker spans,
    critical path, per-shard wall time and pool idle.
``obs export PATH``
    Convert a trace's embedded metrics snapshot into OpenMetrics text
    (Prometheus textfile-collector format) or a JSON snapshot document.
``obs flame PATH``
    Summarize a collapsed-stack profile (from ``--profile``) in the
    terminal: hottest frames and stacks.
``obs diff BASELINE CANDIDATE``
    Compare two ``BENCH_*.json`` snapshots with a per-repeat noise band;
    exit code 3 when a statistically meaningful regression is flagged.
``serve run``
    Start the dynamic-batching inference server on a seeded synthetic
    model, drive a bursty open-loop workload through it, and print the
    SLO summary (p50/p99/p99.9, throughput, shed counts).

Every command accepts the observability options ``--trace PATH`` (record
a JSONL trace of spans/events plus a final metrics snapshot),
``--metrics`` (print the metrics snapshot on completion), ``--profile
PATH`` (continuous sampling profiler, collapsed-stack output; see
``--profile-interval``/``--profile-timer``), and ``-v``/``-q`` (console
log verbosity through the stdlib ``repro.*`` loggers).

``bench`` also accepts ``--workers N``: the worker count of the core
suite's serial-vs-parallel rows, which run the same shards of a batched
circuit run (:func:`repro.parallel.run_batch_sharded`) on 1 and N
processes and must agree bit for bit.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import obs
from .datasets import ALL_DATASETS, load_dataset
from .experiments import (
    FAULT_RATE_GRID,
    ExperimentContext,
    evaluate_equilibrium,
    fault_sweep_data,
    fig4_data,
    fig10_data,
    fig11_data,
    fig12_data,
    fig13_data,
    format_density_sweep,
    format_fault_sweep,
    format_latency_sweep,
    format_noise_sweep,
    format_sync_sweep,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    table1_data,
    table2_data,
    table3_data,
    table4_data,
)

__all__ = ["main", "build_parser"]


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return number


def _observability_options() -> argparse.ArgumentParser:
    """Shared ``--trace``/``--metrics``/``-v``/``-q`` options.

    Defined on a parent parser attached to every subcommand so the flags
    may appear before or after the positional arguments.
    """
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("observability")
    group.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a JSONL trace of spans/events (plus a final metrics "
        "snapshot) to PATH; summarize with `repro obs summarize PATH`",
    )
    group.add_argument(
        "--metrics",
        action="store_true",
        help="print the collected metrics snapshot when the command ends",
    )
    group.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="sample the run with the continuous profiler and write a "
        "collapsed-stack profile (flamegraph input) to PATH; inspect "
        "with `repro obs flame PATH`",
    )
    group.add_argument(
        "--profile-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="profiler sampling interval "
        f"(default {obs.DEFAULT_INTERVAL}s = {1 / obs.DEFAULT_INTERVAL:.0f} Hz)",
    )
    group.add_argument(
        "--profile-timer",
        default="wall",
        choices=("wall", "cpu"),
        help="sample on wall-clock time (includes waits) or CPU time",
    )
    group.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log verbosity (-v INFO, -vv DEBUG)",
    )
    group.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="only log errors",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    """The repro argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DS-GL reproduction: nature-powered graph learning.",
    )
    common = _observability_options()
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "datasets", help="list registered datasets", parents=[common]
    )

    train = sub.add_parser(
        "train",
        help="train and evaluate a dense system",
        parents=[common],
    )
    train.add_argument("dataset", choices=ALL_DATASETS)
    train.add_argument("--size", default="small", choices=("small", "paper"))
    train.add_argument("--window", type=int, default=3)
    train.add_argument("--ridge", type=float, default=5e-2)
    train.add_argument("--save", default=None, help="path for the .npz model")
    train.add_argument(
        "--anneal-windows",
        type=int,
        default=4,
        help="test windows to anneal through the circuit simulator as a "
        "finite-time check (0 disables)",
    )

    decompose_cmd = sub.add_parser(
        "decompose",
        help="train, decompose, and report structure",
        parents=[common],
    )
    decompose_cmd.add_argument("dataset", choices=ALL_DATASETS)
    decompose_cmd.add_argument("--size", default="small", choices=("small", "paper"))
    decompose_cmd.add_argument("--density", type=float, default=0.15)
    decompose_cmd.add_argument(
        "--pattern", default="dmesh", choices=("chain", "mesh", "dmesh")
    )
    decompose_cmd.add_argument("--grid", type=int, nargs=2, default=(3, 3))

    table = sub.add_parser(
        "table", help="regenerate a paper table", parents=[common]
    )
    table.add_argument("number", type=int, choices=(1, 2, 3, 4))
    table.add_argument("--size", default="small", choices=("small", "paper"))

    figure = sub.add_parser(
        "figure", help="regenerate a paper figure", parents=[common]
    )
    figure.add_argument("number", type=int, choices=(4, 10, 11, 12, 13))
    figure.add_argument("--size", default="small", choices=("small", "paper"))

    bench = sub.add_parser(
        "bench",
        help="run a micro-benchmark suite, write BENCH_<suite>.json",
        parents=[common],
    )
    bench.add_argument(
        "--suite",
        default="core",
        choices=("core", "nn", "serve"),
        help="core = annealing hot paths, nn = GNN baseline fast path, "
        "serve = serving SLOs",
    )
    bench.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_<suite>.json)",
    )
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="tiny problem sizes (CI smoke run, finishes in seconds)",
    )
    bench.add_argument(
        "--batch",
        type=_positive_int,
        default=64,
        help="batch size of the batched core rows and the nn training "
        "mini-batch",
    )
    bench.add_argument("--repeats", type=_positive_int, default=3)
    bench.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker processes of the serial-vs-parallel rows (core "
        "suite), which run the same shards on 1 and N processes",
    )

    faults_cmd = sub.add_parser(
        "faults", help="fault-injection utilities"
    )
    faults_sub = faults_cmd.add_subparsers(dest="faults_command", required=True)
    sweep = faults_sub.add_parser(
        "sweep",
        help="accuracy vs device-fault rate on the Scalable DSPU",
        parents=[common],
    )
    sweep.add_argument(
        "--dataset",
        action="append",
        choices=ALL_DATASETS,
        default=None,
        help="dataset(s) to sweep (repeatable; default: traffic)",
    )
    sweep.add_argument("--size", default="small", choices=("small", "paper"))
    sweep.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=None,
        metavar="R",
        help=f"uniform fault rates to sweep (default: {FAULT_RATE_GRID})",
    )
    sweep.add_argument("--density", type=float, default=0.15)
    sweep.add_argument(
        "--pattern", default="dmesh", choices=("chain", "mesh", "dmesh")
    )
    sweep.add_argument("--duration-ns", type=float, default=20000.0)
    sweep.add_argument("--max-windows", type=_positive_int, default=10)
    sweep.add_argument(
        "--trials",
        type=_positive_int,
        default=1,
        help="sampled fault scenarios averaged per rate",
    )
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--no-sync-skips",
        action="store_true",
        help="leave synchronization edges fault-free",
    )
    sweep.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid (two rates, short anneals) for CI smoke runs",
    )
    sweep.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the sweep data as JSON to PATH",
    )

    serve_cmd = sub.add_parser(
        "serve", help="dynamic-batching inference serving"
    )
    serve_sub = serve_cmd.add_subparsers(dest="serve_command", required=True)
    serve_run = serve_sub.add_parser(
        "run",
        help="serve a seeded open-loop workload and print the SLO summary",
        parents=[common],
    )
    serve_run.add_argument("--n", type=_positive_int, default=128)
    serve_run.add_argument("--density", type=float, default=0.05)
    serve_run.add_argument(
        "--requests",
        type=_positive_int,
        default=200,
        help="number of requests in the seeded workload",
    )
    serve_run.add_argument(
        "--rate",
        type=float,
        default=1000.0,
        metavar="RPS",
        help="mean offered arrival rate (requests per second)",
    )
    serve_run.add_argument(
        "--burstiness",
        type=float,
        default=4.0,
        help="burst/quiet rate multiplier of the arrival process (1 = "
        "plain Poisson)",
    )
    serve_run.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        help="how long the batcher holds the first request for coalescing",
    )
    serve_run.add_argument(
        "--max-batch-size",
        type=_positive_int,
        default=64,
        help="coalesced batch cap (1 = serial serving)",
    )
    serve_run.add_argument(
        "--max-queue",
        type=_positive_int,
        default=256,
        help="admission bound; requests beyond it are shed",
    )
    serve_run.add_argument(
        "--closed-loop",
        action="store_true",
        help="drive with a fixed client population instead of the "
        "open-loop arrival schedule (understates tail latency)",
    )
    serve_run.add_argument(
        "--concurrency",
        type=_positive_int,
        default=8,
        help="virtual clients in --closed-loop mode",
    )
    serve_run.add_argument("--seed", type=int, default=0)
    serve_run.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the run summary as JSON to PATH",
    )

    stream_cmd = sub.add_parser(
        "stream", help="streaming graph deltas with incremental updates"
    )
    stream_sub = stream_cmd.add_subparsers(
        dest="stream_command", required=True
    )
    stream_run = stream_sub.add_parser(
        "run",
        help="replay a seeded delta stream and print the per-window summary",
        parents=[common],
    )
    stream_run.add_argument("--n", type=_positive_int, default=128)
    stream_run.add_argument("--density", type=float, default=0.05)
    stream_run.add_argument(
        "--windows",
        type=_positive_int,
        default=8,
        help="observation windows to replay",
    )
    stream_run.add_argument(
        "--batch",
        type=_positive_int,
        default=16,
        help="observations (samples) per window",
    )
    stream_run.add_argument(
        "--observed-fraction",
        type=float,
        default=0.25,
        help="fraction of nodes clamped per window",
    )
    stream_run.add_argument(
        "--edges",
        type=int,
        default=4,
        help="edge edits sampled per window delta",
    )
    stream_run.add_argument(
        "--h-edits",
        type=int,
        default=0,
        help="self-reaction edits sampled per window delta",
    )
    stream_run.add_argument(
        "--rotate-every",
        type=int,
        default=0,
        help="re-draw the observed set every N windows (0 keeps one set)",
    )
    stream_run.add_argument("--seed", type=int, default=0)
    stream_run.add_argument(
        "--backend",
        choices=("dense", "sparse", "auto"),
        default="sparse",
        help="engine coupling-operator backend",
    )
    stream_run.add_argument(
        "--mode",
        choices=("engine", "serve"),
        default="engine",
        help="replay directly against the engine, or through the "
        "dynamic-batching server (delta applied mid-traffic)",
    )
    stream_run.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the replay summary as JSON to PATH",
    )

    tune = sub.add_parser(
        "tune",
        help="search annealing-path configs for an equal-accuracy "
        "Pareto front (or replay a tuned config with --config)",
        parents=[common],
    )
    tune.add_argument(
        "--config",
        default=None,
        metavar="PATH",
        help="replay the winning config of a recorded tune artifact "
        "instead of searching; exits 1 if the replayed accuracy "
        "misses the recorded target",
    )
    tune.add_argument(
        "--problem",
        default="circuit",
        choices=("circuit", "dspu"),
        help="circuit = batched CircuitSimulator annealing vs the exact "
        "equilibrium; dspu = ScalableDSPU sync-interval tuning",
    )
    tune.add_argument("--n", type=_positive_int, default=512)
    tune.add_argument("--density", type=float, default=0.05)
    tune.add_argument("--batch", type=_positive_int, default=8)
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument(
        "--target-error",
        type=float,
        default=1e-4,
        help="accuracy ceiling (MAE vs the exact reference) a winning "
        "config must meet",
    )
    tune.add_argument("--repeats", type=_positive_int, default=3)
    tune.add_argument(
        "--durations",
        type=float,
        nargs="+",
        default=None,
        metavar="NS",
        help="annealing budgets to search (default depends on --problem)",
    )
    tune.add_argument(
        "--dts", type=float, nargs="+", default=[0.1], metavar="DT",
        help="fixed/initial step sizes to search",
    )
    tune.add_argument(
        "--rtols",
        type=float,
        nargs="+",
        default=[1e-3],
        metavar="RTOL",
        help="adaptive relative tolerances to search ([] disables)",
    )
    tune.add_argument(
        "--settle-tolerances",
        type=float,
        nargs="+",
        default=[1e-7],
        metavar="TOL",
        help="early-exit freeze thresholds to search ([] disables)",
    )
    tune.add_argument(
        "--schedules",
        nargs="+",
        default=[],
        metavar="NAME",
        help="annealing-kick schedule shapes to search "
        "(linear/geometric/cosine/constant)",
    )
    tune.add_argument(
        "--sync-intervals",
        type=float,
        nargs="+",
        default=None,
        metavar="NS",
        help="kick intervals (circuit) / sync intervals (dspu) to search",
    )
    tune.add_argument(
        "--restarts",
        type=_positive_int,
        nargs="+",
        default=[],
        metavar="K",
        help="best-of-K restart counts to search (circuit only)",
    )
    tune.add_argument(
        "--out",
        default="TUNE_pareto.json",
        metavar="PATH",
        help="Pareto artifact output path (search mode)",
    )
    tune.add_argument(
        "--smoke",
        action="store_true",
        help="tiny problem and grid (CI smoke run, finishes in seconds)",
    )

    obs_cmd = sub.add_parser(
        "obs", help="observability utilities", parents=[common]
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize", help="aggregate a trace JSONL into a span/metric table"
    )
    summarize.add_argument("path", help="trace JSONL recorded with --trace")

    timeline = obs_sub.add_parser(
        "timeline",
        help="reconstruct the causal timeline of a (multi-process) trace",
    )
    timeline.add_argument("path", help="trace JSONL recorded with --trace")
    timeline.add_argument(
        "--width",
        type=_positive_int,
        default=60,
        help="gantt lane width in characters",
    )

    export = obs_sub.add_parser(
        "export",
        help="export a trace's metrics snapshot for external scraping",
    )
    export.add_argument("path", help="trace JSONL recorded with --trace")
    export.add_argument(
        "--format",
        dest="export_format",
        default="openmetrics",
        choices=("openmetrics", "json"),
        help="OpenMetrics text (Prometheus textfile collector) or a "
        "schema-tagged JSON snapshot",
    )
    export.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write to PATH instead of stdout",
    )

    flame = obs_sub.add_parser(
        "flame",
        help="summarize a collapsed-stack profile (from --profile)",
    )
    flame.add_argument("path", help="collapsed-stack profile file")
    flame.add_argument(
        "--top",
        type=_positive_int,
        default=15,
        help="rows per table (hottest frames / hottest stacks)",
    )

    diff = obs_sub.add_parser(
        "diff",
        help="compare two BENCH_*.json snapshots (exit 3 on regression)",
    )
    diff.add_argument("baseline", help="baseline BENCH_*.json")
    diff.add_argument("candidate", help="candidate BENCH_*.json")
    diff.add_argument(
        "--min-band",
        type=float,
        default=None,
        metavar="FRACTION",
        help="noise-band floor as a fraction (default 0.10); the band "
        "widens automatically with the per-repeat sample spread",
    )
    diff.add_argument(
        "--all",
        dest="show_all",
        action="store_true",
        help="list every compared timing, not just flagged ones",
    )
    return parser


def _cmd_datasets() -> int:
    for name in ALL_DATASETS:
        ds = load_dataset(name, size="small")
        shape = "x".join(str(k) for k in ds.series.shape)
        print(f"{name:<12s} {shape:<14s} {ds.description[:60]}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .core import (
        IntegrationConfig,
        NaturalAnnealingEngine,
        TemporalWindowing,
        TrainingConfig,
        fit_precision,
        rmse,
    )

    dataset = load_dataset(args.dataset, size=args.size)
    train, _val, test = dataset.split()
    series = train.flat_series()
    windowing = TemporalWindowing(series.shape[1], args.window)
    model = fit_precision(
        windowing.windows(series),
        TrainingConfig(ridge=args.ridge),
        metadata={"dataset": args.dataset},
    )
    test_series = test.flat_series()
    score = evaluate_equilibrium(model, windowing, test_series)
    print(
        f"{args.dataset}: {model.n} variables, margin "
        f"{model.convexity_margin():.3f}, test RMSE {score:.4f}"
    )
    num_windows = max(0, args.anneal_windows)
    if num_windows:
        # Finite-time circuit check: anneal a few test windows through the
        # full simulator so annealing-time observables (step counts,
        # settled fraction, energy descent) exist alongside the
        # equilibrium RMSE — and land in the trace when --trace is on.
        frames = windowing.prediction_frames(test_series)[:num_windows]
        histories = np.stack(
            [windowing.history_of(test_series, t) for t in frames]
        )
        engine = NaturalAnnealingEngine(
            model,
            config=IntegrationConfig(record_every=5, energy_probe_every=25),
        )
        result = engine.infer_batch(windowing.observed_index, histories)
        targets = np.stack([test_series[t] for t in frames])
        circuit_rmse = rmse(result.predictions, targets)
        settled = result.trajectory.settled_fraction()
        print(
            f"circuit check: {len(frames)} windows annealed for "
            f"{result.annealing_time_ns:.0f} ns, settled fraction "
            f"{settled:.2f}, RMSE {circuit_rmse:.4f}"
        )
    if args.save:
        model.save(args.save)
        print(f"model saved to {args.save}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .core import TemporalWindowing, TrainingConfig, fit_precision
    from .decompose import DecompositionConfig, analyze, decompose

    dataset = load_dataset(args.dataset, size=args.size)
    train, _val, test = dataset.split()
    series = train.flat_series()
    windowing = TemporalWindowing(series.shape[1], 3)
    samples = windowing.windows(series)
    model = fit_precision(samples, TrainingConfig(ridge=5e-2))
    system = decompose(
        model,
        samples,
        DecompositionConfig(
            density=args.density,
            pattern=args.pattern,
            grid_shape=tuple(args.grid),
            anchor_index=tuple(windowing.target_index.tolist()),
        ),
    )
    print(analyze(system).summary())
    dense_rmse = evaluate_equilibrium(model, windowing, test.flat_series())
    sparse_rmse = evaluate_equilibrium(
        system.model, windowing, test.flat_series()
    )
    print(f"dense RMSE {dense_rmse:.4f} -> decomposed RMSE {sparse_rmse:.4f}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.number == 1:
        print(format_table1(table1_data()))
        return 0
    context = ExperimentContext(size=args.size)
    if args.number == 2:
        print(format_table2(table2_data(context)))
    elif args.number == 3:
        print(format_table3(table3_data(context)))
    else:
        print(format_table4(table4_data(context)))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.number == 4:
        data = fig4_data()
        print("DSPU final:", np.round(data["dspu_final"], 3))
        print("BRIM final:", np.round(data["brim_final"], 3))
        return 0
    context = ExperimentContext(size=args.size)
    if args.number == 10:
        print(format_density_sweep(fig10_data(context)))
    elif args.number == 11:
        print(format_latency_sweep(fig11_data(context)))
    elif args.number == 12:
        print(format_sync_sweep(fig12_data(context)))
    else:
        print(format_noise_sweep(fig13_data(context)))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .perf import format_bench, run_suite, write_bench_json

    payload = run_suite(
        args.suite, smoke=args.smoke, batch=args.batch,
        repeats=args.repeats, workers=args.workers,
    )
    print(format_bench(payload))
    out = args.out if args.out is not None else f"BENCH_{args.suite}.json"
    path = write_bench_json(payload, out)
    print(f"wrote {path}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    if args.faults_command != "sweep":
        return 1
    if args.smoke:
        rates = args.rates or (0.0, 0.02)
        duration_ns = min(args.duration_ns, 5000.0)
        max_windows = min(args.max_windows, 3)
    else:
        rates = args.rates or FAULT_RATE_GRID
        duration_ns = args.duration_ns
        max_windows = args.max_windows
    context = ExperimentContext(size=args.size)
    data = fault_sweep_data(
        context,
        datasets=tuple(args.dataset or ("traffic",)),
        fault_rates=tuple(rates),
        density=args.density,
        pattern=args.pattern,
        duration_ns=duration_ns,
        max_windows=max_windows,
        trials=args.trials,
        include_sync_skips=not args.no_sync_skips,
        seed=args.seed,
    )
    print(format_fault_sweep(data))
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .core import NaturalAnnealingEngine
    from .perf import _serve_model
    from .serve import (
        InferenceServer,
        ServeConfig,
        closed_loop,
        open_loop,
        summarize_latencies,
        synthetic_workload,
    )

    # serve run: a seeded synthetic model under one workload replay.
    model = _serve_model(args.n, args.density, args.seed)
    engine = NaturalAnnealingEngine(model=model, backend="sparse")
    config = ServeConfig(
        batch_window_ms=args.batch_window_ms,
        max_batch_size=args.max_batch_size,
        max_queue=args.max_queue,
    )
    workload = synthetic_workload(
        model,
        num_requests=args.requests,
        rate_rps=args.rate,
        burstiness=args.burstiness,
        seed=args.seed,
    )

    async def drive() -> dict:
        async with InferenceServer(engine, config) as server:
            for group in workload.groups:
                server.warm(group)
            if args.closed_loop:
                return await closed_loop(
                    server, workload, concurrency=args.concurrency
                )
            return await open_loop(server, workload)

    summary = asyncio.run(drive())
    quantiles = summarize_latencies(summary["latencies_ms"])
    print(
        f"{summary['loop']}-loop: {summary['completed']}/"
        f"{summary['requests']} served, "
        f"{summary['statuses'].get('shed', 0)} shed, "
        f"throughput {summary['throughput_rps']:.1f} rps, "
        f"mean batch {summary['mean_batch_size']:.1f}"
    )
    print(
        f"latency p50 {quantiles['p50_ms']:.2f} ms, "
        f"p99 {quantiles['p99_ms']:.2f} ms, "
        f"p99.9 {quantiles['p999_ms']:.2f} ms, "
        f"max {quantiles['max_ms']:.2f} ms"
    )
    if args.json:
        document = {
            key: value
            for key, value in summary.items()
            if key != "latencies_ms" and key != "batch_sizes"
        }
        document["latency_quantiles"] = quantiles
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import json
    from dataclasses import asdict

    from .stream import StreamConfig, format_stream_summary, run_stream

    try:
        config = StreamConfig(
            n=args.n,
            density=args.density,
            windows=args.windows,
            batch=args.batch,
            observed_fraction=args.observed_fraction,
            edges_per_window=args.edges,
            h_edits_per_window=args.h_edits,
            rotate_observed_every=args.rotate_every,
            seed=args.seed,
            backend=args.backend,
            mode=args.mode,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    result = run_stream(config)
    print(format_stream_summary(result))
    if args.json:
        document = {
            "config": asdict(config),
            "windows": [asdict(w) for w in result.windows],
            "mean_mae": result.mean_mae,
            "incremental_updates": result.incremental_updates,
            "refactorizations": result.refactorizations,
            "residual_refactorizations": result.residual_refactorizations,
            "total_s": result.total_s,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _load_trace_records(path: str) -> list[dict]:
    """Read a trace for an ``obs`` subcommand, with clean failures.

    Raises ``ValueError`` with an actionable message (no traceback shown
    to the user) when the file is missing, not valid JSONL (truncated
    mid-write), or holds no records at all.
    """
    try:
        records = obs.read_trace(path)
    except FileNotFoundError:
        raise ValueError(f"{path}: no such trace file") from None
    except OSError as error:
        raise ValueError(f"{path}: cannot read trace ({error})") from None
    if not records:
        raise ValueError(
            f"{path}: trace is empty — was the run started with --trace, "
            "and did it finish?"
        )
    return records


def _cmd_tune(args: argparse.Namespace) -> int:
    from .tune import (
        CircuitProblem,
        DspuProblem,
        TuneCandidate,
        build_grid,
        load_artifact,
        replay,
        save_artifact,
        search,
    )

    if args.config is not None:
        artifact = load_artifact(args.config)
        row = replay(artifact, repeats=args.repeats)
        status = "MET" if row["met_target"] else "MISSED"
        print(
            f"replayed {row['label']}: error={row['error']:.3e} "
            f"(target {row['target_error']:.3e}, {status}), "
            f"latency={row['latency_ms']:.2f} ms"
        )
        return 0 if row["met_target"] else 1

    if args.problem == "circuit":
        if args.smoke:
            problem = CircuitProblem(
                n=min(args.n, 128), density=args.density,
                batch=min(args.batch, 4), seed=args.seed,
            )
            durations = args.durations or [20.0, 40.0]
        else:
            problem = CircuitProblem(
                n=args.n, density=args.density, batch=args.batch,
                seed=args.seed,
            )
            durations = args.durations or [25.0, 50.0, 100.0]
        candidates = build_grid(
            durations=durations,
            dts=args.dts,
            rtols=args.rtols,
            settle_tolerances=args.settle_tolerances,
            schedules=args.schedules,
            sync_intervals=args.sync_intervals or [10.0],
            restarts=args.restarts,
        )
    else:
        problem = DspuProblem(
            n=min(args.n, 32) if args.smoke else args.n,
            density=max(args.density, 0.1),
            seed=args.seed,
        )
        durations = args.durations or (
            [2000.0, 5000.0] if args.smoke else [2000.0, 5000.0, 10000.0]
        )
        sync_intervals = args.sync_intervals or [100.0, 200.0, 400.0]
        candidates = [
            TuneCandidate(
                duration=duration,
                sync_interval=sync,
                early_exit=early,
                settle_tolerance=(
                    args.settle_tolerances[0]
                    if args.settle_tolerances
                    else 1e-5
                ),
            )
            for duration in durations
            for sync in sync_intervals
            for early in (False, True)
        ]

    artifact = search(
        problem, candidates, target_error=args.target_error,
        repeats=args.repeats,
    )
    save_artifact(args.out, artifact)
    print(
        f"searched {len(artifact['rows'])} configs on "
        f"{artifact['problem']['kind']} (n={artifact['problem']['n']}); "
        f"Pareto front ({len(artifact['front'])} points):"
    )
    for row in artifact["front"]:
        marker = " <- best" if row is artifact["best"] else ""
        print(
            f"  {row['latency_ms']:9.2f} ms  error={row['error']:.3e}  "
            f"{row['label']}{marker}"
        )
    status = "met" if artifact["met_target"] else "NOT met"
    print(
        f"target error {artifact['target_error']:.3e} {status}; "
        f"artifact written to {args.out}"
    )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    try:
        if args.obs_command == "summarize":
            records = _load_trace_records(args.path)
            print(obs.format_summary(obs.summarize_records(records)))
            return 0
        if args.obs_command == "timeline":
            from .obs.timeline import analyze_records, format_timeline

            records = _load_trace_records(args.path)
            print(format_timeline(analyze_records(records), width=args.width))
            return 0
        if args.obs_command == "export":
            from .obs.export import (
                latest_metrics,
                snapshot_document,
                to_openmetrics,
            )

            records = _load_trace_records(args.path)
            snapshot = latest_metrics(records)
            if snapshot is None:
                raise ValueError(
                    f"{args.path}: trace holds no embedded metrics snapshot "
                    "(record the run with --trace so the final snapshot is "
                    "embedded on teardown)"
                )
            if args.export_format == "json":
                rendered = snapshot_document(
                    snapshot, meta={"source": str(args.path)}
                )
            else:
                rendered = to_openmetrics(snapshot)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(rendered)
                print(f"wrote {args.out}")
            else:
                print(rendered, end="")
            return 0
        if args.obs_command == "flame":
            from .obs.profile import format_profile, read_profile

            try:
                samples = read_profile(args.path)
            except FileNotFoundError:
                raise ValueError(
                    f"{args.path}: no such profile file"
                ) from None
            print(format_profile(samples, top=args.top))
            return 0
        if args.obs_command == "diff":
            from .obs.regress import (
                DEFAULT_MIN_BAND,
                compare_bench,
                format_diff,
                load_bench,
            )

            try:
                baseline = load_bench(args.baseline)
                candidate = load_bench(args.candidate)
            except FileNotFoundError as error:
                raise ValueError(
                    f"{error.filename}: no such bench snapshot"
                ) from None
            report = compare_bench(
                baseline,
                candidate,
                min_band=(
                    DEFAULT_MIN_BAND
                    if args.min_band is None
                    else args.min_band
                ),
            )
            print(format_diff(report, verbose=args.show_all))
            return 3 if report["regressions"] else 0
    except (ValueError, obs.TraceReadError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "decompose":
        return _cmd_decompose(args)
    if args.command == "table":
        return _cmd_table(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "obs":
        return _cmd_obs(args)
    return 1


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    verbosity = -1 if getattr(args, "quiet", False) else getattr(args, "verbose", 0)
    obs.configure_logging(verbosity)
    trace_path = getattr(args, "trace", None)
    want_metrics = bool(getattr(args, "metrics", False))
    profile_path = getattr(args, "profile", None)
    configured = (
        trace_path is not None or want_metrics or profile_path is not None
    )
    if configured:
        # --trace implies metrics collection so the final snapshot (cache
        # hit rates, run timings) can be embedded into the trace file.
        profile_interval = getattr(args, "profile_interval", None)
        obs.configure(
            collect_metrics=True,
            trace_path=trace_path,
            profile_path=profile_path,
            profile_interval=(
                obs.DEFAULT_INTERVAL
                if profile_interval is None
                else profile_interval
            ),
            profile_timer=getattr(args, "profile_timer", "wall"),
        )
    try:
        return _dispatch(args)
    finally:
        if configured:
            if want_metrics:
                rendered = obs.format_metrics(obs.metrics().snapshot())
                if rendered:
                    print(rendered)
            obs.disable()
            if trace_path is not None:
                print(f"trace written to {trace_path}")
            if profile_path is not None:
                print(f"profile written to {profile_path}")


if __name__ == "__main__":
    sys.exit(main())
