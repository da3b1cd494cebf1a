"""Benchmark of the DS-GL reproduction, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cosweep-paper --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's details (machine fingerprint, counts, serve tail and write latency,
readout RMSE).  ``--trace 0`` reports the ``end_to_end`` metrics of
``BENCHMARK.json``, ``--trace 1`` its ``per_layer`` metrics; a layer a
workload does not run reports 0.  The exit code is 0 when every
correctness check passed, 2 when one failed, and 1 when the program could
not be imported or run.  ``perfbench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


def import_program():
    """Import the checkout's ``repro`` package, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, not {ROOT / 'src'}")


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload, inputs, times: list):
    started = time.perf_counter()
    state = workload.setup(inputs)
    times.append(time.perf_counter() - started)
    return state


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def install_setup_spans(spans) -> None:
    from repro.experiments import ExperimentContext

    spans.wrap(ExperimentContext, "dataset", "datasets.load")
    spans.wrap(ExperimentContext, "dense", "training.fit")
    spans.wrap(ExperimentContext, "decomposed", "decompose.design_point")


def install_phase_spans(spans) -> dict:
    """Wrap the measured layers' public calls; returns the anneal keys seen."""
    import inspect

    from repro.core import NaturalAnnealingEngine
    from repro.experiments import figures
    from repro.hardware import ScalableDSPU
    from repro.serve import InferenceServer

    serial: dict[int, int] = {}
    keys = {"cacheable": 0, "distinct": set()}
    anneal_signature = inspect.signature(ScalableDSPU.anneal)

    def on_map(record, args, kwargs):
        serial[id(args[0])] = len(serial)

    def on_anneal(record, args, kwargs):
        bound = anneal_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        call = bound.arguments
        dspu = call["self"]
        if call["coupling_noise_std"] > 0 or call["faults"].enabled:
            return
        sync = call["sync_interval_ns"]
        if sync is None:
            sync = dspu.config.sync_interval_ns
        keys["cacheable"] += 1
        keys["distinct"].add((
            serial.get(id(dspu)),
            bytes(memoryview(call["observed_index"].astype("int64"))),
            float(min(sync, call["duration_ns"])),
            bool(call["force_spatial_only"]),
        ))

    spans.wrap(ScalableDSPU, "__init__", "dspu.map", on_call=on_map)
    spans.wrap(ScalableDSPU, "anneal", "dspu.anneal", on_call=on_anneal)
    spans.wrap(figures, "evaluate_hardware", "experiments.evaluate_hardware")
    spans.wrap(NaturalAnnealingEngine, "infer_batch", "engine.infer_batch")
    spans.wrap(
        NaturalAnnealingEngine, "infer_equilibrium_batch",
        "engine.infer_equilibrium_batch",
    )
    spans.wrap(InferenceServer, "apply_delta", "stream.apply_delta")
    return keys


def timer_s(registry, name: str) -> float:
    return sum(registry.histogram(name).samples) / 1000.0


def counter(registry, name: str) -> float:
    return float(registry.counter(name).value)


def layer_metrics(workload, spans, setup_registry, registry, keys, phase,
                  reference) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` (0 where not run)."""
    from workloads import percentile

    # Measured layers are per pass (batch) or per open-loop phase (serve).
    units = len(phase) if isinstance(phase, list) else 1
    anneal_ms = [1000.0 * (s["end"] - s["start"]) for s in spans.named("dspu.anneal")]
    anneal_s = spans.total("dspu.anneal")
    build_s = timer_s(registry, "dspu.build_propagators_ms")
    values = {
        "datasets.load_s": spans.self_total("datasets.load"),
        "training.fit_s": spans.self_total("training.fit"),
        "decompose.s": spans.self_total("decompose.design_point"),
        "decompose.calls": len(
            setup_registry.histogram("experiments.decompose_ms").samples
        ),
        "dspu.map_s": spans.total("dspu.map") / units,
        "dspu.anneal_calls": len(anneal_ms) / units,
        "dspu.anneal_s": anneal_s / units,
        "dspu.anneal_p50_ms": percentile(anneal_ms, 50),
        "dspu.build_s": build_s / units,
        "dspu.loop_s": (anneal_s - build_s) / units,
        "dspu.key_reuse": (
            keys["cacheable"] / len(keys["distinct"]) if keys["distinct"] else 0.0
        ),
        "dspu.sync_events": counter(registry, "dspu.sync_events") / units,
        "experiments.hw_calls": len(spans.named("experiments.evaluate_hardware")) / units,
        "experiments.self_s": spans.self_total("experiments.evaluate_hardware") / units,
        "engine.solve_s": spans.total("engine.infer_equilibrium_batch") / units,
        "engine.factorize_s": timer_s(registry, "engine.factorize_ms") / units,
        "engine.infer_batch_s": spans.total("engine.infer_batch") / units,
        "stream.apply_s": spans.total("stream.apply_delta") / units,
        "circuit.run_batch_s": timer_s(registry, "circuit.run_batch_ms") / units,
        "circuit.steps": counter(registry, "circuit.steps") / units,
        "circuit.member_steps": counter(registry, "circuit.member_steps") / units,
        "circuit.rejected_steps": counter(registry, "circuit.rejected_steps") / units,
        "circuit.fixed_s": spans.total("bench.circuit.fixed") / units,
        "circuit.early_exit_s": spans.total("bench.circuit.early_exit") / units,
        "circuit.adaptive_s": spans.total("bench.circuit.adaptive") / units,
        "bench.trace_overhead": workload.busy_per_op(phase)
        / workload.busy_per_op(reference),
    }
    values.update(workload.layer_values(phase))
    return values


def run_untraced(workload, args) -> tuple[dict, dict]:
    inputs = workload.generate(args.seed)
    times: list[float] = []
    repeats = 1 if args.smoke else SETUP_REPEATS
    # Set-up repeats before and after the measured phase, so their median
    # samples the host over the whole run.
    for _ in range(repeats - repeats // 2):
        state = timed_setup(workload, inputs, times)
    workload.warmup(state, inputs)
    phase = workload.measure(state, inputs)
    del state
    for _ in range(repeats // 2):
        timed_setup(workload, inputs, times)
    result = workload.outcome(phase, inputs)
    result["details"]["setup_times_s"] = times
    metrics = {
        "setup_s": statistics.median(times),
        "ops_per_s": result["ops_per_s"],
        "p50_ms": result["p50_ms"],
        "peak_rss_mb": peak_rss_mb(),
    }
    return result, metrics


def run_traced(workload, args) -> tuple[dict, dict]:
    """Set-up and measured phase under spans; per-layer metrics.

    An untraced set-up and measured phase run first: the first warms the
    program so the traced set-up is not a cold one, the second is the
    reference for ``bench.trace_overhead``.
    """
    from spans import SpanRecorder

    from repro import obs

    spans = SpanRecorder()
    inputs = workload.generate(args.seed)
    state = workload.setup(inputs)
    workload.warmup(state, inputs)
    reference = workload.measure(state, inputs)
    install_setup_spans(spans)
    setup_registry, _ = obs.configure(collect_metrics=True)
    try:
        with spans.span("bench.setup"):
            state = workload.setup(inputs)
    finally:
        obs.disable()
        spans.unwrap_all()
    workload.warmup(state, inputs)
    keys = install_phase_spans(spans)
    registry, _ = obs.configure(collect_metrics=True)
    try:
        with spans.span("bench.measured") as root:
            phase = workload.measure(state, inputs, spans)
    finally:
        obs.disable()
        spans.unwrap_all()
    result = workload.outcome(phase, inputs)
    metrics = layer_metrics(
        workload, spans, setup_registry, registry, keys, phase, reference
    )
    result["details"]["traced_wall_s"] = root["end"] - root["start"]
    result["details"]["traced_self_sum_s"] = spans.subtree_self_sum(root["id"])
    out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
    spans.write(out)
    result["details"]["trace_file"] = str(out.relative_to(ROOT))
    return result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes and one set-up, for the self-tests",
    )
    args = parser.parse_args(argv)

    import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; pick from {names}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seconds, smoke=args.smoke)
    result, values = (run_traced if args.trace else run_untraced)(workload, args)
    kind = "per_layer" if args.trace else "end_to_end"
    correct = result["failed"] == 0 and result["check_self_test"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "check_self_test": result["check_self_test"],
        **result["details"],
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec[kind]
        },
    }))
    return 0 if correct else 2


if __name__ == "__main__":
    sys.exit(main())
