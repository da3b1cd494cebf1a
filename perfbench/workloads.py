"""The four benchmark workloads.

Every workload makes its inputs from the seed (``generate``, untimed),
builds the program state from those inputs (``setup``, the ``setup_s``
clock), runs one untimed warm-up op, and is then measured.  The three
batch workloads repeat an identical *pass* of public calls until the run
time is used up; ``serve-deltas`` is one open-loop phase.  Everything runs
serially: ``workers=None`` and one asyncio thread.

A workload's ``measure`` takes a span recorder; the untraced run passes
:data:`NO_SPANS`, whose spans are empty contexts.
"""

from __future__ import annotations

import asyncio
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core import IntegrationConfig, NaturalAnnealingEngine
from repro.core.model import DSGLModel
from repro.core.operators import CouplingOperator
from repro.experiments import (
    LATENCY_GRID_NS,
    SYNC_GRID_NS,
    ExperimentContext,
    fig11_data,
    fig12_data,
    fig13_data,
)
from repro.serve import STATUS_OK, InferenceServer, ServeConfig
from repro.serve.traffic import synthetic_workload
from repro.stream import random_delta

#: Design point shared by the co-annealing and circuit workloads (Fig. 10).
DENSITY = 0.15
PATTERN = "dmesh"


class _NoSpans:
    """Span recorder stand-in for the untraced run."""

    def span(self, name, request=None, **attrs):
        return nullcontext()

    def record_async(self, *args, **kwargs):
        pass


NO_SPANS = _NoSpans()


def _child_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def _shuffled(values: tuple, rng) -> tuple:
    return tuple(values[i] for i in rng.permutation(len(values)))


@dataclass
class PassResult:
    """One measured pass of a batch workload."""

    ops: int
    seconds: float
    #: Per-output values compared bit for bit against the first pass.
    outputs: list
    #: Ops per output (windows behind each design point or call).
    weights: list
    rmse: float


def failed_ops(reference: PassResult, result: PassResult) -> int:
    """Ops whose output is non-finite or differs from the reference pass."""
    failed = 0
    for ref, out, weight in zip(
        reference.outputs, result.outputs, result.weights
    ):
        if not np.all(np.isfinite(out)) or not np.array_equal(ref, out):
            failed += weight
    return failed


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class PaperWorkload:
    """A batch workload on the paper pipeline: identical passes of calls.

    The datasets are the registry's ``paper``-size ``traffic`` and ``no2``
    (``small`` for smoke runs), loaded by the program during set-up as
    ``repro figure`` loads them.
    """

    datasets = ("traffic", "no2")
    densities = (DENSITY,)
    #: Prediction windows per design point.
    windows = 1

    def __init__(self, seconds: float, smoke: bool = False):
        self.seconds = seconds
        self.smoke = smoke

    def setup(self, inputs: dict) -> ExperimentContext:
        """Datasets, dense training and every design point's decomposition."""
        context = ExperimentContext(size="small" if self.smoke else "paper")
        for name in self.datasets:
            for density in self.densities:
                context.decomposed(name, density, PATTERN)
        return context

    def measure(self, state, inputs, spans=NO_SPANS) -> list:
        """Whole passes until the run's seconds are used."""
        passes = []
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < self.seconds:
            passes.append(self.run_pass(state, inputs, spans))
        return passes

    @staticmethod
    def busy_per_op(passes: list) -> float:
        return sum(p.seconds for p in passes) / sum(p.ops for p in passes)

    @staticmethod
    def outcome(passes: list, inputs) -> dict:
        """Every pass must repeat the first bit for bit, all finite."""
        reference = passes[0]
        corrupted = PassResult(**vars(reference))
        corrupted.outputs = [np.nextafter(reference.outputs[0], np.inf)]
        corrupted.outputs += reference.outputs[1:]
        ops = sum(p.ops for p in passes)
        return {
            "attempted": ops,
            "failed": sum(failed_ops(reference, p) for p in passes),
            "check_self_test": failed_ops(reference, corrupted) > 0,
            "ops_per_s": ops / sum(p.seconds for p in passes),
            "p50_ms": float(np.median([1000.0 * p.seconds / p.ops for p in passes])),
            "details": {
                "passes": len(passes),
                "pass_s": [p.seconds for p in passes],
                "ops_per_pass": reference.ops,
                "rmse": reference.rmse,
            },
        }

    @staticmethod
    def layer_values(passes: list) -> dict:
        return {"bench.rmse": passes[0].rmse}


class CoSweep(PaperWorkload):
    """Noise-free co-annealing: the Fig. 11 and Fig. 12 grids."""

    name = "cosweep-paper"

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng(_child_seed(seed, 1))
        return {
            "latencies": _shuffled(LATENCY_GRID_NS, rng),
            "syncs": _shuffled(SYNC_GRID_NS, rng),
        }

    def warmup(self, context, inputs: dict) -> None:
        fig11_data(
            context, datasets=("traffic",), latencies_ns=inputs["latencies"][:1],
            density=DENSITY, pattern=PATTERN, max_windows=1,
        )

    def run_pass(self, context, inputs: dict, spans=NO_SPANS) -> PassResult:
        started = time.perf_counter()
        with spans.span("bench.fig11"):
            fig11 = fig11_data(
                context, datasets=("traffic",), latencies_ns=inputs["latencies"],
                density=DENSITY, pattern=PATTERN, max_windows=self.windows,
            )
        with spans.span("bench.fig12"):
            fig12 = fig12_data(
                context, datasets=("no2",), sync_grid_ns=inputs["syncs"],
                density=DENSITY, pattern=PATTERN, max_windows=self.windows,
            )
        seconds = time.perf_counter() - started
        rmse = fig11["traffic"]["rmse"] + fig12["no2"]["rmse"]
        return _sweep_result(rmse, self.windows, seconds)


class NoiseSweep(PaperWorkload):
    """Fig. 13 under coupler and node noise, without the noise-free column."""

    name = "noise-paper"
    densities = (0.05, DENSITY)
    noise_grid = (0.05, 0.15)

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng(_child_seed(seed, 1))
        return {
            "densities": _shuffled(self.densities, rng),
            "noise": _shuffled(self.noise_grid, rng),
        }

    def warmup(self, context, inputs: dict) -> None:
        fig13_data(
            context, datasets=("no2",), densities=inputs["densities"][:1],
            noise_grid=inputs["noise"][:1], pattern=PATTERN, max_windows=1,
        )

    def run_pass(self, context, inputs: dict, spans=NO_SPANS) -> PassResult:
        started = time.perf_counter()
        with spans.span("bench.fig13"):
            fig13 = fig13_data(
                context, datasets=self.datasets, densities=inputs["densities"],
                noise_grid=inputs["noise"], pattern=PATTERN,
                max_windows=self.windows,
            )
        seconds = time.perf_counter() - started
        rmse = [
            value
            for name in self.datasets
            for noise in inputs["noise"]
            for value in fig13[name]["curves"][noise]
        ]
        return _sweep_result(rmse, self.windows, seconds)


def _sweep_result(rmse: list, windows: int, seconds: float) -> PassResult:
    return PassResult(
        ops=windows * len(rmse),
        seconds=seconds,
        outputs=[np.float64(value) for value in rmse],
        weights=[windows] * len(rmse),
        rmse=float(np.mean(rmse)),
    )


#: Circuit-workload integration settings.  Repeat counts make each take
#: about a third of a pass at paper size.
CIRCUIT_CONFIGS = {
    "fixed": (IntegrationConfig(), 6),
    "early_exit": (IntegrationConfig(early_exit=True), 19),
    "adaptive": (IntegrationConfig(adaptive=True, rtol=1e-3), 1),
}


@dataclass
class CircuitCase:
    engine: NaturalAnnealingEngine
    observed_index: np.ndarray
    histories: np.ndarray
    targets: np.ndarray


class CircuitInference(PaperWorkload):
    """Finite-time natural annealing on the decomposed Fig. 10 models.

    Each dataset's batch is its first test windows, as ``evaluate_hardware``
    takes them; the seed draws the engines' random initial states.
    """

    name = "circuit-paper"
    duration_ns = 50.0
    batch = 16

    def generate(self, seed: int) -> dict:
        return {"engine_seed": _child_seed(seed, 1)}

    def setup(self, inputs: dict) -> dict:
        context = super().setup(inputs)
        cases = {}
        for name in self.datasets:
            trained = context.dense(name)
            model = context.decomposed(name, DENSITY, PATTERN).model
            windowing = trained.windowing
            series = trained.test.flat_series()
            frames = windowing.prediction_frames(series)[: self.batch]
            histories = np.stack([windowing.history_of(series, t) for t in frames])
            targets = np.stack([series[t] for t in frames])
            for label, (config, _repeats) in CIRCUIT_CONFIGS.items():
                cases[label, name] = CircuitCase(
                    engine=NaturalAnnealingEngine(
                        model=model, config=config, seed=inputs["engine_seed"]
                    ),
                    observed_index=windowing.observed_index,
                    histories=histories,
                    targets=targets,
                )
        return cases

    def _infer(self, case: CircuitCase, count: int | None = None) -> np.ndarray:
        histories = case.histories if count is None else case.histories[:count]
        return case.engine.infer_batch(
            case.observed_index, histories, duration=self.duration_ns
        ).predictions

    def warmup(self, cases, inputs: dict) -> None:
        for case in cases.values():
            self._infer(case, count=1)

    def run_pass(self, cases, inputs: dict, spans=NO_SPANS) -> PassResult:
        outputs, weights, errors = [], [], []
        started = time.perf_counter()
        for label, (_config, repeats) in CIRCUIT_CONFIGS.items():
            with spans.span(f"bench.circuit.{label}"):
                for name in self.datasets:
                    case = cases[label, name]
                    for _ in range(repeats):
                        predictions = self._infer(case)
                        outputs.append(predictions)
                        weights.append(len(predictions))
                    errors.append(
                        math.sqrt(np.mean((predictions - case.targets) ** 2))
                    )
        seconds = time.perf_counter() - started
        return PassResult(
            ops=sum(weights), seconds=seconds, outputs=outputs,
            weights=weights, rmse=float(np.mean(errors)),
        )


# ----------------------------------------------------------------------
# serve-deltas
# ----------------------------------------------------------------------
@dataclass
class ServeInputs:
    J: np.ndarray
    h: np.ndarray
    mean: np.ndarray
    scale: np.ndarray
    reads: object  # repro.serve.traffic.Workload
    writes: list  # [(at_ms, GraphDelta)]
    check_values: list  # one clamp vector per observed group
    reference: list  # from-scratch predictions for the check reads


@dataclass
class ServePhase:
    """What one open-loop phase observed."""

    seconds: float
    statuses: dict
    latencies_ms: list
    queued_ms: list
    service_ms: list
    batch_sizes: list
    write_ms: list
    late_ms: list
    check_predictions: list
    #: Time the server held the loop: batch service plus delta application.
    busy_s: float
    engine_counts: dict


def _convex_sparse_model(n: int, density: float, rng) -> tuple:
    """Symmetric sparse couplings; ``h`` diagonally dominant (convex)."""
    iu, ju = np.triu_indices(n, k=1)
    picks = rng.choice(iu.size, size=int(round(density * iu.size)), replace=False)
    J = np.zeros((n, n))
    J[iu[picks], ju[picks]] = rng.normal(size=picks.size) * 0.5
    J += J.T
    h = -(np.abs(J).sum(axis=1) + 1.0)
    return J, h


class ServeDeltas:
    """Open-loop reads with streaming graph deltas applied beside them."""

    name = "serve-deltas"
    # Each batch holds the loop for the 2 ms window plus its service, so a
    # read that arrives behind another group's batch waits a whole cycle.
    # The p50 must sit inside the mode of reads that do not wait.  At
    # 100 rps it sat on the steep rise between the modes (p40 4.2 ms, p60
    # 6.8 ms) and the middle half of 10 seeds spread 0.11 of the median;
    # at 70 rps p40-p60 span 3.9-4.6 ms and 5 seeds spread 0.05 (2-vCPU
    # VM).  A 15 s run still has ten reads beyond the p99 tail.
    rate_rps = 70.0
    # Bursts at twice the mean rate.  At four times (the generator's
    # default) the batcher saturates in bursts, half of all reads queue,
    # and the read p50 sits on that boundary.
    burstiness = 2.0
    groups = 4
    # Each inline write blocks the loop for ~20 ms.  At one write per
    # ~100 ms a quarter of the reads waited behind one, and the read p50
    # swung 7-20 ms with host speed.
    write_every_ms = 400.0
    edges_per_write = 4

    def __init__(self, seconds: float, smoke: bool = False):
        self.seconds = seconds
        self.smoke = smoke
        self.n = 256 if smoke else 1024

    def generate(self, seed: int) -> ServeInputs:
        rng = np.random.default_rng(_child_seed(seed, 3))
        n = self.n
        J, h = _convex_sparse_model(n, 0.01, rng)
        mean = rng.normal(size=n)
        scale = np.abs(rng.normal(size=n)) + 0.5
        model = DSGLModel(J=J, h=h, mean=mean, scale=scale)
        reads = synthetic_workload(
            model, max(1, int(self.rate_rps * self.seconds)),
            rate_rps=self.rate_rps, burstiness=self.burstiness,
            num_groups=self.groups, seed=_child_seed(seed, 4),
        )
        # Deltas come from a shadow operator chain, so each one is sampled
        # against the graph as the previous deltas left it.
        shadow = CouplingOperator(J, h, backend="sparse")
        writes = []
        span_ms = reads.duration_ms
        at_ms = self.write_every_ms * rng.uniform(0.5, 1.5)
        while at_ms < span_ms:
            delta = random_delta(shadow, rng, edges=self.edges_per_write)
            shadow = shadow.apply_delta(delta)
            writes.append((at_ms, delta))
            at_ms += self.write_every_ms * rng.uniform(0.5, 1.5)
        check_values = [rng.normal(size=group.size) for group in reads.groups]
        fresh = NaturalAnnealingEngine(
            model=DSGLModel(
                J=shadow.to_dense(), h=shadow.h.copy(), mean=mean, scale=scale
            ),
            backend="sparse",
        )
        reference = [
            fresh.infer_equilibrium_batch(group, values[None, :])[0]
            for group, values in zip(reads.groups, check_values)
        ]
        return ServeInputs(
            J=J, h=h, mean=mean, scale=scale, reads=reads, writes=writes,
            check_values=check_values, reference=reference,
        )

    def setup(self, inputs: ServeInputs) -> NaturalAnnealingEngine:
        """The served model, its engine, and one warm factorization per group."""
        model = DSGLModel(
            J=inputs.J.copy(), h=inputs.h.copy(),
            mean=inputs.mean, scale=inputs.scale,
        )
        engine = NaturalAnnealingEngine(model=model, backend="sparse")
        for group in inputs.reads.groups:
            engine.infer_equilibrium_batch(group, np.zeros((1, group.size)))
        return engine

    def warmup(self, engine, inputs: ServeInputs) -> None:
        first = inputs.reads.requests[0]

        async def one_read():
            async with InferenceServer(engine, ServeConfig()) as server:
                await server.submit(first.observed_index, first.observed_values)

        asyncio.run(one_read())

    def measure(self, engine, inputs: ServeInputs, spans=NO_SPANS) -> ServePhase:
        """One open-loop phase over the generated schedule."""
        return asyncio.run(self._phase(engine, inputs, spans))

    @staticmethod
    def busy_per_op(phase: ServePhase) -> float:
        return phase.busy_s / max(1, len(phase.latencies_ms))

    @staticmethod
    def outcome(phase: ServePhase, inputs: ServeInputs) -> dict:
        """Reads not served and check reads off the reference fail."""
        reads = len(inputs.reads.requests)
        ok = len(phase.latencies_ms)
        shed = phase.statuses.get("shed", 0)
        mismatched = check_mismatches(inputs.reference, phase.check_predictions)
        corrupted = list(inputs.reference)
        corrupted[0] = corrupted[0] * (1.0 + 1e-5) + 1e-5
        return {
            "attempted": reads + len(inputs.check_values),
            "failed": (reads - ok) + mismatched,
            "check_self_test": check_mismatches(inputs.reference, corrupted) == 1,
            "ops_per_s": ok / phase.seconds,
            "p50_ms": percentile(phase.latencies_ms, 50),
            "details": {
                "reads": {
                    "sent": reads, "ok": ok, "shed": shed,
                    "failed": reads - ok - shed,
                },
                "check_reads": len(inputs.check_values),
                "check_mismatches": mismatched,
                "writes": len(phase.write_ms),
                "tail_ms": percentile(phase.latencies_ms, 99),
                "write_p50_ms": percentile(phase.write_ms, 50),
                "gen_late_p99_ms": percentile(phase.late_ms, 99),
            },
        }

    @staticmethod
    def layer_values(phase: ServePhase) -> dict:
        counts = phase.engine_counts
        lookups = counts["hits"] + counts["misses"]
        updates = counts["incremental"] + counts["refactorizations"]
        return {
            "engine.hit_ratio": counts["hits"] / lookups if lookups else 0.0,
            "stream.refactorizations": float(counts["refactorizations"]),
            "stream.incremental_ratio": (
                counts["incremental"] / updates if updates else 0.0
            ),
            "stream.write_p50_ms": percentile(phase.write_ms, 50),
            "serve.queued_p50_ms": percentile(phase.queued_ms, 50),
            "serve.service_p50_ms": percentile(phase.service_ms, 50),
            "serve.batch_mean": float(np.mean(phase.batch_sizes)),
            "serve.shed": float(phase.statuses.get("shed", 0)),
            "serve.read_p99_ms": percentile(phase.latencies_ms, 99),
            "bench.gen_late_p99_ms": percentile(phase.late_ms, 99),
        }

    async def _phase(self, engine, inputs: ServeInputs, spans) -> ServePhase:
        read_late: list[float] = []
        write_late: list[float] = []
        write_ms: list[float] = []
        apply_s: list[float] = []
        sent: list[tuple[float, asyncio.Future]] = []
        counts_before = _engine_counts(engine)
        async with InferenceServer(engine, ServeConfig()) as server:
            epoch = time.perf_counter()

            async def on_schedule(at_ms: float, late: list) -> float:
                # Spin on zero-length sleeps instead of sleeping out the
                # gap.  asyncio rounds timer waits up to whole
                # milliseconds, and an idle VM pays the host's wake-up
                # latency on every timer, the server's batch window
                # included.  At 100 rps the middle half of the read p50
                # over 4 seeds spread 0.29 of its median with sleeps and
                # 0.04 spinning (2-vCPU VM).  Each spin yields to the
                # loop, so the server runs as soon as it is ready.
                scheduled = epoch + at_ms / 1000.0
                while time.perf_counter() < scheduled:
                    await asyncio.sleep(0)
                late.append((time.perf_counter() - scheduled) * 1000.0)
                return scheduled

            async def reader():
                for request in inputs.reads.requests:
                    scheduled = await on_schedule(request.at_ms, read_late)
                    future = server.submit(
                        request.observed_index, request.observed_values
                    )
                    sent.append((scheduled, future))

            async def writer():
                for k, (at_ms, delta) in enumerate(inputs.writes):
                    scheduled = await on_schedule(at_ms, write_late)
                    started = time.perf_counter()
                    with spans.span("bench.write", request=f"w{k}"):
                        server.apply_delta(delta)
                    finished = time.perf_counter()
                    apply_s.append(finished - started)
                    write_ms.append((finished - scheduled) * 1000.0)

            await asyncio.gather(reader(), writer())
            results = await asyncio.gather(*(future for _, future in sent))
            finished = time.perf_counter()
            checks = await asyncio.gather(*(
                server.submit(group, values)
                for group, values in zip(inputs.reads.groups, inputs.check_values)
            ))
        statuses: dict[str, int] = {}
        latencies, queued, service, batches = [], [], [], []
        busy_s = sum(apply_s)
        for i, ((scheduled, _), result) in enumerate(zip(sent, results)):
            statuses[result.status] = statuses.get(result.status, 0) + 1
            if result.status != STATUS_OK:
                continue
            # Charged from the scheduled arrival: submit lag plus the
            # server's admission-to-completion latency.
            latency = read_late[i] + result.latency_ms
            latencies.append(latency)
            queued.append(result.queued_ms)
            service.append(result.service_ms)
            batches.append(result.batch_size)
            # Every read of a batch carries the batch's service time.
            busy_s += result.service_ms / 1000.0 / result.batch_size
            spans.record_async(
                "bench.read", scheduled, scheduled + latency / 1000.0,
                request=f"r{i}",
            )
        counts_after = _engine_counts(engine)
        return ServePhase(
            seconds=finished - epoch,
            statuses=statuses,
            latencies_ms=latencies,
            queued_ms=queued,
            service_ms=service,
            batch_sizes=batches,
            write_ms=write_ms,
            late_ms=read_late + write_late,
            check_predictions=[
                r.prediction if r.status == STATUS_OK else None for r in checks
            ],
            busy_s=busy_s,
            engine_counts={
                k: counts_after[k] - counts_before[k] for k in counts_after
            },
        )


def check_mismatches(reference: list, predictions: list) -> int:
    """Check reads that differ from the from-scratch engine.

    The tolerance is the streaming layer's SMW bound: ten times the
    residual tolerance sqrt(eps) of float64, scaled by the reference's
    magnitude.
    """
    tol = 10.0 * math.sqrt(np.finfo(np.float64).eps)
    failed = 0
    for ref, got in zip(reference, predictions):
        scale = max(1.0, float(np.max(np.abs(ref))))
        if got is None or not np.all(np.isfinite(got)) or (
            float(np.max(np.abs(got - ref))) > tol * scale
        ):
            failed += 1
    return failed


def _engine_counts(engine) -> dict:
    return {
        "hits": engine.cache_hits,
        "misses": engine.cache_misses,
        "incremental": engine.incremental_updates,
        "refactorizations": engine.delta_refactorizations
        + engine.residual_refactorizations,
    }


WORKLOADS = {
    cls.name: cls
    for cls in (CoSweep, NoiseSweep, ServeDeltas, CircuitInference)
}
