"""Pareto autotuning of annealing-path configurations.

Every benchmark in the repo used to integrate on a hand-picked fixed
``dt`` with hand-picked sync intervals and restart counts, paying
worst-case step counts on problems that settle in a fraction of the
budget.  This module searches annealing-path configurations — schedule
shape, ``dt``/``rtol``, perturbation (sync) interval, restart count —
against a *target accuracy*, measures each candidate's wall-clock
latency, and records the equal-accuracy Pareto front.

Accuracy is always judged against an exact reference: the unique fixed
point of the convex trained system (the equilibrium solve for the
circuit problem; a long settled anneal for the DSPU problem), so "equal
accuracy" means a hard MAE ceiling, not a comparison between two noisy
estimates.

The search artifact is a plain-JSON document (see :func:`search`);
``repro tune --config artifact.json`` replays the winning configuration
and re-verifies it still meets the target on a fresh evaluation.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .. import obs
from ..core.annealing import AnnealingController, schedule_from_name
from ..core.dynamics import CircuitSimulator, IntegrationConfig
from ..core.inference import NaturalAnnealingEngine
from ..core.model import DSGLModel, random_sparse_system

__all__ = [
    "TuneCandidate",
    "CircuitProblem",
    "DspuProblem",
    "build_grid",
    "evaluate_candidate",
    "pareto_front",
    "search",
    "replay",
    "load_artifact",
    "save_artifact",
]

ARTIFACT_VERSION = 2

# Accuracy slack a replay is allowed over the recorded target before it
# counts as a miss (wall-clock jitter never moves accuracy, but noise
# seeds and BLAS nondeterminism may wiggle the last decimals).
REPLAY_SLACK = 1.05


@dataclass(frozen=True)
class TuneCandidate:
    """One point of the annealing-path search space.

    The circuit problem reads every field; the DSPU problem reads only
    ``duration``, ``sync_interval``, ``early_exit`` and
    ``settle_tolerance`` (its integration is exact per phase, so
    ``dt``/``rtol`` do not apply).

    Attributes:
        dt: Fixed step size, and the initial step of the adaptive
            controller.
        adaptive: Error-controlled variable-step integration
            (:class:`~repro.core.dynamics.IntegrationConfig`).
        rtol: Relative tolerance of the adaptive controller.
        early_exit: Per-member freeze-out settling detection.
        settle_tolerance: Freeze-out threshold (physical units).
        duration: Annealing budget in simulated ns.
        schedule: Annealing-kick amplitude shape — ``"none"`` (no kicks)
            or a :func:`~repro.core.annealing.schedule_from_name` name.
        kick: Initial kick amplitude when ``schedule != "none"``.
        sync_interval: Simulated ns between schedule kicks (circuit) /
            the inter-PE synchronization interval (DSPU).
        restarts: Best-of-K random restarts per sample (circuit).
    """

    dt: float = 0.1
    adaptive: bool = False
    rtol: float = 1e-4
    early_exit: bool = False
    settle_tolerance: float = 1e-4
    duration: float = 50.0
    schedule: str = "none"
    kick: float = 0.05
    sync_interval: float = 10.0
    restarts: int = 1

    def integration_config(self) -> IntegrationConfig:
        """The :class:`IntegrationConfig` this candidate runs under."""
        return IntegrationConfig(
            dt=self.dt,
            adaptive=self.adaptive,
            rtol=self.rtol,
            early_exit=self.early_exit,
            settle_tolerance=self.settle_tolerance,
            record_every=1_000_000,
            node_noise_std=0.0,
        )

    def label(self) -> str:
        bits = [f"dt={self.dt:g}"]
        if self.adaptive:
            bits.append(f"rtol={self.rtol:g}")
        if self.early_exit:
            bits.append(f"settle={self.settle_tolerance:g}")
        if self.schedule != "none":
            bits.append(f"{self.schedule}@{self.sync_interval:g}ns")
        if self.restarts > 1:
            bits.append(f"restarts={self.restarts}")
        bits.append(f"T={self.duration:g}ns")
        return " ".join(bits)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TuneCandidate":
        return cls(**data)


@dataclass
class CircuitProblem:
    """A synthetic convex annealing problem with an exact reference.

    Half the nodes are observed (clamped) at random values; the
    reference prediction for the free half is the *exact* equilibrium
    solve, so every candidate's error is an absolute distance to the
    true fixed point.
    """

    n: int = 512
    density: float = 0.05
    batch: int = 8
    seed: int = 0
    kind: str = field(default="circuit", init=False)

    def __post_init__(self) -> None:
        J, h = random_sparse_system(self.n, self.density, seed=self.seed)
        self.model = DSGLModel(J=J, h=h)
        rng = np.random.default_rng(self.seed + 1)
        self.observed = np.arange(self.n // 2)
        self.free = np.arange(self.n // 2, self.n)
        self.values = rng.uniform(-1.0, 1.0, size=(self.batch, self.observed.size))
        reference_engine = NaturalAnnealingEngine(self.model, seed=self.seed)
        self.reference = reference_engine.infer_equilibrium_batch(
            self.observed, self.values
        )

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "density": self.density,
            "batch": self.batch,
            "seed": self.seed,
        }

    def predictions(self, candidate: TuneCandidate) -> np.ndarray:
        """One full evaluation run of ``candidate`` → free-node predictions."""
        engine = NaturalAnnealingEngine(
            self.model, config=candidate.integration_config(), seed=self.seed
        )
        if candidate.schedule != "none":
            return self._predictions_scheduled(engine, candidate)
        if candidate.restarts > 1:
            from ..faults import RestartPolicy

            policy = RestartPolicy(restarts=candidate.restarts, seed=self.seed)
            return np.stack(
                [
                    policy.infer(
                        engine, self.observed, v, duration=candidate.duration
                    ).prediction
                    for v in self.values
                ]
            )
        result = engine.infer_batch(
            self.observed, self.values, duration=candidate.duration
        )
        return result.predictions

    def _predictions_scheduled(
        self, engine: NaturalAnnealingEngine, candidate: TuneCandidate
    ) -> np.ndarray:
        """Segmented annealing with schedule-shaped kicks between segments.

        The run is split at every ``sync_interval`` ns; between segments
        the free nodes receive Gaussian kicks whose amplitude follows the
        named schedule over run progress — the annealing *path* the
        schedule dimension of the search explores.
        """
        model = self.model
        controller = AnnealingController(
            schedule=schedule_from_name(
                candidate.schedule, start=candidate.kick, end=0.0
            ),
            interval=candidate.sync_interval,
            rng=np.random.default_rng(self.seed + 2),
        )
        operator = engine.operator
        config = candidate.integration_config()
        simulator = CircuitSimulator(
            config=config, rng=np.random.default_rng(self.seed)
        )
        clamp = self.values  # identity normalization (mean/scale unset)
        rail = config.rail if config.rail is not None else 1.0
        rng = np.random.default_rng(self.seed)
        sigma = rng.uniform(-rail, rail, size=(self.batch, self.n))
        sigma[:, self.observed] = clamp
        free_mask = np.zeros(self.n, dtype=bool)
        free_mask[self.free] = True
        t = 0.0
        while t < candidate.duration * (1.0 - 1e-12):
            segment = min(candidate.sync_interval, candidate.duration - t)
            trajectory = simulator.run_batch(
                operator.drift,
                sigma,
                segment,
                clamp_index=self.observed,
                clamp_value=clamp,
            )
            sigma = trajectory.final_states.copy()
            t += segment
            if t < candidate.duration:
                sigma = controller.perturb(
                    sigma, t / candidate.duration, np.tile(free_mask, (self.batch, 1))
                )
                sigma[:, self.observed] = clamp
        return sigma[:, self.free]

    def error(self, predictions: np.ndarray) -> float:
        return float(np.mean(np.abs(predictions - self.reference)))


@dataclass
class DspuProblem:
    """A decomposed-hardware annealing problem for sync-interval tuning.

    The reference is a long (settled) anneal at the default sync
    interval; candidates trade the interval, budget, and early-exit
    settling against that reference's prediction.
    """

    n: int = 48
    density: float = 0.2
    seed: int = 0
    grid: tuple[int, int] = (2, 2)
    reference_duration_ns: float = 50000.0
    kind: str = field(default="dspu", init=False)

    def __post_init__(self) -> None:
        from ..decompose import DecompositionConfig, decompose
        from ..hardware import HardwareConfig, ScalableDSPU

        J, h = random_sparse_system(self.n, self.density, seed=self.seed)
        self.model = DSGLModel(J=J, h=h)
        rng = np.random.default_rng(self.seed + 1)
        samples = rng.normal(size=(4 * self.n, self.n))
        system = decompose(
            self.model,
            samples,
            DecompositionConfig(
                density=min(0.5, 2 * self.density),
                pattern="dmesh",
                grid_shape=self.grid,
            ),
        )
        config = HardwareConfig(
            grid_shape=self.grid, pe_capacity=system.placement.capacity
        )
        self.dspu = ScalableDSPU(system, config, seed=self.seed)
        self.observed = np.arange(self.n // 2)
        self.values = rng.uniform(-1.0, 1.0, size=self.observed.size)
        self.reference = self.dspu.anneal(
            self.observed, self.values, duration_ns=self.reference_duration_ns
        ).prediction

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "density": self.density,
            "seed": self.seed,
            "grid": list(self.grid),
            "reference_duration_ns": self.reference_duration_ns,
        }

    def predictions(self, candidate: TuneCandidate) -> np.ndarray:
        outcome = self.dspu.anneal(
            self.observed,
            self.values,
            duration_ns=candidate.duration,
            sync_interval_ns=candidate.sync_interval,
            early_exit=candidate.early_exit,
            settle_tolerance=candidate.settle_tolerance,
        )
        return outcome.prediction

    def error(self, predictions: np.ndarray) -> float:
        return float(np.mean(np.abs(predictions - self.reference)))


def build_problem(spec: dict):
    """Rebuild a problem from its :meth:`describe` dict (replay path)."""
    kind = spec.get("kind", "circuit")
    if kind == "circuit":
        return CircuitProblem(
            n=int(spec["n"]),
            density=float(spec["density"]),
            batch=int(spec["batch"]),
            seed=int(spec.get("seed", 0)),
        )
    if kind == "dspu":
        return DspuProblem(
            n=int(spec["n"]),
            density=float(spec["density"]),
            seed=int(spec.get("seed", 0)),
            grid=tuple(spec.get("grid", (2, 2))),
            reference_duration_ns=float(spec.get("reference_duration_ns", 50000.0)),
        )
    raise ValueError(f"unknown problem kind {kind!r}")


def evaluate_candidate(problem, candidate: TuneCandidate, repeats: int = 3) -> dict:
    """Measure one candidate: accuracy once, latency over ``repeats`` runs."""
    predictions = problem.predictions(candidate)
    error = problem.error(predictions)
    samples_ms = []
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        problem.predictions(candidate)
        samples_ms.append((time.perf_counter() - started) * 1000.0)
    return {
        "candidate": candidate.to_dict(),
        "label": candidate.label(),
        "error": error,
        "latency_ms": float(min(samples_ms)),
        "samples_ms": [float(s) for s in samples_ms],
    }


def pareto_front(rows: list[dict]) -> list[dict]:
    """Non-dominated rows on (latency_ms, error), fastest first."""
    ordered = sorted(rows, key=lambda r: (r["latency_ms"], r["error"]))
    front: list[dict] = []
    best_error = np.inf
    for row in ordered:
        if row["error"] < best_error:
            front.append(row)
            best_error = row["error"]
    return front


def build_grid(
    *,
    durations: list[float],
    dts: list[float],
    rtols: list[float] | None = None,
    settle_tolerances: list[float] | None = None,
    schedules: list[str] | None = None,
    sync_intervals: list[float] | None = None,
    restarts: list[int] | None = None,
    kick: float = 0.05,
) -> list[TuneCandidate]:
    """The candidate grid the CLI searches.

    The grid always contains the plain fixed-step baselines (every
    ``duration x dt``), then layers each requested dimension on top:
    adaptive (per ``rtol``), early-exit (per ``settle_tolerance``),
    adaptive+early-exit, schedule shapes (per ``sync_interval``) and
    restart counts.  Dimensions combine with the baseline rather than
    exhaustively with each other, keeping the grid linear in the number
    of requested values.
    """
    candidates: list[TuneCandidate] = []
    for duration in durations:
        for dt in dts:
            base = TuneCandidate(dt=dt, duration=duration)
            candidates.append(base)
            for rtol in rtols or []:
                candidates.append(replace(base, adaptive=True, rtol=rtol))
            for tol in settle_tolerances or []:
                candidates.append(
                    replace(base, early_exit=True, settle_tolerance=tol)
                )
            for rtol in rtols or []:
                for tol in settle_tolerances or []:
                    candidates.append(
                        replace(
                            base,
                            adaptive=True,
                            rtol=rtol,
                            early_exit=True,
                            settle_tolerance=tol,
                        )
                    )
            for name in schedules or []:
                for interval in sync_intervals or [10.0]:
                    candidates.append(
                        replace(
                            base,
                            schedule=name,
                            sync_interval=interval,
                            kick=kick,
                        )
                    )
            for count in restarts or []:
                if count > 1:
                    candidates.append(replace(base, restarts=count))
    # Deduplicate while preserving order (grids may overlap).
    seen: set[TuneCandidate] = set()
    unique: list[TuneCandidate] = []
    for candidate in candidates:
        if candidate not in seen:
            seen.add(candidate)
            unique.append(candidate)
    return unique


def search(
    problem,
    candidates: list[TuneCandidate],
    target_error: float,
    repeats: int = 3,
) -> dict:
    """Evaluate every candidate and assemble the Pareto artifact.

    Returns a JSON-serializable dict: every evaluated row, the
    non-dominated ``front`` on (latency, error), and ``best`` — the
    lowest-latency row meeting ``target_error`` (or the most accurate
    row overall when nothing meets it, flagged by ``met_target``).
    """
    if not candidates:
        raise ValueError("cannot search an empty candidate grid")
    if target_error <= 0:
        raise ValueError(f"target_error must be positive, got {target_error}")
    tracer = obs.tracer()
    rows = []
    with tracer.span(
        "tune.search", candidates=len(candidates), target_error=target_error
    ):
        for candidate in candidates:
            with tracer.span("tune.evaluate", label=candidate.label()):
                rows.append(evaluate_candidate(problem, candidate, repeats))
    front = pareto_front(rows)
    meeting = [row for row in rows if row["error"] <= target_error]
    if meeting:
        best = min(meeting, key=lambda r: r["latency_ms"])
        met_target = True
    else:
        best = min(rows, key=lambda r: r["error"])
        met_target = False
    if obs.metrics().enabled:
        obs.metrics().counter("tune.searches").inc()
        obs.metrics().counter("tune.candidates_evaluated").inc(len(rows))
    return {
        "version": ARTIFACT_VERSION,
        "problem": problem.describe(),
        "target_error": target_error,
        "repeats": repeats,
        "rows": rows,
        "front": front,
        "best": best,
        "met_target": met_target,
    }


def save_artifact(path: str, artifact: dict) -> None:
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_artifact(path: str) -> dict:
    with open(path) as handle:
        artifact = json.load(handle)
    if artifact.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"unsupported tune artifact version {artifact.get('version')!r}"
        )
    for key in ("problem", "target_error", "best"):
        if key not in artifact:
            raise ValueError(f"tune artifact missing {key!r}")
    return artifact


def replay(artifact: dict, repeats: int = 3) -> dict:
    """Re-run an artifact's winning config and re-verify its accuracy.

    Returns the fresh evaluation row plus ``met_target`` — whether the
    replayed error still meets the recorded target (with
    :data:`REPLAY_SLACK` headroom for the last decimals).
    """
    problem = build_problem(artifact["problem"])
    candidate = TuneCandidate.from_dict(artifact["best"]["candidate"])
    row = evaluate_candidate(problem, candidate, repeats)
    target = float(artifact["target_error"])
    row["target_error"] = target
    row["met_target"] = bool(row["error"] <= target * REPLAY_SLACK)
    return row
