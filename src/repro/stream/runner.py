"""Sliding-window streaming prediction over an evolving graph.

``repro stream run`` replays a seeded stream of (graph delta, observation
window) pairs through the annealing engine — or through the full serving
layer — and records, per window, the prediction accuracy and how the
engine absorbed the graph change: incremental
Sherman-Morrison-Woodbury updates of cached factorizations versus full
refactorizations (rank-budget or residual-triggered).

Each window:

1. (after the first) sample a :func:`~repro.stream.deltas.random_delta`
   against the *live* operator and fold it in via
   :meth:`~repro.core.inference.NaturalAnnealingEngine.apply_delta`
   (or :meth:`~repro.serve.server.InferenceServer.apply_delta` in serve
   mode);
2. draw a batch of ground-truth node signals, clamp the observed subset,
   and predict the free nodes by equilibrium inference;
3. record the mean absolute error against the ground truth and the
   engine's incremental/refactorization counter movement.

Everything is a pure function of the config seed, so a stream replays
bit-identically — which is what lets the summary be pinned as a golden
file (latency columns are excluded from the golden rendering via
``format_stream_summary(include_latency=False)``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.inference import NaturalAnnealingEngine
from ..core.model import DSGLModel, random_sparse_system
from .deltas import GraphDelta, random_delta

__all__ = [
    "StreamConfig",
    "WindowStats",
    "StreamResult",
    "run_stream",
    "format_stream_summary",
]

_MODES = ("engine", "serve")


@dataclass(frozen=True)
class StreamConfig:
    """One streaming-prediction replay.

    Attributes:
        n: System size of the synthetic model.
        density: Off-diagonal coupling density of the synthetic model.
        windows: Number of observation windows to replay.
        batch: Observations (samples) per window.
        observed_fraction: Fraction of nodes clamped per window.
        edges_per_window: Edge edits sampled per delta.
        h_edits_per_window: Self-reaction edits sampled per delta.
        p_add: Probability an edge edit introduces a new edge.
        p_remove: Probability an edge edit deletes an existing edge.
        rotate_observed_every: Re-draw the observed-index set every this
            many windows (``0`` keeps one set for the whole stream, the
            warmest-cache regime).
        seed: Master seed; the model, deltas, observed sets, and
            ground-truth signals all derive from it.
        backend: Engine coupling-operator backend.
        mode: ``"engine"`` replays directly against the engine;
            ``"serve"`` routes every window through an
            :class:`~repro.serve.server.InferenceServer` (dynamic
            batching, delta applied mid-traffic).
    """

    n: int = 128
    density: float = 0.05
    windows: int = 8
    batch: int = 16
    observed_fraction: float = 0.25
    edges_per_window: int = 4
    h_edits_per_window: int = 0
    p_add: float = 0.25
    p_remove: float = 0.25
    rotate_observed_every: int = 0
    seed: int = 0
    backend: str = "sparse"
    mode: str = "engine"

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError(f"n must be >= 4, got {self.n}")
        if self.windows < 1:
            raise ValueError(f"windows must be >= 1, got {self.windows}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if not 0.0 < self.observed_fraction < 1.0:
            raise ValueError(
                "observed_fraction must be in (0, 1), got "
                f"{self.observed_fraction}"
            )
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")


@dataclass
class WindowStats:
    """Per-window record of one streaming replay."""

    window: int
    edge_edits: int
    h_edits: int
    mae: float
    incremental: int
    refactorized: int
    residual_refactorized: int
    latency_ms: float


@dataclass
class StreamResult:
    """Outcome of :func:`run_stream`.

    Attributes:
        config: The replayed configuration.
        windows: Per-window stats, in replay order.
        incremental_updates: Total cached factorizations updated in place.
        refactorizations: Total factorizations dropped for rebuild
            (rank-budget exhaustion or delta under faults).
        residual_refactorizations: Refactorizations triggered by the
            solve-residual bound.
        total_s: Wall time of the whole replay.
    """

    config: StreamConfig
    windows: list[WindowStats] = field(default_factory=list)
    incremental_updates: int = 0
    refactorizations: int = 0
    residual_refactorizations: int = 0
    total_s: float = 0.0

    @property
    def mean_mae(self) -> float:
        if not self.windows:
            return 0.0
        return float(np.mean([w.mae for w in self.windows]))


def _build_engine(config: StreamConfig) -> NaturalAnnealingEngine:
    J, h = random_sparse_system(config.n, config.density, seed=config.seed)
    model = DSGLModel(J=J, h=h)
    return NaturalAnnealingEngine(model=model, backend=config.backend)


def _observed_index(
    rng: np.random.Generator, config: StreamConfig
) -> np.ndarray:
    size = max(1, int(round(config.observed_fraction * config.n)))
    size = min(size, config.n - 1)
    return np.sort(rng.choice(config.n, size=size, replace=False))


def run_stream(
    config: StreamConfig,
    engine: NaturalAnnealingEngine | None = None,
) -> StreamResult:
    """Replay one seeded delta+observation stream; see module docstring.

    Args:
        config: Replay parameters.
        engine: Run against an existing engine instead of the seeded
            synthetic one (its model is mutated in place by the deltas).
    """
    engine = engine or _build_engine(config)
    if config.mode == "serve":
        return asyncio.run(_run_stream_serve(config, engine))
    return _run_stream_engine(config, engine)


def _stream_state(config: StreamConfig, engine: NaturalAnnealingEngine):
    rng = np.random.default_rng(config.seed + 1)
    observed = _observed_index(rng, config)
    free = np.setdiff1d(np.arange(config.n), observed)
    return rng, observed, free


def _window_delta(
    rng: np.random.Generator,
    config: StreamConfig,
    engine: NaturalAnnealingEngine,
    window: int,
) -> GraphDelta:
    if window == 0:
        return GraphDelta.empty()
    return random_delta(
        engine.operator,
        rng,
        edges=config.edges_per_window,
        p_add=config.p_add,
        p_remove=config.p_remove,
        h_edits=config.h_edits_per_window,
    )


def _window_truth(
    rng: np.random.Generator, config: StreamConfig
) -> np.ndarray:
    return rng.normal(size=(config.batch, config.n))


def _rotate(
    rng: np.random.Generator, config: StreamConfig, window: int, observed, free
):
    if (
        config.rotate_observed_every
        and window
        and window % config.rotate_observed_every == 0
    ):
        observed = _observed_index(rng, config)
        free = np.setdiff1d(np.arange(config.n), observed)
    return observed, free


def _counters(engine: NaturalAnnealingEngine) -> tuple[int, int, int]:
    return (
        engine.incremental_updates,
        engine.delta_refactorizations,
        engine.residual_refactorizations,
    )


def _run_stream_engine(
    config: StreamConfig, engine: NaturalAnnealingEngine
) -> StreamResult:
    rng, observed, free = _stream_state(config, engine)
    result = StreamResult(config=config)
    started = time.perf_counter()
    with obs.tracer().span(
        "stream.run", windows=config.windows, n=config.n, mode=config.mode
    ):
        for window in range(config.windows):
            observed, free = _rotate(rng, config, window, observed, free)
            delta = _window_delta(rng, config, engine, window)
            before = _counters(engine)
            engine.apply_delta(delta)
            truth = _window_truth(rng, config)
            window_started = time.perf_counter()
            # C-layout before the reduction so the MAE sums in the same
            # order as the serve path (which stacks per-request rows).
            predictions = np.ascontiguousarray(
                engine.infer_equilibrium_batch(observed, truth[:, observed])
            )
            latency_ms = (time.perf_counter() - window_started) * 1000.0
            after = _counters(engine)
            mae = float(np.mean(np.abs(predictions - truth[:, free])))
            result.windows.append(
                WindowStats(
                    window=window,
                    edge_edits=delta.num_edge_edits,
                    h_edits=delta.num_h_edits,
                    mae=mae,
                    incremental=after[0] - before[0],
                    refactorized=after[1] - before[1],
                    residual_refactorized=after[2] - before[2],
                    latency_ms=latency_ms,
                )
            )
            obs.metrics().histogram("stream.window_mae").observe(mae)
    result.incremental_updates = engine.incremental_updates
    result.refactorizations = engine.delta_refactorizations
    result.residual_refactorizations = engine.residual_refactorizations
    result.total_s = time.perf_counter() - started
    return result


async def _run_stream_serve(
    config: StreamConfig, engine: NaturalAnnealingEngine
) -> StreamResult:
    from ..serve.server import InferenceServer, ServeConfig

    rng, observed, free = _stream_state(config, engine)
    result = StreamResult(config=config)
    started = time.perf_counter()
    serve_config = ServeConfig(
        batch_window_ms=0.0, max_batch_size=config.batch
    )
    with obs.tracer().span(
        "stream.run", windows=config.windows, n=config.n, mode=config.mode
    ):
        async with InferenceServer(engine, serve_config) as server:
            for window in range(config.windows):
                observed, free = _rotate(rng, config, window, observed, free)
                delta = _window_delta(rng, config, engine, window)
                before = _counters(engine)
                server.apply_delta(delta)
                truth = _window_truth(rng, config)
                window_started = time.perf_counter()
                futures = [
                    server.submit(observed, truth[sample, observed])
                    for sample in range(config.batch)
                ]
                outcomes = await asyncio.gather(*futures)
                latency_ms = (
                    time.perf_counter() - window_started
                ) * 1000.0
                after = _counters(engine)
                predictions = np.stack(
                    [outcome.prediction for outcome in outcomes]
                )
                mae = float(np.mean(np.abs(predictions - truth[:, free])))
                result.windows.append(
                    WindowStats(
                        window=window,
                        edge_edits=delta.num_edge_edits,
                        h_edits=delta.num_h_edits,
                        mae=mae,
                        incremental=after[0] - before[0],
                        refactorized=after[1] - before[1],
                        residual_refactorized=after[2] - before[2],
                        latency_ms=latency_ms,
                    )
                )
                obs.metrics().histogram("stream.window_mae").observe(mae)
    result.incremental_updates = engine.incremental_updates
    result.refactorizations = engine.delta_refactorizations
    result.residual_refactorizations = engine.residual_refactorizations
    result.total_s = time.perf_counter() - started
    return result


def format_stream_summary(
    result: StreamResult, include_latency: bool = True
) -> str:
    """Human-readable per-window table plus totals.

    Args:
        result: The replay outcome.
        include_latency: Include wall-clock columns.  The golden-file
            regression renders with ``False`` so the pinned output stays
            machine-independent; MAE is rounded to 4 decimals for the
            same reason.
    """
    config = result.config
    lines = [
        "Streaming replay: "
        f"n={config.n} density={config.density:g} windows={config.windows} "
        f"batch={config.batch} backend={config.backend} mode={config.mode} "
        f"seed={config.seed}",
        "",
    ]
    header = f"{'window':>6}  {'edges':>5}  {'h':>3}  {'mae':>8}  {'incr':>5}  {'refac':>5}  {'resid':>5}"
    if include_latency:
        header += f"  {'ms':>8}"
    lines.append(header)
    for w in result.windows:
        row = (
            f"{w.window:>6}  {w.edge_edits:>5}  {w.h_edits:>3}  "
            f"{w.mae:>8.4f}  {w.incremental:>5}  {w.refactorized:>5}  "
            f"{w.residual_refactorized:>5}"
        )
        if include_latency:
            row += f"  {w.latency_ms:>8.2f}"
        lines.append(row)
    lines.append("")
    lines.append(
        f"totals: mean_mae={result.mean_mae:.4f} "
        f"incremental_updates={result.incremental_updates} "
        f"refactorizations={result.refactorizations} "
        f"residual_refactorizations={result.residual_refactorizations}"
    )
    if include_latency:
        lines.append(f"wall: {result.total_s:.2f} s")
    return "\n".join(lines)
