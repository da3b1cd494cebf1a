"""The micro-benchmark harness (``repro bench --suite core|nn|serve``).

One registry, :data:`SUITES`, maps each suite to its cases at smoke and
full size; :func:`run_suite` runs them and wraps the rows in the payload
envelope written to ``BENCH_<suite>.json``; :func:`format_bench` renders
every row kind.

* **core** (``BENCH_core.json``) — the annealing hot paths: dense vs
  sparse drift, looped vs batched circuit runs, per-sample vs cached and
  batched equilibrium solves, serial vs process-pool shards and their
  scaling curve, full LU refactorization vs incremental
  Sherman-Morrison-Woodbury updates for graph deltas, and fixed vs
  early-exit or adaptive integration at equal accuracy.
* **nn** (``BENCH_nn.json``) — the GNN baseline fast path behind the
  paper's latency ratios: float64 dense vs float32 with cached graph
  support in training and single-window inference, and dense vs sparse
  graph convolution.
* **serve** (``BENCH_serve.json``) — the inference server's SLO surface:
  seeded bursty open- and closed-loop replays over batch windows,
  batched vs serial bursts, and overload shedding.

Every comparison row keeps the per-repeat samples of both arms
(``baseline_stats`` / ``optimized_stats`` with best/median/p90/p99), so
``repro obs diff`` derives its noise band per row and run-to-run
dispersion stays visible rather than collapsed to best-of.  Each row
also records how far the optimized output is from the baseline
(``max_abs_diff``, ``bitwise_identical`` or ``equal_accuracy``), so a
speedup is tied to a correctness bound.  The float32 nn rows are not
bit-comparable to their float64 baselines; their ``max_abs_diff`` is the
observed accuracy gap.  The envelope records the machine once per file,
and a metrics snapshot collected through :mod:`repro.obs` while the rows
ran.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import time
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import obs
from .core.dynamics import CircuitSimulator, IntegrationConfig
from .core.inference import NaturalAnnealingEngine
from .core.model import DSGLModel, random_sparse_system
from .core.operators import CouplingOperator
from .datasets import load_dataset
from .datasets.base import SpatioTemporalDataset
from .gnn import GNNTrainConfig, GNNTrainer, GraphWaveNet, default_adjacency
from .gnn.trainer import build_windows
from .nn import GraphConv, GraphSupport, Tensor, no_grad
from .nn.tensor import grad_write_stats, reset_grad_write_stats
from .parallel import run_batch_sharded, shard_task_bytes, shm_available
from .serve.server import InferenceServer, ServeConfig
from .serve.traffic import (
    Workload,
    closed_loop,
    open_loop,
    summarize_latencies,
    synthetic_workload,
)
from .stream.deltas import random_delta

__all__ = [
    "ACCURACY_TOL",
    "SERVE_FULL_WINDOWS",
    "SERVE_SMOKE_WINDOWS",
    "SUITES",
    "TUNE_ARMS",
    "bench_circuit_batch",
    "bench_drift",
    "bench_equilibrium",
    "bench_graphconv",
    "bench_inference",
    "bench_parallel_batch",
    "bench_parallel_scaling",
    "bench_serve_burst",
    "bench_serve_overload",
    "bench_serve_traffic",
    "bench_stream_update",
    "bench_train_epoch",
    "bench_tune",
    "format_bench",
    "random_adjacency",
    "run_suite",
    "write_bench_json",
]

#: Both arms of every tune row must land within this MAE of the exact
#: fixed point for the row's speedup to count as equal-accuracy.
ACCURACY_TOL = 1e-6

#: The tune rows: name -> (baseline label, baseline integration settings,
#: optimized label, optimized integration settings).
TUNE_ARMS = {
    "tune_early_exit_vs_fixed": (
        "fixed-step integration of the full worst-case budget",
        {"dt": 0.1},
        "per-member freeze-out with all-settled early exit",
        {"dt": 0.1, "early_exit": True, "settle_tolerance": 1e-9},
    ),
    "tune_adaptive_vs_conservative": (
        "conservative hand-picked fixed dt (10x safety margin)",
        {"dt": 0.01},
        "PI-controlled variable steps with early-exit settling",
        {
            "dt": 0.01,
            "adaptive": True,
            "rtol": 1e-2,
            "atol": 1e-8,
            "early_exit": True,
            "settle_tolerance": 1e-9,
        },
    ),
}

#: Batch windows (ms) swept by the open-loop SLO curve.
SERVE_SMOKE_WINDOWS = (0.0, 1.0, 4.0)
SERVE_FULL_WINDOWS = (0.0, 2.0, 8.0)

#: Thread-count variables that change BLAS timings, recorded per payload.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    """Peak resident-set size of this process in MiB (Linux ru_maxrss KiB)."""
    import resource
    import sys

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # macOS reports bytes
        return usage / (1024.0 * 1024.0)
    return usage / 1024.0


def _time_samples_ms(fn, repeats: int) -> list[float]:
    """Per-repeat wall times of ``fn()`` in milliseconds (all samples)."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    return samples


def _timing_stats(samples_ms: list[float]) -> dict:
    """Dispersion summary of a timing-sample list.

    Quantiles use numpy's default linear interpolation (Hyndman-Fan
    type 7), matching the obs-layer histograms so bench numbers and
    telemetry quantiles line up; every raw sample is kept so that
    ``repro obs diff`` can derive its noise band per benchmark.
    """
    ordered = np.sort(np.asarray(samples_ms, dtype=float))
    return {
        "best_ms": float(ordered[0]),
        "median_ms": float(np.median(ordered)),
        "p90_ms": float(np.quantile(ordered, 0.9)),
        "p99_ms": float(np.quantile(ordered, 0.99)),
        "samples_ms": [float(s) for s in samples_ms],
    }


def _best_of_ms(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in milliseconds."""
    return min(_time_samples_ms(fn, repeats))


def _comparison(baseline_ms: list[float], optimized_ms: list[float]) -> dict:
    """Both arms' sample summaries; best-of stays the headline."""
    baseline = _timing_stats(baseline_ms)
    optimized = _timing_stats(optimized_ms)
    return {
        "baseline_ms": baseline["best_ms"],
        "optimized_ms": optimized["best_ms"],
        "speedup": baseline["best_ms"] / max(optimized["best_ms"], 1e-9),
        "baseline_stats": baseline,
        "optimized_stats": optimized,
    }


def _timed_comparison(baseline_fn, optimized_fn, repeats: int) -> dict:
    """Time both sides, keeping every sample; best-of stays the headline."""
    return _comparison(
        _time_samples_ms(baseline_fn, repeats),
        _time_samples_ms(optimized_fn, repeats),
    )


# ----------------------------------------------------------------------
# core: the annealing hot paths
# ----------------------------------------------------------------------
def bench_drift(
    n: int, density: float, steps: int, repeats: int, seed: int = 0
) -> dict:
    """Dense vs sparse drift evaluation over a fixed-step Euler loop."""
    J, h = random_sparse_system(n, density, seed=seed)
    dense = CouplingOperator(J, h, backend="dense")
    sparse = CouplingOperator(J, h, backend="sparse")
    rng = np.random.default_rng(seed + 1)
    sigma0 = rng.uniform(-1.0, 1.0, size=n)

    def loop(operator):
        sigma = sigma0.copy()
        for _ in range(steps):
            sigma = sigma + 0.01 * operator.drift(sigma)
        return sigma

    deviation = float(np.max(np.abs(loop(dense) - loop(sparse))))
    return {
        "name": "drift_sparse_vs_dense",
        "n": n,
        "density": density,
        "steps": steps,
        "baseline": "dense matvec per Euler step",
        "optimized": "CSR matvec per Euler step",
        **_timed_comparison(
            lambda: loop(dense), lambda: loop(sparse), repeats
        ),
        "max_abs_diff": deviation,
    }


def bench_circuit_batch(
    n: int,
    density: float,
    batch: int,
    duration: float,
    repeats: int,
    seed: int = 0,
) -> dict:
    """Looped single-sample integration vs one batched integration."""
    J, h = random_sparse_system(n, density, seed=seed)
    operator = CouplingOperator(J, h, backend="auto")
    rng = np.random.default_rng(seed + 1)
    sigma0 = rng.uniform(-1.0, 1.0, size=(batch, n))
    config = IntegrationConfig(dt=0.1, record_every=1_000_000)

    def looped():
        simulator = CircuitSimulator(config=config)
        return np.stack(
            [
                simulator.run(operator.drift, sigma0[b], duration).final_state
                for b in range(batch)
            ]
        )

    def batched():
        simulator = CircuitSimulator(config=config)
        return simulator.run_batch(operator.drift, sigma0, duration).final_states

    deviation = float(np.max(np.abs(looped() - batched())))
    return {
        "name": "circuit_batched_vs_looped",
        "n": n,
        "density": density,
        "batch": batch,
        "duration_ns": duration,
        "backend": operator.backend,
        "baseline": "per-sample CircuitSimulator.run loop",
        "optimized": "one vectorized CircuitSimulator.run_batch",
        **_timed_comparison(looped, batched, repeats),
        "max_abs_diff": deviation,
    }


def bench_equilibrium(
    n: int, density: float, batch: int, repeats: int, seed: int = 0
) -> dict:
    """Per-sample fixed-point solves vs the cached/batched LU path."""
    J, h = random_sparse_system(n, density, seed=seed)
    model = DSGLModel(J=J, h=h)
    hamiltonian = model.hamiltonian()
    rng = np.random.default_rng(seed + 1)
    observed = np.arange(n // 2)
    free = np.arange(n // 2, n)
    values = rng.uniform(-1.0, 1.0, size=(batch, observed.size))

    def looped():
        # The pre-operator accuracy-sweep path: one full solve per sample.
        return np.stack(
            [
                hamiltonian.fixed_point(observed, v)[free]
                for v in values
            ]
        )

    engine = NaturalAnnealingEngine(model)
    engine.infer_equilibrium_batch(observed, values)  # warm the LU cache

    def batched():
        return engine.infer_equilibrium_batch(observed, values)

    deviation = float(np.max(np.abs(looped() - batched())))
    comparison = _timed_comparison(looped, batched, repeats)
    return {
        "name": "equilibrium_cached_batch_vs_looped",
        "n": n,
        "density": density,
        "batch": batch,
        "backend": engine.operator.backend,
        "baseline": "per-sample fixed_point solve",
        "optimized": "memoized LU + one batched back-substitution",
        **comparison,
        "max_abs_diff": deviation,
        # Cache telemetry: one miss for the warm-up factorization, then a
        # hit per timed solve — the hit rate the bench output reports.
        "cache_hits": engine.cache_hits,
        "cache_misses": engine.cache_misses,
        "cache_hit_rate": engine.cache_hit_rate(),
    }


def bench_parallel_batch(
    n: int,
    density: float,
    batch: int,
    duration: float,
    workers: int,
    repeats: int,
    seed: int = 0,
) -> dict:
    """Serial vs multi-worker execution of one sharded batched circuit run.

    Times :meth:`CircuitSimulator.run_batch` with ``workers`` set, which
    goes through :func:`repro.parallel.run_batch_sharded`.  Both sides
    run the *same* shard decomposition and per-shard RNG streams
    (``shards`` is fixed to ``workers`` for both, and the shard seeds
    derive from ``root_seed`` only), so the comparison isolates the
    process fan-out: ``max_abs_diff`` must be exactly ``0.0`` — the
    parallel layer's bit-for-bit guarantee, measured rather than assumed.
    Speedup scales with physical cores; ``cpu_count`` is recorded so a
    ~1x result on a single-core runner reads as a hardware fact, not a
    regression.
    """
    J, h = random_sparse_system(n, density, seed=seed)
    operator = CouplingOperator(J, h, backend="auto")
    rng = np.random.default_rng(seed + 1)
    sigma0 = rng.uniform(-1.0, 1.0, size=(batch, n))
    config = IntegrationConfig(
        dt=0.1, record_every=1_000_000, node_noise_std=0.01
    )
    simulator = CircuitSimulator(config=config)

    def run(num_workers: int) -> np.ndarray:
        return simulator.run_batch(
            operator.drift,
            sigma0,
            duration,
            energy=operator.energy,
            workers=num_workers,
            shards=workers,
            root_seed=seed + 2,
        ).final_states

    serial, parallel = run(1), run(workers)
    deviation = float(np.max(np.abs(serial - parallel)))
    task_bytes = shard_task_bytes(
        simulator,
        operator.drift,
        sigma0,
        duration,
        shards=workers,
        energy=operator.energy,
    )
    return {
        "name": "parallel_shards_vs_serial",
        "n": n,
        "density": density,
        "batch": batch,
        "duration_ns": duration,
        "workers": workers,
        "shards": workers,
        "cpu_count": os.cpu_count(),
        "backend": operator.backend,
        "baseline": "sharded run_batch on 1 process",
        "optimized": f"same shards on {workers} worker processes",
        **_timed_comparison(lambda: run(1), lambda: run(workers), repeats),
        "max_abs_diff": deviation,
        "bitwise_identical": bool(np.array_equal(serial, parallel)),
        "task_pickled_bytes_legacy": task_bytes["legacy"],
        "task_pickled_bytes_shm": task_bytes["shm"],
        "pickle_reduction": task_bytes["legacy"] / max(task_bytes["shm"], 1),
        "peak_rss_mb": _peak_rss_mb(),
    }


def bench_parallel_scaling(
    sizes: tuple[int, ...],
    shards_grid: tuple[int, ...],
    workers_grid: tuple[int, ...],
    density: float = 0.05,
    batch: int | None = None,
    duration: float = 2.0,
    seed: int = 0,
) -> dict:
    """Scaling curve of the sharded batch path over (n x shards x workers).

    One row per grid point, each recording wall time of the shared-memory
    transport, per-task pickled bytes on both transports (the zero-copy
    win the curve exists to show — legacy payloads grow ~O(n^2 * density
    + T*n), shm payloads stay O(1) descriptors), and the parent's peak
    RSS.  Every (n, shards) cell also pins ``max_abs_diff == 0`` between
    the legacy and shared-memory transports at ``workers=1``, so the
    curve doubles as a transport-equivalence sweep.
    """
    rows: list[dict] = []
    for n in sizes:
        J, h = random_sparse_system(n, density, seed=seed)
        operator = CouplingOperator(J, h, backend="auto")
        rng = np.random.default_rng(seed + 1)
        num_samples = batch if batch is not None else max(8, min(64, n // 8))
        sigma0 = rng.uniform(-1.0, 1.0, size=(num_samples, n))
        config = IntegrationConfig(
            dt=0.1, record_every=1_000_000, node_noise_std=0.01
        )
        simulator = CircuitSimulator(config=config)
        for shards in shards_grid:
            task_bytes = shard_task_bytes(
                simulator,
                operator.drift,
                sigma0,
                duration,
                shards=shards,
                energy=operator.energy,
            )

            def run(num_workers: int, use_shm: bool | None) -> np.ndarray:
                return run_batch_sharded(
                    simulator,
                    operator.drift,
                    sigma0,
                    duration,
                    energy=operator.energy,
                    workers=num_workers,
                    shards=shards,
                    root_seed=seed + 2,
                    shm=use_shm,
                ).final_states

            reference = run(1, False)
            transport_diff = float(
                np.max(np.abs(reference - run(1, shm_available() or None)))
            )
            for workers in workers_grid:
                start = time.perf_counter()
                result = run(workers, None)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                rows.append(
                    {
                        "n": n,
                        "density": density,
                        "batch": num_samples,
                        "shards": shards,
                        "workers": workers,
                        "elapsed_ms": elapsed_ms,
                        "max_abs_diff": float(
                            np.max(np.abs(reference - result))
                        ),
                        "task_pickled_bytes_legacy": task_bytes["legacy"],
                        "task_pickled_bytes_shm": task_bytes["shm"],
                        "pickle_reduction": task_bytes["legacy"]
                        / max(task_bytes["shm"], 1),
                        "transport_max_abs_diff": transport_diff,
                        "peak_rss_mb": _peak_rss_mb(),
                    }
                )
    return {
        "name": "parallel_scaling_curve",
        "density": density,
        "duration_ns": duration,
        "cpu_count": os.cpu_count(),
        "shm_available": shm_available(),
        "rows": rows,
    }


def _reset_updates(reduced) -> None:
    # Bench-only: rewind the SMW state so every repeat times the same
    # rank-k update against the same base factorization.
    reduced._U = reduced._V = reduced._Z = None
    reduced._S_factor = None
    reduced.update_rank = 0
    reduced.needs_refactor = False
    reduced.last_residual = 0.0


def bench_stream_update(
    n: int,
    density: float,
    delta_edges: int,
    repeats: int,
    seed: int = 0,
) -> dict:
    """Incremental SMW update vs full LU refactorization for one delta.

    Builds a seeded sparse system, factors its reduced system once, and
    times absorbing a ``delta_edges``-edge reweight delta either way: the
    baseline re-slices the coupling matrix and refactors the reduced LU
    from scratch, the optimized arm folds the delta into the existing
    factorization as low-rank Sherman-Morrison-Woodbury columns
    (:meth:`~repro.core.operators.ReducedSystem.apply_increments`).  Both
    arms end in a batch solve, so the comparison is "delta → next
    prediction" latency, not just factorization time; ``max_abs_diff``
    is bounded by the recorded residual tolerance.
    """
    J, h = random_sparse_system(n, density, seed=seed)
    model = DSGLModel(J=J, h=h)
    operator = CouplingOperator(model.J, model.h, backend="sparse")
    rng = np.random.default_rng(seed + 1)
    observed = np.sort(rng.choice(n, size=max(1, n // 4), replace=False))
    free = np.setdiff1d(np.arange(n), observed)
    delta = random_delta(
        operator, rng, edges=delta_edges, p_add=0.0, p_remove=0.0
    )
    info: dict = {}
    updated = operator.apply_delta(delta, info=info)
    clamp = rng.normal(size=(8, observed.size))

    reduced = operator.reduced_system(
        free, observed, max_update_rank=2 * delta_edges + 2
    )
    baseline_out: dict = {}
    optimized_out: dict = {}

    def refactor_and_solve():
        rebuilt = updated.reduced_system(free, observed)
        baseline_out["solution"] = rebuilt.solve(clamp)

    def increment_and_solve():
        _reset_updates(reduced)
        applied = reduced.apply_increments(
            info["edge_increments"], info["h_increments"]
        )
        assert applied, "bench delta must fit the SMW rank budget"
        optimized_out["solution"] = reduced.solve(clamp)

    result = _timed_comparison(refactor_and_solve, increment_and_solve, repeats)
    result.update(
        name="stream_incremental_update",
        n=n,
        density=density,
        delta_edges=delta_edges,
        update_rank=int(reduced.update_rank),
        residual=float(reduced.last_residual),
        residual_tol=float(reduced.residual_tol),
        max_abs_diff=float(
            np.max(
                np.abs(
                    baseline_out["solution"] - optimized_out["solution"]
                )
            )
        ),
    )
    return result


def bench_tune(
    name: str,
    n: int,
    density: float,
    batch: int,
    duration: float,
    repeats: int,
    seed: int = 0,
) -> dict:
    """One equal-accuracy-at-lower-latency row of :data:`TUNE_ARMS`.

    ``tune_early_exit_vs_fixed`` integrates both arms at the same ``dt``;
    the optimized arm freezes members whose state stops moving and exits
    once every member has settled, so the speedup is exactly the unused
    tail of the worst-case budget.  ``tune_adaptive_vs_conservative``
    starts both arms at a safely small ``dt``; the optimized arm lets the
    PI controller find the largest locally accurate step and settles
    early.  Both arms must land within :data:`ACCURACY_TOL` of the exact
    fixed point (``equal_accuracy``).  The operator is prebuilt and the
    timed region is the integration loop itself.
    """
    baseline_label, baseline_settings, optimized_label, optimized_settings = (
        TUNE_ARMS[name]
    )
    J, h = random_sparse_system(n, density, seed=seed)
    operator = CouplingOperator(J, h, backend="auto")
    rng = np.random.default_rng(seed + 1)
    observed = np.arange(n // 2)
    free = np.arange(n // 2, n)
    clamp = rng.uniform(-1.0, 1.0, size=(batch, observed.size))
    sigma0 = rng.uniform(-1.0, 1.0, size=(batch, n))
    sigma0[:, observed] = clamp
    reference = NaturalAnnealingEngine(
        DSGLModel(J=J, h=h), seed=seed
    ).infer_equilibrium_batch(observed, clamp)

    def runner(settings: dict):
        config = IntegrationConfig(
            record_every=1_000_000, node_noise_std=0.0, **settings
        )

        def run():
            return CircuitSimulator(config=config).run_batch(
                operator.drift,
                sigma0,
                duration,
                clamp_index=observed,
                clamp_value=clamp,
            )

        return run

    baseline = runner(baseline_settings)
    optimized = runner(optimized_settings)
    baseline_mae = float(
        np.mean(np.abs(baseline().final_states[:, free] - reference))
    )
    tuned_trajectory = optimized()
    optimized_mae = float(
        np.mean(np.abs(tuned_trajectory.final_states[:, free] - reference))
    )
    return {
        "name": name,
        "n": n,
        "density": density,
        "batch": batch,
        "duration_ns": duration,
        "backend": operator.backend,
        "baseline": baseline_label,
        "optimized": optimized_label,
        **_timed_comparison(baseline, optimized, repeats),
        "accuracy_tol": ACCURACY_TOL,
        "baseline_mae": baseline_mae,
        "optimized_mae": optimized_mae,
        "equal_accuracy": bool(
            baseline_mae <= ACCURACY_TOL and optimized_mae <= ACCURACY_TOL
        ),
        "early_exit_t_ns": float(tuned_trajectory.times[-1]),
    }


# ----------------------------------------------------------------------
# nn: the GNN baseline fast path
# ----------------------------------------------------------------------
def random_adjacency(n: int, density: float, seed: int = 0) -> np.ndarray:
    """A random row-normalized directed adjacency at a target density.

    The graph-conv benchmark needs what real sensor graphs look like
    after :func:`~repro.datasets.graphs.normalized_adjacency`: asymmetric,
    non-negative, rows summing to one — exactly what
    ``CouplingOperator(symmetric=False)`` exists for.
    """
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    weights = rng.random((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(weights, 1.0)  # self-loops keep every row non-empty
    return weights / weights.sum(axis=1, keepdims=True)


def bench_graphconv(
    n: int,
    density: float,
    channels: int = 16,
    batch: int = 4,
    order: int = 2,
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Dense autograd matmuls vs cached sparse propagation, fwd + bwd.

    Both sides run at float64 on the *same* adjacency values, so
    ``max_abs_diff`` is a rounding-level correctness bound, and the
    speedup isolates the storage/backend choice.
    """
    rng = np.random.default_rng(seed)
    adjacency = random_adjacency(n, density, seed=seed)
    conv = GraphConv(channels, channels, order=order, rng=np.random.default_rng(1))
    x_data = rng.standard_normal((batch, n, channels))
    support = GraphSupport(adjacency, backend="sparse")
    outputs: dict[str, np.ndarray] = {}

    def run(adjacency_like, key: str) -> None:
        conv.zero_grad()
        x = Tensor(x_data, requires_grad=True)
        out = conv(x, adjacency_like)
        out.sum().backward()
        outputs[key] = out.numpy()

    comparison = _timed_comparison(
        lambda: run(adjacency, "baseline"),
        lambda: run(support, "optimized"),
        repeats,
    )
    max_abs_diff = float(
        np.max(np.abs(outputs["baseline"] - outputs["optimized"]))
    )
    return {
        "name": f"nn.graphconv[sparse,order={order}]",
        "n": n,
        "density": density,
        "channels": channels,
        "batch": batch,
        "backend": support.backend,
        "max_abs_diff": max_abs_diff,
        **comparison,
    }


def _epoch_runner(
    dataset: SpatioTemporalDataset,
    adjacency: np.ndarray,
    hidden: int,
    epochs: int,
    batch_size: int,
    dtype: str | None,
    graph_backend: str | None,
    sink: dict,
    key: str,
):
    """A closure training a fresh GraphWaveNet for ``epochs`` epochs.

    Fresh model + trainer per call keeps repeats independent and
    deterministic; loss and gradient-allocation stats of the latest run
    land in ``sink[key]``.
    """
    train, _val, _test = dataset.split()

    def run() -> None:
        model = GraphWaveNet(
            dataset.num_nodes, adjacency, hidden=hidden, seed=0,
            graph_backend=graph_backend,
        )
        trainer = GNNTrainer(
            model,
            GNNTrainConfig(
                window=6, epochs=epochs, batch_size=batch_size, seed=0,
                dtype=dtype,
            ),
        )
        reset_grad_write_stats()
        trainer.fit(train, None)
        writes, copies = grad_write_stats()
        sink[key] = {
            "train_loss": trainer.history[-1][0],
            "grad_writes": writes,
            "grad_copies": copies,
        }

    return run


def bench_train_epoch(
    dataset: SpatioTemporalDataset,
    hidden: int = 32,
    epochs: int = 1,
    batch_size: int = 32,
    repeats: int = 3,
    graph_backend: str | None = "auto",
    name: str = "fastpath",
) -> dict:
    """Training epochs: float64 dense (historical) vs float32 fast path.

    ``graph_backend=None`` benchmarks the dtype change alone.  The per-run
    gradient-buffer write/copy counters quantify the allocation-lean
    backward (copies avoided = fraction of first-writes that took
    ownership of a temporary instead of allocating).
    """
    adjacency = default_adjacency(dataset)
    sink: dict[str, dict] = {}
    baseline = _epoch_runner(
        dataset, adjacency, hidden, epochs, batch_size,
        dtype=None, graph_backend=None, sink=sink, key="baseline",
    )
    optimized = _epoch_runner(
        dataset, adjacency, hidden, epochs, batch_size,
        dtype="float32", graph_backend=graph_backend, sink=sink, key="optimized",
    )
    comparison = _timed_comparison(baseline, optimized, repeats)
    loss64 = sink["baseline"]["train_loss"]
    loss32 = sink["optimized"]["train_loss"]
    return {
        "name": f"nn.train_epoch[GWN,{name}]",
        "n": int(dataset.num_nodes),
        "density": float(np.count_nonzero(adjacency)) / adjacency.size,
        "hidden": hidden,
        "epochs": epochs,
        "batch_size": batch_size,
        "graph_backend": graph_backend,
        # Cross-dtype comparison: this is the float32 accuracy gap on the
        # final epoch's train loss, not a rounding bound.
        "max_abs_diff": abs(loss64 - loss32),
        "train_loss_float64": loss64,
        "train_loss_float32": loss32,
        "grad_stats": {
            "baseline": sink["baseline"],
            "optimized": sink["optimized"],
        },
        **comparison,
    }


def bench_inference(
    dataset: SpatioTemporalDataset,
    hidden: int = 32,
    repeats: int = 30,
    graph_backend: str | None = "auto",
) -> dict:
    """Single-window inference latency (the Table III quantity), float64
    dense vs float32 cached."""
    adjacency = default_adjacency(dataset)
    _train, _val, test = dataset.split()
    window = 6
    X64, _ = build_windows(test.series, window)
    sample64 = np.ascontiguousarray(X64[:1])
    sample32 = sample64.astype(np.float32)

    model64 = GraphWaveNet(dataset.num_nodes, adjacency, hidden=hidden, seed=0)
    model64.eval()
    model32 = GraphWaveNet(
        dataset.num_nodes, adjacency, hidden=hidden, seed=0,
        graph_backend=graph_backend,
    )
    model32.astype(np.float32)
    model32.eval()

    with no_grad():
        prediction64 = model64(Tensor(sample64)).numpy()
        prediction32 = model32(Tensor(sample32)).numpy()

        def baseline() -> None:
            model64(Tensor(sample64))

        def optimized() -> None:
            model32(Tensor(sample32))

        baseline()  # warm-up (adjacency caches, BLAS threads)
        optimized()
        comparison = _timed_comparison(baseline, optimized, repeats)
    return {
        "name": "nn.infer_window[GWN]",
        "n": int(dataset.num_nodes),
        "density": float(np.count_nonzero(adjacency)) / adjacency.size,
        "hidden": hidden,
        "window": window,
        "graph_backend": graph_backend,
        # Untrained same-seed weights: the float32 prediction gap.
        "max_abs_diff": float(np.max(np.abs(prediction64 - prediction32))),
        **comparison,
    }


# ----------------------------------------------------------------------
# serve: the inference server's SLOs
# ----------------------------------------------------------------------
def _serve_model(n: int, density: float, seed: int) -> DSGLModel:
    """A convex random model with normalization stats (serving-shaped)."""
    J, h = random_sparse_system(n, density, seed=seed)
    rng = np.random.default_rng(seed + 1)
    return DSGLModel(
        J=J,
        h=h,
        mean=rng.normal(size=n),
        scale=np.abs(rng.normal(size=n)) + 0.5,
    )


def _engine(model: DSGLModel) -> NaturalAnnealingEngine:
    # Sparse backend: the SuperLU reduced solve is column-independent,
    # which is what makes coalesced batches bit-identical to serial.
    return NaturalAnnealingEngine(model=model, backend="sparse")


def _warm(engine: NaturalAnnealingEngine, workload: Workload) -> None:
    for group in workload.groups:
        engine.infer_equilibrium_batch(group, np.zeros((1, group.size)))


def _replay(
    engine: NaturalAnnealingEngine,
    config: ServeConfig,
    workload: Workload,
    loop_mode: str,
) -> dict:
    """One traffic replay on a fresh server; adds ``makespan_ms``."""

    async def main() -> dict:
        async with InferenceServer(engine, config) as server:
            started = time.perf_counter()
            if loop_mode == "open":
                summary = await open_loop(server, workload)
            else:
                summary = await closed_loop(server, workload)
            summary["makespan_ms"] = (
                time.perf_counter() - started
            ) * 1000.0
        return summary

    return asyncio.run(main())


def bench_serve_traffic(
    model: DSGLModel,
    workload: Workload,
    config: ServeConfig,
    loop_mode: str,
    repeats: int,
) -> dict:
    """Replay one load point ``repeats`` times on a fresh engine.

    Latency quantiles come from the last replay; ``optimized_stats``
    holds the per-replay makespans (the whole replay, wall time), the
    distribution the regression gate compares.
    """
    engine = _engine(model)
    _warm(engine, workload)
    makespans: list[float] = []
    summary: dict = {}
    for _ in range(repeats):
        summary = _replay(engine, config, workload, loop_mode)
        makespans.append(summary["makespan_ms"])
    quantiles = summarize_latencies(summary["latencies_ms"])
    return {
        "name": f"serve_{loop_mode}_loop",
        "n": model.n,
        "mode": loop_mode,
        "batch_window_ms": config.batch_window_ms,
        "max_batch_size": config.max_batch_size,
        "rate_rps": workload.rate_rps,
        "requests": len(workload),
        "completed": summary["completed"],
        "statuses": summary["statuses"],
        "shed": summary["statuses"].get("shed", 0),
        "mean_batch_size": summary["mean_batch_size"],
        "throughput_rps": summary["throughput_rps"],
        "p50_ms": quantiles["p50_ms"],
        "p99_ms": quantiles["p99_ms"],
        "p999_ms": quantiles["p999_ms"],
        "max_latency_ms": quantiles["max_ms"],
        "optimized_stats": _timing_stats(makespans),
    }


def _burst_once(
    engine: NaturalAnnealingEngine,
    config: ServeConfig,
    observed_index: np.ndarray,
    values: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Serve one simultaneous burst; returns (elapsed_ms, predictions)."""

    async def main() -> tuple[float, np.ndarray]:
        async with InferenceServer(engine, config) as server:
            started = time.perf_counter()
            futures = [
                server.submit(observed_index, values[i])
                for i in range(values.shape[0])
            ]
            results = await asyncio.gather(*futures)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
        bad = [r.status for r in results if not r.ok]
        if bad:
            raise RuntimeError(f"burst requests not served: {bad}")
        return elapsed_ms, np.stack([r.prediction for r in results])

    return asyncio.run(main())


def bench_serve_burst(
    n: int,
    density: float,
    burst: int,
    repeats: int,
    seed: int = 0,
) -> dict:
    """Dynamic batching vs serial (``max_batch_size=1``) on one burst.

    Predictions must match bit for bit: the engine's sparse reduced solve
    is column-independent, so coalescing cannot change results.
    """
    model = _serve_model(n, density, seed)
    rng = np.random.default_rng(seed + 2)
    observed_index = np.sort(
        rng.choice(n, size=max(1, n // 2), replace=False)
    )
    values = rng.normal(size=(burst, observed_index.size))
    serial_cfg = ServeConfig(
        batch_window_ms=0.0,
        max_batch_size=1,
        max_queue=max(256, burst),
    )
    batched_cfg = ServeConfig(
        batch_window_ms=0.5,
        max_batch_size=burst,
        max_queue=max(256, burst),
    )
    serial_engine = _engine(model)
    batched_engine = _engine(model)
    # Warm both caches so the comparison times steady-state serving.
    serial_engine.infer_equilibrium_batch(
        observed_index, np.zeros((1, observed_index.size))
    )
    batched_engine.infer_equilibrium_batch(
        observed_index, np.zeros((1, observed_index.size))
    )

    serial_ms: list[float] = []
    batched_ms: list[float] = []
    serial_preds = batched_preds = None
    for _ in range(repeats):
        elapsed, serial_preds = _burst_once(
            serial_engine, serial_cfg, observed_index, values
        )
        serial_ms.append(elapsed)
        elapsed, batched_preds = _burst_once(
            batched_engine, batched_cfg, observed_index, values
        )
        batched_ms.append(elapsed)
    comparison = _comparison(serial_ms, batched_ms)
    return {
        "name": "serve_batched_vs_serial",
        "n": n,
        "density": density,
        "batch": burst,
        "mode": "equilibrium",
        **comparison,
        "throughput_serial_rps": burst / (comparison["baseline_ms"] / 1000.0),
        "throughput_batched_rps": burst
        / (comparison["optimized_ms"] / 1000.0),
        "max_abs_diff": float(np.max(np.abs(serial_preds - batched_preds))),
        "bitwise_identical": bool(
            np.array_equal(serial_preds, batched_preds)
        ),
    }


def bench_serve_overload(
    n: int, density: float, seed: int = 0
) -> dict:
    """Saturate a tiny admission queue; backpressure must shed."""
    model = _serve_model(n, density, seed)
    engine = _engine(model)
    workload = synthetic_workload(
        model,
        num_requests=120,
        rate_rps=50_000.0,
        burstiness=1.0,
        num_groups=1,
        seed=seed + 3,
    )
    config = ServeConfig(
        batch_window_ms=2.0, max_batch_size=8, max_queue=4
    )
    _warm(engine, workload)
    summary = _replay(engine, config, workload, "open")
    shed = summary["statuses"].get("shed", 0)
    return {
        "name": "serve_overload_shed",
        "n": n,
        "requests": len(workload),
        "max_queue": config.max_queue,
        "statuses": summary["statuses"],
        "shed": shed,
        "shed_fraction": shed / len(workload),
        "completed": summary["completed"],
        "throughput_rps": summary["throughput_rps"],
    }


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
def _core_cases(
    smoke: bool, batch: int, repeats: int, workers: int | None
) -> list[partial]:
    if smoke:
        small, workers = min(batch, 8), workers or 2
        return [
            partial(bench_drift, n=96, density=0.05, steps=20, repeats=repeats),
            partial(
                bench_circuit_batch, n=64, density=0.2, batch=small,
                duration=2.0, repeats=repeats,
            ),
            partial(
                bench_equilibrium, n=96, density=0.1, batch=small,
                repeats=repeats,
            ),
            partial(
                bench_parallel_batch, n=96, density=0.1, batch=small,
                duration=2.0, workers=workers, repeats=repeats,
            ),
            partial(
                bench_parallel_scaling, sizes=(64, 128), shards_grid=(2,),
                workers_grid=(1, workers), density=0.1, batch=small,
                duration=1.0,
            ),
            *(
                partial(
                    bench_stream_update, n=256, density=0.05,
                    delta_edges=edges, repeats=repeats,
                )
                for edges in (1, 8)
            ),
            *(
                partial(
                    bench_tune, name, n=256, density=0.05, batch=8,
                    duration=60.0, repeats=repeats,
                )
                for name in TUNE_ARMS
            ),
        ]
    workers = workers or 4
    return [
        *(
            partial(
                bench_drift, n=n, density=density, steps=50, repeats=repeats
            )
            for n, density in ((2048, 0.02), (2048, 0.05), (1024, 0.10))
        ),
        partial(
            bench_circuit_batch, n=256, density=0.1, batch=max(32, batch // 2),
            duration=20.0, repeats=repeats,
        ),
        partial(
            bench_equilibrium, n=1024, density=0.05, batch=batch,
            repeats=repeats,
        ),
        # The large sharded run_batch case: per-shard matvecs are sized so
        # the pickle/fork overhead amortizes, which is when sharding pays.
        partial(
            bench_parallel_batch, n=512, density=0.05, batch=max(batch, 256),
            duration=10.0, workers=workers, repeats=repeats,
        ),
        # The zero-copy payoff curve: legacy per-task pickling grows with
        # n (operator + result arrays), shm payloads stay descriptor-sized.
        partial(
            bench_parallel_scaling, sizes=(512, 2048, 8192),
            shards_grid=(4, 8), workers_grid=(1, workers), density=0.02,
            batch=32, duration=2.0,
        ),
        # Streaming deltas over delta size × n × density (acceptance: ≥5x
        # at n=4096, 1 edge).
        *(
            partial(
                bench_stream_update, n=n, density=density,
                delta_edges=edges, repeats=repeats,
            )
            for n, density, edges in (
                (1024, 0.02, 1),
                (1024, 0.02, 8),
                (4096, 0.01, 1),
                (4096, 0.01, 8),
                (4096, 0.01, 32),
            )
        ),
        # Annealing-path tuning (acceptance: early-exit ≥2x at n=2048 at
        # equal accuracy).
        *(
            partial(
                bench_tune, name, n=n, density=density, batch=8,
                duration=100.0, repeats=repeats,
            )
            for n, density in ((1024, 0.02), (2048, 0.01))
            for name in TUNE_ARMS
        ),
    ]


def _nn_cases(
    smoke: bool, batch: int, repeats: int, workers: int | None
) -> list[partial]:
    dataset = load_dataset("traffic", size="small")
    if smoke:
        return [
            partial(
                bench_train_epoch, dataset, hidden=8, epochs=1,
                batch_size=batch, repeats=repeats,
            ),
            partial(
                bench_inference, dataset, hidden=8, repeats=max(repeats, 10)
            ),
            partial(
                bench_graphconv, n=160, density=0.05, channels=8, batch=2,
                repeats=repeats,
            ),
        ]
    return [
        partial(
            bench_train_epoch, dataset, hidden=32, epochs=2,
            batch_size=batch, repeats=repeats,
        ),
        partial(
            bench_train_epoch, dataset, hidden=32, epochs=2,
            batch_size=batch, repeats=repeats, graph_backend=None,
            name="float32-only",
        ),
        partial(bench_inference, dataset, hidden=32, repeats=max(repeats, 30)),
        partial(
            bench_graphconv, n=500, density=0.02, channels=16, batch=4,
            repeats=repeats,
        ),
    ]


def _serve_cases(
    smoke: bool, batch: int, repeats: int, workers: int | None
) -> list[partial]:
    # Smoke p99.9 numbers are statistically meaningless (a few hundred
    # requests); the committed baseline uses the full sizes.
    if smoke:
        n, density, num_requests, rate_rps, burst = 64, 0.1, 80, 2000.0, 16
        windows = SERVE_SMOKE_WINDOWS
    else:
        n, density, num_requests, rate_rps, burst = 256, 0.05, 400, 1000.0, 64
        windows = SERVE_FULL_WINDOWS
    model = _serve_model(n, density, seed=0)
    workload = synthetic_workload(
        model,
        num_requests=num_requests,
        rate_rps=rate_rps,
        burstiness=4.0,
        num_groups=4,
        seed=0,
    )

    def config(window: float) -> ServeConfig:
        return ServeConfig(
            batch_window_ms=window,
            max_batch_size=max(burst, 32),
            max_queue=max(4 * num_requests, 256),
        )

    return [
        *(
            partial(
                bench_serve_traffic, model, workload, config(window), "open",
                repeats,
            )
            for window in windows
        ),
        partial(
            bench_serve_traffic, model, workload,
            config(windows[len(windows) // 2]), "closed", repeats,
        ),
        partial(bench_serve_burst, n, density, burst, repeats),
        partial(bench_serve_overload, n, density),
    ]


#: The registry: suite -> (payload name, case builder).  A builder takes
#: ``(smoke, batch, repeats, workers)`` and returns the suite's cases,
#: each a partial that returns one result row.
SUITES = {
    "core": ("core_hot_paths", _core_cases),
    "nn": ("nn_fast_path", _nn_cases),
    "serve": ("serve_slo", _serve_cases),
}


def _machine() -> dict:
    """The machine every row of one payload ran on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # older numpy only prints its build configuration
        blas_name = None
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "blas": blas_name,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_suite(
    suite: str,
    smoke: bool = False,
    batch: int = 64,
    repeats: int = 3,
    workers: int | None = None,
) -> dict:
    """Run one suite of :data:`SUITES` and wrap its rows in the envelope.

    Args:
        suite: ``core``, ``nn`` or ``serve``.
        smoke: Tiny problem sizes (seconds, for CI smoke runs) instead of
            the trajectory-grade sizes.
        batch: Batch size of the batched core comparisons and the nn
            training mini-batch.
        repeats: Repeats per timing (serve: replays per load point).
        workers: Worker count of the core serial-vs-parallel rows;
            defaults to 4 (2 in smoke mode).

    Returns:
        The JSON-serializable ``BENCH_<suite>.json`` payload: the machine,
        the result rows, and a metrics snapshot (cache hit counters,
        timing histograms, ``gnn.*`` and ``serve.*`` counters) collected
        while the rows ran.
    """
    benchmark, cases = SUITES[suite]
    with obs.metrics_enabled() as registry:
        results = [case() for case in cases(smoke, batch, repeats, workers)]
        snapshot = registry.snapshot()
    return {
        "benchmark": benchmark,
        **_machine(),
        "smoke": smoke,
        "repeats": repeats,
        "results": results,
        "metrics": snapshot,
    }


def format_bench(payload: dict) -> str:
    """Human-readable tables of a benchmark payload, one per row kind.

    Comparison rows lead: best-of stays the headline number, and the
    median and p90 of the optimized path expose run-to-run dispersion
    next to it.
    """
    results = payload["results"]
    lines = [
        f"{'benchmark':<36s} {'n':>5s} {'dens':>5s} {'base ms':>9s} "
        f"{'opt ms':>9s} {'opt p50':>9s} {'opt p90':>9s} {'speedup':>8s} "
        f"{'max|diff|':>10s}"
    ]
    for r in results:
        if "baseline_ms" not in r:
            continue
        stats = r["optimized_stats"]
        # Tune rows carry an absolute MAE vs the exact fixed point
        # instead of a baseline-vs-optimized output diff.
        diff = r.get("max_abs_diff", r.get("optimized_mae", float("nan")))
        lines.append(
            f"{r['name']:<36s} {r['n']:>5d} {r['density']:>5.2f} "
            f"{r['baseline_ms']:>9.2f} {r['optimized_ms']:>9.2f} "
            f"{stats['median_ms']:>9.2f} {stats['p90_ms']:>9.2f} "
            f"{r['speedup']:>7.1f}x {diff:>10.2e}"
        )
    for r in results:
        if "cache_hit_rate" in r:
            lines.append(
                f"LU-cache hit rate ({r['name']}): "
                f"{100.0 * r['cache_hit_rate']:.1f}% "
                f"({r['cache_hits']} hits / {r['cache_misses']} misses)"
            )
        if "rows" in r:
            lines.append(
                f"{'scaling curve':<22s} {'n':>6s} {'shards':>6s} "
                f"{'workers':>7s} {'ms':>9s} {'pkl legacy':>10s} "
                f"{'pkl shm':>8s} {'reduction':>9s} {'rss MB':>8s}"
            )
            for row in r["rows"]:
                lines.append(
                    f"{r['name']:<22s} {row['n']:>6d} {row['shards']:>6d} "
                    f"{row['workers']:>7d} {row['elapsed_ms']:>9.2f} "
                    f"{row['task_pickled_bytes_legacy']:>10d} "
                    f"{row['task_pickled_bytes_shm']:>8d} "
                    f"{row['pickle_reduction']:>8.1f}x "
                    f"{row['peak_rss_mb']:>8.1f}"
                )
    traffic = [r for r in results if "p50_ms" in r]
    if traffic:
        lines.append(
            f"{'serve traffic':<22s} {'loop':>6s} {'win ms':>7s} "
            f"{'reqs':>6s} {'p50 ms':>8s} {'p99 ms':>8s} {'p99.9':>8s} "
            f"{'rps':>9s} {'batch':>6s} {'shed':>5s}"
        )
    for r in traffic:
        lines.append(
            f"{r['name']:<22s} {r['mode']:>6s} "
            f"{r['batch_window_ms']:>7.1f} {r['requests']:>6d} "
            f"{r['p50_ms']:>8.2f} {r['p99_ms']:>8.2f} "
            f"{r['p999_ms']:>8.2f} {r['throughput_rps']:>9.1f} "
            f"{r['mean_batch_size']:>6.1f} {r['shed']:>5d}"
        )
    for r in results:
        if "throughput_batched_rps" in r:
            lines.append(
                f"batched vs serial (burst {r['batch']}): "
                f"{r['speedup']:.1f}x throughput "
                f"({r['throughput_serial_rps']:.0f} -> "
                f"{r['throughput_batched_rps']:.0f} rps), "
                f"max|diff| {r['max_abs_diff']:.1e}, "
                f"bitwise_identical={r['bitwise_identical']}"
            )
        if "shed_fraction" in r:
            lines.append(
                f"{r['name']} (queue {r['max_queue']}): "
                f"{r['shed']}/{r['requests']} shed "
                f"({100.0 * r['shed_fraction']:.1f}%), "
                f"{r['completed']} completed"
            )
    return "\n".join(lines)


def write_bench_json(payload: dict, path: str | Path) -> Path:
    """Write the benchmark payload as ``BENCH_*.json``."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path
