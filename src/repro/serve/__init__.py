"""``repro.serve`` — inference-as-a-service over the annealing engine.

A stdlib-``asyncio`` serving layer: single-sample requests coalesce into
dynamic batches over the batched engine paths, with fingerprint-keyed
cache warmth, bounded-queue admission control, and graceful shutdown
(:mod:`repro.serve.server`); and seeded open/closed-loop bursty
traffic generation (:mod:`repro.serve.traffic`).  The SLO benchmark rows
behind ``repro bench --suite serve`` / ``BENCH_serve.json`` live in
:mod:`repro.perf`.
"""

from .server import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    STATUS_SHUTDOWN,
    InferenceServer,
    ServeConfig,
    ServeResult,
)
from .traffic import (
    TrafficRequest,
    Workload,
    closed_loop,
    open_loop,
    summarize_latencies,
    synthetic_workload,
)

__all__ = [
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SHED",
    "STATUS_SHUTDOWN",
    "InferenceServer",
    "ServeConfig",
    "ServeResult",
    "TrafficRequest",
    "Workload",
    "closed_loop",
    "open_loop",
    "summarize_latencies",
    "synthetic_workload",
]
