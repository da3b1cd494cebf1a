"""Annealing-path autotuning: Pareto search over integration configs.

See :mod:`repro.tune.search` for the search/replay machinery.  The
equal-accuracy-at-lower-latency benchmark rows recorded in
``BENCH_core.json`` are core-suite rows of :mod:`repro.perf`.
"""

from .search import (
    CircuitProblem,
    DspuProblem,
    TuneCandidate,
    build_grid,
    build_problem,
    evaluate_candidate,
    load_artifact,
    pareto_front,
    replay,
    save_artifact,
    search,
)

__all__ = [
    "CircuitProblem",
    "DspuProblem",
    "TuneCandidate",
    "build_grid",
    "build_problem",
    "evaluate_candidate",
    "load_artifact",
    "pareto_front",
    "replay",
    "save_artifact",
    "search",
]
