"""Streaming graphs: deltas, incremental refactorization, windowed runs.

The subsystem has two layers:

* :mod:`repro.stream.deltas` — the :class:`GraphDelta` edit type and
  seeded delta samplers.
* :mod:`repro.stream.runner` — sliding-window streaming prediction:
  replay a seeded delta+observation stream through an engine (or the
  serving layer), recording per-window accuracy and
  incremental-vs-refactorization counts (``repro stream run``).

The refactor-vs-incremental cost curves over (delta size × n × density)
are core-suite rows of :mod:`repro.perf`, recorded into BENCH_core.json
and gated by ``repro obs diff``.

The actual incremental machinery lives with the things it updates:
:meth:`repro.core.operators.CouplingOperator.apply_delta`,
:meth:`repro.core.operators.ReducedSystem.apply_increments`, and
:meth:`repro.core.inference.NaturalAnnealingEngine.apply_delta`.
"""

from .deltas import GraphDelta, delta_stream, random_delta
from .runner import StreamConfig, StreamResult, format_stream_summary, run_stream

__all__ = [
    "GraphDelta",
    "delta_stream",
    "random_delta",
    "StreamConfig",
    "StreamResult",
    "format_stream_summary",
    "run_stream",
]
