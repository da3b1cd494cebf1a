"""Aggregation of a recorded trace into a readable report.

Backs ``repro obs summarize PATH``: spans are grouped by name with timing
totals, numeric span/event attributes are aggregated (sum/mean/min/max),
and the last embedded metrics snapshot — counters, gauges, histogram
summaries — is appended, together with the derived LU-cache hit rate.
"""

from __future__ import annotations

from pathlib import Path

from .trace import read_trace

__all__ = [
    "summarize_records",
    "summarize_trace",
    "format_summary",
    "format_metrics",
]


def _aggregate_numeric(values: list[float]) -> dict:
    return {
        "count": len(values),
        "sum": sum(values),
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
    }


def summarize_records(records: list[dict]) -> dict:
    """Aggregate raw trace records (see :func:`repro.obs.trace.read_trace`).

    Returns:
        A dict with ``spans`` (per-name timing stats), ``span_attributes``
        and ``event_attributes`` (per name+attribute numeric aggregates),
        ``events`` (per-name counts), and ``metrics`` (the last embedded
        snapshot, or ``None``).
    """
    span_times: dict[str, list[float]] = {}
    span_attrs: dict[tuple[str, str], list[float]] = {}
    event_counts: dict[str, int] = {}
    event_attrs: dict[tuple[str, str], list[float]] = {}
    metrics = None

    for record in records:
        kind = record.get("kind")
        if kind == "span":
            name = record["name"]
            span_times.setdefault(name, []).append(
                float(record.get("duration_ms") or 0.0)
            )
            for key, value in (record.get("attributes") or {}).items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                span_attrs.setdefault((name, key), []).append(float(value))
        elif kind == "event":
            name = record["name"]
            event_counts[name] = event_counts.get(name, 0) + 1
            for key, value in (record.get("attributes") or {}).items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                event_attrs.setdefault((name, key), []).append(float(value))
        elif kind == "metrics":
            metrics = record.get("snapshot")

    spans = {}
    for name, durations in span_times.items():
        spans[name] = {
            "count": len(durations),
            "total_ms": sum(durations),
            "mean_ms": sum(durations) / len(durations),
            "max_ms": max(durations),
        }
    return {
        "spans": spans,
        "span_attributes": {
            f"{name}.{key}": _aggregate_numeric(values)
            for (name, key), values in span_attrs.items()
        },
        "events": event_counts,
        "event_attributes": {
            f"{name}.{key}": _aggregate_numeric(values)
            for (name, key), values in event_attrs.items()
        },
        "metrics": metrics,
    }


def summarize_trace(path: str | Path) -> dict:
    """Read and aggregate a trace JSONL file."""
    return summarize_records(read_trace(path))


def _shm_transport_lines(counters: dict) -> list[str]:
    """Derived shared-memory transport lines (see :mod:`repro.parallel.shm`).

    Reports bytes placed in shared blocks against bytes pickled into pool
    tasks — the zero-copy ratio the transport exists for — plus the
    attach/detach balance (unequal counts mean a worker leaked a mapping).
    """
    lines: list[str] = []
    shared = counters.get("parallel.shm.bytes_shared")
    if shared is not None:
        pickled = counters.get("parallel.bytes_pickled") or 0
        tasks = counters.get("parallel.tasks") or 0
        per_task = f", {pickled / tasks:.0f} B/task pickled" if tasks else ""
        lines.append(
            f"shm transport: {shared / 1e6:.2f} MB shared across "
            f"{counters.get('parallel.shm.blocks', 0)} blocks{per_task}"
        )
        attaches = counters.get("parallel.shm.attaches") or 0
        detaches = counters.get("parallel.shm.detaches") or 0
        balance = "balanced" if attaches == detaches else "LEAKED"
        lines.append(
            f"shm attach/detach: {attaches}/{detaches} ({balance})"
        )
    return lines


def _adaptive_path_lines(counters: dict) -> list[str]:
    """Derived annealing-path efficiency lines (adaptive / early-exit runs).

    ``circuit.member_steps`` counts member×step work actually executed
    by adaptive/early-exit integrations; against ``circuit.steps`` ×
    ``circuit.samples`` it shows the matvec work freeze-out saved.  The
    step acceptance rate shows how often the PI controller's trials were
    kept.
    """
    lines: list[str] = []
    member_steps = counters.get("circuit.member_steps")
    if member_steps is not None:
        steps = counters.get("circuit.steps") or 0
        samples = counters.get("circuit.samples") or 0
        budget = steps * max(samples, 1)
        if budget:
            saved = 100.0 * (1.0 - member_steps / budget)
            lines.append(
                f"annealing path: {member_steps} member-steps executed "
                f"({saved:.1f}% of the step budget saved)"
            )
        frozen = counters.get("circuit.frozen_members") or 0
        exits = counters.get("circuit.early_exits") or 0
        if frozen or exits:
            lines.append(
                f"early exit: {frozen} members frozen, "
                f"{exits} runs exited before budget"
            )
    rejected = counters.get("circuit.rejected_steps")
    if rejected is not None:
        accepted = counters.get("circuit.steps") or 0
        total = accepted + rejected
        if total:
            lines.append(
                f"adaptive steps: {100.0 * accepted / total:.1f}% accepted "
                f"({rejected} rejected)"
            )
    return lines


def _circuit_rail_line(counters: dict) -> list[str]:
    """Free-node values the circuit integrator's rail clip moved, over how
    many runs; printed only when the trace carries the counter."""
    clips = counters.get("circuit.rail_clips")
    if clips is None:
        return []
    runs = counters.get("circuit.runs") or 0
    return [f"circuit rails: {clips} free-node values clipped over {runs} runs"]


def _finetune_line(counters: dict) -> list[str]:
    """CONCORD fine-tunes the decompositions ran, and how many stopped at
    their sweep cap before the largest update fell below the tolerance."""
    fits = counters.get("decompose.finetune_fits") or 0
    if not fits:
        return []
    capped = counters.get("decompose.finetune_capped") or 0
    return [f"CONCORD fine-tune: {fits} fits, {capped} stopped at the sweep cap"]


def _dspu_mapping_line(counters: dict) -> list[str]:
    """DSPU mappings the experiment context built, and copies it reused."""
    built = counters.get("experiments.dspu_maps") or 0
    reused = counters.get("experiments.dspu_map_reuses") or 0
    if not built + reused:
        return []
    return [f"DSPU mappings: {built} built, {reused} reused"]


def _propagator_cache_line(counters: dict) -> list[str]:
    """Share of DSPU anneal calls that reused cached propagators, and how
    the builds' stability guard decided: damped builds, phases capped at
    ``GROWTH_CAP`` and exact top eigenvalues computed for the cap gate."""
    hits = counters.get("dspu.propagator_hits") or 0
    builds = counters.get("dspu.propagator_builds") or 0
    if not hits + builds:
        return []
    damped = counters.get("dspu.damped_builds") or 0
    capped = counters.get("dspu.capped_phases") or 0
    exact = counters.get("dspu.exact_growth_bounds") or 0
    return [
        f"DSPU propagators: {100.0 * hits / (hits + builds):.1f}% of anneal "
        f"calls served from cache ({hits} hits, {builds} builds, "
        f"{damped} damped, {capped} capped phases, {exact} exact bounds)"
    ]


def _cache_hit_rate(counters: dict) -> float | None:
    hits = counters.get("engine.cache_hits")
    misses = counters.get("engine.cache_misses")
    if hits is None and misses is None:
        return None
    hits = hits or 0
    misses = misses or 0
    total = hits + misses
    return hits / total if total else 0.0


def format_summary(summary: dict) -> str:
    """Render an aggregated summary as the ``obs summarize`` table."""
    lines: list[str] = []

    lines.append(
        f"{'span':<34s} {'count':>6s} {'total ms':>10s} {'mean ms':>9s} "
        f"{'max ms':>9s}"
    )
    if summary["spans"]:
        for name in sorted(summary["spans"]):
            s = summary["spans"][name]
            lines.append(
                f"{name:<34s} {s['count']:>6d} {s['total_ms']:>10.2f} "
                f"{s['mean_ms']:>9.2f} {s['max_ms']:>9.2f}"
            )
    else:
        lines.append("(no spans recorded)")

    if summary["span_attributes"] or summary["event_attributes"]:
        lines.append("")
        lines.append(
            f"{'attribute':<44s} {'count':>6s} {'mean':>10s} {'min':>10s} "
            f"{'max':>10s}"
        )
        merged = dict(summary["span_attributes"])
        merged.update(summary["event_attributes"])
        for name in sorted(merged):
            a = merged[name]
            lines.append(
                f"{name:<44s} {a['count']:>6d} {a['mean']:>10.4g} "
                f"{a['min']:>10.4g} {a['max']:>10.4g}"
            )

    if summary["events"]:
        lines.append("")
        lines.append("events: " + ", ".join(
            f"{name} x{count}" for name, count in sorted(summary["events"].items())
        ))

    metrics = summary.get("metrics")
    if metrics:
        rendered = format_metrics(metrics)
        if rendered:
            lines.append("")
            lines.append(rendered)
    return "\n".join(lines)


def format_metrics(snapshot: dict) -> str:
    """Render a metrics-registry snapshot (counters, gauges, histograms).

    Appends derived lines when their counters are present: the LU-cache
    hit rate, the shared-memory transport summary (bytes shared vs bytes
    pickled, attach/detach balance), the annealing-path efficiency of
    adaptive/early-exit integrations (member-step savings, step
    acceptance rate), the free-node values the circuit rail clipped, the
    CONCORD fine-tunes and how many stopped at their
    sweep cap, the DSPU mappings built and reused, and the DSPU
    propagator-cache hit rate with the builds' stability-guard decisions
    (damped builds, capped phases, exact growth bounds).
    Returns an empty string for an empty snapshot.
    """
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    if counters or gauges:
        lines.append(f"{'metric':<44s} {'value':>12s}")
        for name, value in sorted(counters.items()):
            lines.append(f"{'counter ' + name:<44s} {value:>12d}")
        for name, value in sorted(gauges.items()):
            lines.append(f"{'gauge ' + name:<44s} {value:>12.4g}")
    populated = {name: h for name, h in histograms.items() if h.get("count")}
    if populated:
        if lines:
            lines.append("")
        lines.append(
            f"{'histogram':<34s} {'count':>6s} {'mean':>9s} {'p50':>9s} "
            f"{'p90':>9s} {'p99':>9s} {'max':>9s}"
        )
        for name in sorted(populated):
            h = populated[name]
            p99 = h.get("p99", h["max"])
            lines.append(
                f"{name:<34s} {h['count']:>6d} {h['mean']:>9.3f} "
                f"{h['p50']:>9.3f} {h['p90']:>9.3f} {p99:>9.3f} "
                f"{h['max']:>9.3f}"
            )
    derived: list[str] = []
    rate = _cache_hit_rate(counters)
    if rate is not None:
        derived.append(f"LU-cache hit rate: {100.0 * rate:.1f}%")
    derived.extend(_shm_transport_lines(counters))
    derived.extend(_adaptive_path_lines(counters))
    derived.extend(_circuit_rail_line(counters))
    derived.extend(_finetune_line(counters))
    derived.extend(_dspu_mapping_line(counters))
    derived.extend(_propagator_cache_line(counters))
    if derived:
        lines.append("")
        lines.extend(derived)
    return "\n".join(lines)
