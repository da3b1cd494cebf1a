"""Causal timeline reconstruction from a (possibly multi-process) trace.

Backs ``repro obs timeline PATH``: rebuilds the span tree recorded by
:class:`~repro.obs.trace.Tracer` — including worker spans stitched in via
:meth:`~repro.obs.trace.Tracer.absorb` — and turns it into the questions
a scale-out run actually raises:

* **Orphans** — spans whose ``parent_id`` resolves to no recorded span.
  A clean stitched trace has none; any orphan means context propagation
  broke somewhere.
* **Critical path** — the greedy longest root-to-leaf chain of spans
  (descend into the slowest child at every level), i.e. where a
  wall-clock optimization must land to matter.
* **Shard skew** — per-task wall time of ``parallel.task`` spans, with
  the straggler ratio (slowest / median).  A ratio near 1 means balanced
  shards; large ratios say the partitioner (or a fault) starved the pool.
* **Pool idle** — per ``parallel.map`` fan-out: dispatch/merge overhead
  (map duration minus the slowest task) and total worker-slot idle time
  (``duration x workers − sum of task durations``), the capacity lost to
  stragglers + serialization.

All duration accounting tolerates records missing ``start_ms`` or
``duration_ms`` (they count as 0), so partial traces still analyze.
"""

from __future__ import annotations

__all__ = ["analyze_records", "format_timeline"]


def _duration(span: dict) -> float:
    return float(span.get("duration_ms") or 0.0)


def _start(span: dict) -> float:
    return float(span.get("start_ms") or 0.0)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _critical_path(
    roots: list[dict], children: dict[int, list[dict]]
) -> list[dict]:
    """Greedy heaviest root-to-leaf chain through the span tree."""
    if not roots:
        return []
    path = []
    node = max(roots, key=_duration)
    while node is not None:
        path.append(node)
        kids = children.get(node["span_id"], [])
        node = max(kids, key=_duration) if kids else None
    return path


def analyze_records(records: list[dict]) -> dict:
    """Reconstruct the span tree and derive the timeline report data.

    Returns a dict with ``spans`` (all span records, start-ordered),
    ``roots``, ``orphans``, ``extent_ms``, ``critical_path``, ``shards``
    (per ``parallel.task`` index), ``skew`` (straggler ratio or ``None``),
    and ``maps`` (per ``parallel.map`` idle breakdown).
    """
    spans = [r for r in records if r.get("kind") == "span"]
    spans.sort(key=lambda s: (_start(s), s.get("span_id") or 0))
    by_id = {s["span_id"]: s for s in spans if s.get("span_id") is not None}
    children: dict[int, list[dict]] = {}
    roots: list[dict] = []
    orphans: list[dict] = []
    for span in spans:
        parent = span.get("parent_id")
        if parent is None:
            roots.append(span)
        elif parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            orphans.append(span)

    extent_ms = 0.0
    if spans:
        first = min(_start(s) for s in spans)
        last = max(_start(s) + _duration(s) for s in spans)
        extent_ms = last - first

    # Per-shard wall time from parallel.task spans (task index stamped by
    # the pool on dispatch; worker-side spans get it through absorb()).
    shards: dict[int, dict] = {}
    for span in spans:
        if span.get("name") != "parallel.task":
            continue
        attrs = span.get("attributes") or {}
        task = attrs.get("task")
        if task is None:
            continue
        shard = shards.setdefault(
            int(task), {"task": int(task), "spans": 0, "wall_ms": 0.0}
        )
        shard["spans"] += 1
        shard["wall_ms"] += _duration(span)
    shard_rows = [shards[task] for task in sorted(shards)]
    skew = None
    if len(shard_rows) >= 2:
        walls = [row["wall_ms"] for row in shard_rows]
        med = _median(walls)
        if med > 0:
            skew = max(walls) / med

    # Pool idle breakdown per parallel.map fan-out.
    maps: list[dict] = []
    for span in spans:
        if span.get("name") != "parallel.map":
            continue
        attrs = span.get("attributes") or {}
        tasks = [
            child
            for child in children.get(span["span_id"], [])
            if child.get("name") == "parallel.task"
        ]
        duration = _duration(span)
        busy = sum(_duration(t) for t in tasks)
        longest = max((_duration(t) for t in tasks), default=0.0)
        workers = int(attrs.get("workers") or 1)
        maps.append(
            {
                "duration_ms": duration,
                "tasks": len(tasks),
                "workers": workers,
                "busy_ms": busy,
                "longest_task_ms": longest,
                "dispatch_overhead_ms": max(0.0, duration - longest),
                "idle_ms": max(0.0, duration * workers - busy),
            }
        )

    return {
        "spans": spans,
        "roots": roots,
        "children": children,
        "orphans": orphans,
        "extent_ms": extent_ms,
        "critical_path": _critical_path(roots, children),
        "shards": shard_rows,
        "skew": skew,
        "maps": maps,
    }


def _bar(start: float, duration: float, extent: float, width: int) -> str:
    """A fixed-width gantt lane with the span's active region filled."""
    if extent <= 0:
        return "#" * width
    left = int(round(width * start / extent))
    filled = max(1, int(round(width * duration / extent)))
    left = min(left, width - 1)
    filled = min(filled, width - left)
    return " " * left + "#" * filled + " " * (width - left - filled)


def format_timeline(analysis: dict, width: int = 60) -> str:
    """Render the timeline report: gantt, stitching health, breakdowns."""
    lines: list[str] = []
    spans = analysis["spans"]
    if not spans:
        return "(no spans recorded)"
    extent = analysis["extent_ms"]
    origin = min(_start(s) for s in spans)

    lines.append(
        f"{len(spans)} spans over {extent:.2f} ms "
        f"({len(analysis['roots'])} root(s))"
    )
    orphans = analysis["orphans"]
    if orphans:
        names = ", ".join(
            sorted({str(span.get("name")) for span in orphans})
        )
        lines.append(
            f"ORPHAN SPANS: {len(orphans)} with unresolved parents ({names}) "
            "— trace-context propagation is broken for these"
        )
    else:
        lines.append("no orphan spans — worker timelines fully stitched")

    # Gantt of the heaviest spans, indented by tree depth.
    depth: dict[int, int] = {}
    for span in spans:
        parent = span.get("parent_id")
        depth[span["span_id"]] = (
            depth.get(parent, -1) + 1 if parent is not None else 0
        )
    heavy = sorted(spans, key=_duration, reverse=True)[:20]
    heavy.sort(key=lambda s: (_start(s), s.get("span_id") or 0))
    lines.append("")
    lines.append(f"{'span':<34s} {'ms':>9s}  timeline")
    for span in heavy:
        label = "  " * min(depth.get(span["span_id"], 0), 6) + str(
            span.get("name")
        )
        attrs = span.get("attributes") or {}
        if attrs.get("worker"):
            label += "*"
        lines.append(
            f"{label:<34.34s} {_duration(span):>9.2f}  "
            f"|{_bar(_start(span) - origin, _duration(span), extent, width)}|"
        )
    if any((s.get("attributes") or {}).get("worker") for s in heavy):
        lines.append("(* = span recorded in a worker process)")

    path = analysis["critical_path"]
    if path:
        lines.append("")
        lines.append(
            "critical path: "
            + " > ".join(str(s.get("name")) for s in path)
            + f"  ({_duration(path[0]):.2f} ms root)"
        )

    shard_rows = analysis["shards"]
    if shard_rows:
        lines.append("")
        lines.append(f"{'shard':>5s} {'spans':>6s} {'wall ms':>10s}")
        for row in shard_rows:
            lines.append(
                f"{row['task']:>5d} {row['spans']:>6d} {row['wall_ms']:>10.2f}"
            )
        if analysis["skew"] is not None:
            lines.append(
                f"straggler skew (slowest/median shard): "
                f"{analysis['skew']:.2f}x"
            )

    maps = analysis["maps"]
    if maps:
        lines.append("")
        lines.append(
            f"{'fan-out':<8s} {'tasks':>6s} {'workers':>8s} {'map ms':>9s} "
            f"{'busy ms':>9s} {'overhead ms':>12s} {'idle ms':>9s}"
        )
        for index, row in enumerate(maps):
            lines.append(
                f"map {index:<4d} {row['tasks']:>6d} {row['workers']:>8d} "
                f"{row['duration_ms']:>9.2f} {row['busy_ms']:>9.2f} "
                f"{row['dispatch_overhead_ms']:>12.2f} {row['idle_ms']:>9.2f}"
            )
        lines.append(
            "(overhead = map minus slowest task: dispatch+merge cost; "
            "idle = workers x map minus busy: capacity lost to stragglers)"
        )
    return "\n".join(lines)
