"""Benchmark regression detection over ``BENCH_*.json`` snapshots.

Backs ``repro obs diff BASELINE CANDIDATE``: the bench harness
(:mod:`repro.perf`) records *every* per-repeat timing sample
(``samples_ms``) precisely so that later comparisons can distinguish
real regressions from machine noise.  This module does that comparison:

* Result rows are matched across files by :func:`result_key` — the
  benchmark name plus its identifying parameters (n, density, batch,
  workers, ...), so reordering or adding benchmarks never misaligns the
  diff.
* For each matched timing (both the ``baseline`` and ``optimized`` arm
  of a comparison row), a **noise band** is derived from the per-repeat
  samples: the relative spread ``(max - min) / median`` of whichever
  side is noisier, floored at ``min_band`` (default 10%).  With the
  usual 3-5 repeats a full-range spread is a deliberately conservative
  dispersion estimate — the band widens automatically on noisy machines
  and the floor keeps single-digit-percent jitter from ever flagging.
* A row is a **regression** only when the candidate is slower than
  ``baseline x (1 + band)`` on *both* the median and the best sample —
  a genuine shift of the whole distribution, not one unlucky repeat.
  Symmetrically, faster on both by the band is an **improvement**;
  anything else is ``ok``.
* Single-sample rows (the ``parallel_scaling_curve`` sweep) carry no
  repeat distribution, so their timings are skipped; their
  deterministic payload metrics (``task_pickled_bytes_shm``,
  ``pickle_reduction``) are compared exactly instead — a transport
  efficiency regression is as real as a timing one.

Exit-code contract (used by the CI gate): ``repro obs diff`` returns 0
when no regressions are flagged and 3 when at least one is.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "load_bench",
    "result_key",
    "compare_bench",
    "format_diff",
]

#: Fields that identify a result row (with the name) across bench files.
KEY_FIELDS = (
    "n",
    "density",
    "steps",
    "batch",
    "batch_size",
    "workers",
    "shards",
    "channels",
    "hidden",
    "epochs",
    "duration_ns",
    "graph_backend",
    # Serving-benchmark rows (BENCH_serve.json) are identified by their
    # load point: batching window, offered rate, loop mode, request count.
    "batch_window_ms",
    "rate_rps",
    "mode",
    "requests",
    # Streaming rows sweep delta size alongside n/density.
    "delta_edges",
)

#: Default noise-band floor: differences under 10% never flag.
DEFAULT_MIN_BAND = 0.10

#: Payload metrics compared exactly on single-sample scaling rows.
_PAYLOAD_FIELDS = ("task_pickled_bytes_shm", "pickle_reduction")

#: Relative tolerance for payload metrics (pickled sizes can move a few
#: bytes across python/numpy versions without meaning anything).
_PAYLOAD_TOLERANCE = 0.10


def load_bench(path: str | Path) -> dict:
    """Load a ``BENCH_*.json`` document, validating its shape."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "results" not in document:
        raise ValueError(
            f"{path}: not a bench snapshot (missing a 'results' list)"
        )
    return document


def result_key(row: dict) -> str:
    """Stable identity of a result row: name + identifying parameters."""
    parts = [str(row.get("name", "?"))]
    for field in KEY_FIELDS:
        if field in row:
            parts.append(f"{field}={row[field]}")
    return " ".join(parts)


def _rel_spread(samples: list[float]) -> float:
    """Full-range relative spread of repeat samples (0 when degenerate)."""
    if not samples or len(samples) < 2:
        return 0.0
    ordered = sorted(samples)
    median = ordered[len(ordered) // 2]
    if median <= 0:
        return 0.0
    return (ordered[-1] - ordered[0]) / median


def _compare_stats(
    base: dict, cand: dict, min_band: float
) -> dict:
    """Compare one timing distribution; returns status + evidence."""
    band = max(
        min_band,
        _rel_spread(base.get("samples_ms", [])),
        _rel_spread(cand.get("samples_ms", [])),
    )
    base_median = base.get("median_ms", base.get("best_ms", 0.0))
    cand_median = cand.get("median_ms", cand.get("best_ms", 0.0))
    base_best = base.get("best_ms", base_median)
    cand_best = cand.get("best_ms", cand_median)
    ratio = cand_median / base_median if base_median > 0 else float("nan")
    if (
        cand_median > base_median * (1.0 + band)
        and cand_best > base_best * (1.0 + band)
    ):
        status = "regression"
    elif (
        cand_median < base_median * (1.0 - band)
        and cand_best < base_best * (1.0 - band)
    ):
        status = "improvement"
    else:
        status = "ok"
    return {
        "status": status,
        "band": band,
        "ratio": ratio,
        "base_median_ms": base_median,
        "cand_median_ms": cand_median,
        "base_best_ms": base_best,
        "cand_best_ms": cand_best,
    }


def _compare_scaling_rows(base_row: dict, cand_row: dict) -> list[dict]:
    """Exact payload comparison for single-sample scaling-curve sweeps."""
    findings: list[dict] = []

    def point_key(point: dict) -> tuple:
        return tuple(
            point.get(field) for field in ("n", "shards", "workers")
        )

    cand_points = {
        point_key(point): point for point in cand_row.get("rows", [])
    }
    for point in base_row.get("rows", []):
        match = cand_points.get(point_key(point))
        if match is None:
            continue
        label = (
            f"{base_row.get('name')} n={point.get('n')} "
            f"shards={point.get('shards')} workers={point.get('workers')}"
        )
        for field in _PAYLOAD_FIELDS:
            base_value = point.get(field)
            cand_value = match.get(field)
            if base_value is None or cand_value is None:
                continue
            # pickle_reduction regresses downward; byte counts upward.
            if field == "pickle_reduction":
                worse = cand_value < base_value * (1.0 - _PAYLOAD_TOLERANCE)
            else:
                worse = cand_value > base_value * (1.0 + _PAYLOAD_TOLERANCE)
            findings.append(
                {
                    "key": f"{label} [{field}]",
                    "metric": field,
                    "status": "regression" if worse else "ok",
                    "band": _PAYLOAD_TOLERANCE,
                    "ratio": (
                        cand_value / base_value if base_value else float("nan")
                    ),
                    "base_median_ms": float(base_value),
                    "cand_median_ms": float(cand_value),
                }
            )
    return findings


def compare_bench(
    baseline: dict, candidate: dict, min_band: float = DEFAULT_MIN_BAND
) -> dict:
    """Diff two bench documents; see the module docstring for the rules.

    Returns a report dict with per-timing ``rows`` (key, metric, status,
    band, ratio, medians), plus ``regressions`` / ``improvements`` /
    ``compared`` / ``skipped`` counts and the unmatched row keys.
    """
    base_rows = {result_key(row): row for row in baseline.get("results", [])}
    cand_rows = {result_key(row): row for row in candidate.get("results", [])}
    rows: list[dict] = []
    skipped: list[str] = []

    for key, base_row in base_rows.items():
        cand_row = cand_rows.get(key)
        if cand_row is None:
            continue
        if "rows" in base_row:  # scaling sweep: single-sample timings
            skipped.append(f"{key} [timings: single-sample sweep]")
            rows.extend(_compare_scaling_rows(base_row, cand_row))
            continue
        for arm in ("baseline_stats", "optimized_stats"):
            base_stats = base_row.get(arm)
            cand_stats = cand_row.get(arm)
            if not base_stats or not cand_stats:
                continue
            finding = _compare_stats(base_stats, cand_stats, min_band)
            finding["key"] = f"{key} [{arm.removesuffix('_stats')}]"
            finding["metric"] = arm
            rows.append(finding)

    return {
        "rows": rows,
        "regressions": sum(
            1 for row in rows if row["status"] == "regression"
        ),
        "improvements": sum(
            1 for row in rows if row["status"] == "improvement"
        ),
        "compared": len(rows),
        "skipped": skipped,
        "only_in_baseline": sorted(set(base_rows) - set(cand_rows)),
        "only_in_candidate": sorted(set(cand_rows) - set(base_rows)),
    }


def format_diff(report: dict, verbose: bool = False) -> str:
    """Render a diff report; quiet rows collapse unless ``verbose``."""
    lines: list[str] = []
    flagged = [
        row for row in report["rows"] if row["status"] != "ok" or verbose
    ]
    if flagged:
        lines.append(
            f"{'status':<12s} {'ratio':>7s} {'band':>6s} "
            f"{'base':>10s} {'cand':>10s}  benchmark"
        )
        for row in sorted(
            flagged,
            key=lambda r: (r["status"] != "regression", -r.get("ratio", 0.0)),
        ):
            lines.append(
                f"{row['status']:<12s} {row['ratio']:>6.2f}x "
                f"{100.0 * row['band']:>5.1f}% "
                f"{row['base_median_ms']:>10.3f} "
                f"{row['cand_median_ms']:>10.3f}  {row['key']}"
            )
    summary = (
        f"{report['compared']} timings compared: "
        f"{report['regressions']} regression(s), "
        f"{report['improvements']} improvement(s)"
    )
    if report["skipped"]:
        summary += f", {len(report['skipped'])} skipped"
    lines.append(summary)
    for key in report["only_in_baseline"]:
        lines.append(f"only in baseline: {key}")
    for key in report["only_in_candidate"]:
        lines.append(f"only in candidate: {key}")
    if report["regressions"]:
        lines.append(
            "REGRESSION: candidate is slower beyond the noise band "
            "on both median and best samples"
        )
    return "\n".join(lines)
