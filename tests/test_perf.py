"""Every suite of the bench harness (:mod:`repro.perf`) at smoke size.

One envelope for all three ``BENCH_<suite>.json`` files; row identities
``repro obs diff`` can match; a self-diff that stays silent; both arms'
per-repeat samples on every comparison row; and a rendered table that
names every row.
"""

import pytest

from repro.obs.regress import compare_bench, result_key
from repro.perf import format_bench, run_suite

ENVELOPE = {
    "benchmark",
    "python",
    "numpy",
    "scipy",
    "nproc",
    "blas",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "smoke",
    "repeats",
    "results",
    "metrics",
}


@pytest.mark.parametrize(
    "suite, payload_name",
    [("core", "core_hot_paths"), ("nn", "nn_fast_path"), ("serve", "serve_slo")],
)
def test_smoke_suite_payload(suite, payload_name):
    payload = run_suite(suite, smoke=True, repeats=2)
    assert set(payload) == ENVELOPE
    assert payload["benchmark"] == payload_name
    assert payload["smoke"] is True
    assert payload["repeats"] == 2
    assert payload["nproc"] >= 1
    assert payload["results"]

    keys = [result_key(row) for row in payload["results"]]
    assert len(keys) == len(set(keys))

    report = compare_bench(payload, payload)
    assert report["regressions"] == 0
    assert report["compared"] > 0

    for row in payload["results"]:
        if "baseline_ms" in row:
            for arm in ("baseline_stats", "optimized_stats"):
                assert len(row[arm]["samples_ms"]) >= payload["repeats"]

    rendered = format_bench(payload)
    for row in payload["results"]:
        assert row["name"] in rendered
