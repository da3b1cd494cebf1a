"""GNN fast-path performance benchmarks (``perf``-marked, skipped by
default — run with ``--run-perf`` or ``REPRO_RUN_PERF=1``).

The authoritative entry point is ``repro bench --suite nn``; these tests
share its harness (:mod:`repro.perf`) and gate the claims BENCH_nn.json
records: sparse cached graph propagation beats dense autograd matmuls at
real sensor-graph sizes, and the allocation-lean backward writes most
gradients without defensive copies.
"""

import json

import pytest

from repro.perf import bench_graphconv, run_suite, write_bench_json

pytestmark = pytest.mark.perf


def test_bench_nn_smoke_writes_valid_payload(tmp_path):
    payload = run_suite("nn", smoke=True, repeats=1)
    assert payload["benchmark"] == "nn_fast_path"
    assert payload["results"]
    names = [result["name"] for result in payload["results"]]
    assert any("train_epoch" in name for name in names)
    assert any("infer_window" in name for name in names)
    assert any("graphconv" in name for name in names)
    for result in payload["results"]:
        assert result["speedup"] > 0
    # Matched-dtype comparison: the graph-conv row is a correctness bound.
    graphconv = next(r for r in payload["results"] if "graphconv" in r["name"])
    assert graphconv["max_abs_diff"] < 1e-8
    # The float32 rows are cross-dtype: loose accuracy gap, not rounding.
    train = next(r for r in payload["results"] if "train_epoch" in r["name"])
    assert train["max_abs_diff"] < 1e-2
    assert payload["metrics"]["counters"]["gnn.epochs"] > 0

    out = write_bench_json(payload, tmp_path / "BENCH_nn.json")
    reloaded = json.loads(out.read_text())
    assert reloaded["results"] == payload["results"]


def test_sparse_cached_graphconv_beats_dense():
    """The gate: on a 500-node 2%-density graph, the cached CSR support
    must beat dense autograd matmuls on forward + backward."""
    result = bench_graphconv(n=500, density=0.02, repeats=2)
    assert result["backend"] == "sparse"  # auto-selection picked CSR
    assert result["max_abs_diff"] < 1e-8
    assert result["speedup"] > 1.0


def test_backward_is_allocation_lean():
    """Most first gradient writes take ownership of temporaries; the
    float32 fast path must not copy more than the float64 baseline."""
    payload = run_suite("nn", smoke=True, repeats=1)
    train = next(r for r in payload["results"] if "train_epoch" in r["name"])
    for side in ("baseline", "optimized"):
        stats = train["grad_stats"][side]
        assert stats["grad_writes"] > 0
        assert stats["grad_copies"] < stats["grad_writes"] / 2
    assert (
        train["grad_stats"]["optimized"]["grad_copies"]
        <= train["grad_stats"]["baseline"]["grad_copies"]
    )
