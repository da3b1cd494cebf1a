"""Cross-process observability stitching: absorb semantics + determinism.

Two halves:

* Unit tests of :meth:`Tracer.absorb` — the id-block remapping,
  re-parenting, clock rebasing, and task stamping that make worker
  records first-class members of the parent timeline.
* Determinism of the merged observability stream: the worker-emitted
  metric counts and the span-name ordering must be identical across
  worker counts {1, 2, 4} and across fork/spawn start methods (pool
  accounting metrics, which only exist on the pooled path, excluded).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.obs.trace import Tracer
from repro.parallel import run_batch_sharded
from repro.parallel.pool import START_METHOD_ENV


def _worker_records():
    """Simulate a worker tracer: two nested spans + one event."""
    worker = Tracer(None, trace_id="shared-trace")
    with worker.span("outer", task_kind="shard"):
        with worker.span("inner"):
            pass
        worker.event("probe", value=1)
    return worker, list(worker.records)


class TestAbsorb:
    def test_ids_remap_into_a_fresh_block(self):
        parent = Tracer(None)
        with parent.span("dispatch"):
            pass
        _, records = _worker_records()
        before = parent._next_id
        parent.absorb(records, parent_id=1)
        absorbed = parent.records[1:]
        ids = [r["span_id"] for r in absorbed if r["kind"] == "span"]
        assert all(span_id > before for span_id in ids)
        assert len(set(ids)) == len(ids)

    def test_two_workers_never_collide(self):
        parent = Tracer(None)
        with parent.span("dispatch"):
            pass
        _, first = _worker_records()
        _, second = _worker_records()
        parent.absorb(first, parent_id=1)
        parent.absorb(second, parent_id=1)
        ids = [
            r["span_id"] for r in parent.records if r["kind"] == "span"
        ]
        assert len(set(ids)) == len(ids)

    def test_worker_roots_reparent_onto_dispatch_span(self):
        parent = Tracer(None)
        with parent.span("dispatch") as dispatch:
            pass
        _, records = _worker_records()
        parent.absorb(records, parent_id=dispatch.span_id)
        outer = next(
            r for r in parent.records
            if r["kind"] == "span" and r["name"] == "outer"
        )
        inner = next(
            r for r in parent.records
            if r["kind"] == "span" and r["name"] == "inner"
        )
        assert outer["parent_id"] == dispatch.span_id
        # Non-root worker spans keep their (remapped) worker parent.
        assert inner["parent_id"] == outer["span_id"]

    def test_clock_rebasing_uses_epoch_delta(self):
        parent = Tracer(None)
        worker, records = _worker_records()
        skew_s = 2.5
        parent.absorb(
            records,
            parent_id=None,
            epoch_unix=parent.epoch_unix + skew_s,
        )
        for original, merged in zip(records, parent.records):
            for key in ("start_ms", "at_ms"):
                if key in original:
                    assert merged[key] == pytest.approx(
                        original[key] + skew_s * 1000.0
                    )

    def test_records_are_stamped_with_worker_and_task(self):
        parent = Tracer(None)
        _, records = _worker_records()
        parent.absorb(records, task=3)
        for record in parent.records:
            if "attributes" in record:
                assert record["attributes"]["worker"] is True
                assert record["attributes"].get("task", 3) == 3
        outer = next(
            r for r in parent.records if r.get("name") == "outer"
        )
        # setdefault: explicit worker-side attributes win over the stamp.
        assert outer["attributes"]["task_kind"] == "shard"

    def test_absorb_empty_payload_is_a_noop(self):
        parent = Tracer(None)
        parent.absorb([], parent_id=1, task=0)
        assert parent.records == []
        assert parent._next_id == 0

    def test_null_tracer_ignores_merge(self):
        state = {"metrics": {}, "trace": [{"kind": "span"}], "task": 0}
        obs.merge_worker_state(state)  # obs disabled: must not raise
        assert obs.tracer().records == []


def _scrub(snapshot: dict) -> dict:
    """Drop pool-transport accounting (pooled-path-only) and timing
    values, keeping the deterministic shape: counter values, gauges,
    and histogram sample counts."""
    def keep(name):
        return not name.startswith("parallel.")

    return {
        "counters": {
            k: v for k, v in snapshot["counters"].items() if keep(k)
        },
        "gauges": {
            k: v for k, v in snapshot["gauges"].items() if keep(k)
        },
        "histogram_counts": {
            k: v["count"]
            for k, v in snapshot["histograms"].items()
            if keep(k)
        },
    }


class TestMergeDeterminism:
    def _run(self, simulator, operator, workers, tmp_path, label):
        rng = np.random.default_rng(21)
        sigma0 = rng.uniform(-1.0, 1.0, size=(6, operator.n))
        clamp_index = np.arange(4)
        clamp_value = rng.normal(size=(6, 4))
        path = tmp_path / f"{label}.jsonl"
        with obs.observe(trace_path=path) as (metrics_, tracer_):
            result = run_batch_sharded(
                simulator, operator.drift, sigma0, 2.0,
                clamp_index=clamp_index, clamp_value=clamp_value,
                energy=operator.energy, root_seed=3,
                workers=workers, shards=4,
            )
            snapshot = metrics_.snapshot()
            spans = [
                r["name"] for r in tracer_.records if r["kind"] == "span"
            ]
        return result, _scrub(snapshot), spans

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_merged_obs_identical_across_worker_counts(
        self, noisy_simulator, small_operator, tmp_path, monkeypatch,
        start_method,
    ):
        import multiprocessing

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        monkeypatch.setenv(START_METHOD_ENV, start_method)

        runs = {
            workers: self._run(
                noisy_simulator, small_operator, workers, tmp_path,
                f"{start_method}-{workers}",
            )
            for workers in (1, 2, 4)
        }
        serial_result, serial_metrics, serial_spans = runs[1]
        for workers in (2, 4):
            result, metrics_, spans = runs[workers]
            assert np.array_equal(
                serial_result.states, result.states
            ), f"workers={workers} changed bits"
            assert metrics_ == serial_metrics, (
                f"workers={workers} ({start_method}) changed merged "
                "metric values"
            )
            assert spans == serial_spans, (
                f"workers={workers} ({start_method}) changed span order"
            )

    def test_fork_and_spawn_agree(
        self, noisy_simulator, small_operator, tmp_path, monkeypatch
    ):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork unavailable")
        outcomes = {}
        for start_method in ("fork", "spawn"):
            monkeypatch.setenv(START_METHOD_ENV, start_method)
            outcomes[start_method] = self._run(
                noisy_simulator, small_operator, 2, tmp_path,
                f"agree-{start_method}",
            )
        _, fork_metrics, fork_spans = outcomes["fork"]
        _, spawn_metrics, spawn_spans = outcomes["spawn"]
        assert fork_metrics == spawn_metrics
        assert fork_spans == spawn_spans
