"""Server lifecycle: shutdown semantics, interrupts, modes, telemetry."""

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.core import NaturalAnnealingEngine, symmetrize_coupling
from repro.core.model import DSGLModel
from repro.parallel import shm_residue
from repro.serve import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHUTDOWN,
    InferenceServer,
    ServeConfig,
)

OBSERVED = np.asarray([0, 2, 5])


def _model(n=10, seed=0):
    rng = np.random.default_rng(seed)
    J = symmetrize_coupling(rng.normal(size=(n, n)) * 0.4)
    h = -(np.abs(J).sum(axis=1) + 1.0)
    return DSGLModel(J=J, h=h)


def _engine(n=10, seed=0, backend="sparse"):
    return NaturalAnnealingEngine(model=_model(n, seed), backend=backend)


def _run(coro):
    return asyncio.run(coro)


class TestShutdown:
    def test_drain_completes_queued_requests(self):
        config = ServeConfig(batch_window_ms=200.0, drain_on_shutdown=True)

        async def main():
            async with InferenceServer(_engine(), config) as server:
                futures = [
                    server.submit(OBSERVED, [0.1 * i, 0.0, 0.2])
                    for i in range(4)
                ]
                # __aexit__ drains: the long window is skipped and the
                # queued batch executes before the server stops.
            return await asyncio.gather(*futures)

        results = _run(main())
        assert [r.status for r in results] == [STATUS_OK] * 4

    def test_no_drain_returns_shutdown_status(self):
        config = ServeConfig(batch_window_ms=200.0)

        async def main():
            server = InferenceServer(_engine(), config).start()
            futures = [
                server.submit(OBSERVED, [0.1, 0.2, 0.3]) for _ in range(3)
            ]
            await server.shutdown(drain=False)
            return await asyncio.gather(*futures), server.stats

        results, stats = _run(main())
        assert [r.status for r in results] == [STATUS_SHUTDOWN] * 3
        assert all(r.prediction is None for r in results)
        assert stats["shutdown"] == 3

    def test_submit_after_shutdown_is_rejected_cleanly(self):
        async def main():
            server = InferenceServer(_engine()).start()
            await server.shutdown()
            result = await server.submit(OBSERVED, [0.1, 0.2, 0.3])
            return result

        assert _run(main()).status == STATUS_SHUTDOWN

    def test_request_shutdown_is_signal_handler_safe(self):
        """The sync trigger (what a SIGTERM handler calls) stops the loop."""
        config = ServeConfig(batch_window_ms=50.0)

        async def main():
            server = InferenceServer(_engine(), config).start()
            future = server.submit(OBSERVED, [0.1, 0.2, 0.3])
            server.request_shutdown()
            result = await future  # drained on the way out
            await server.shutdown()
            return result

        assert _run(main()).status == STATUS_OK

    def test_keyboard_interrupt_mid_batch_fails_cleanly(self):
        """An interrupt landing in the engine call must not hang futures."""
        engine = _engine()
        calls = {"n": 0}
        original = engine.infer_equilibrium_batch

        def interrupt_once(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise KeyboardInterrupt
            return original(*args, **kwargs)

        engine.infer_equilibrium_batch = interrupt_once
        config = ServeConfig(batch_window_ms=5.0)
        futures = {}

        async def main():
            server = InferenceServer(engine, config).start()
            futures["first"] = server.submit(OBSERVED, [0.1, 0.2, 0.3])
            futures["second"] = server.submit(OBSERVED, [0.4, 0.5, 0.6])
            await asyncio.sleep(60)  # the interrupt kills the loop first

        # asyncio re-raises a task's KeyboardInterrupt out of the event
        # loop itself — exactly the ^C-in-the-server-loop scenario.
        with pytest.raises(KeyboardInterrupt):
            asyncio.run(main())
        # The interrupted batch resolved with the clean shutdown status
        # before the loop died (never a hang), and nothing leaked into
        # /dev/shm.
        assert futures["first"].result().status == STATUS_SHUTDOWN
        assert futures["second"].result().status == STATUS_SHUTDOWN
        assert shm_residue() == []

    def test_failed_batch_reports_error_and_keeps_serving(self):
        engine = _engine()
        calls = {"n": 0}
        original = engine.infer_equilibrium_batch

        def fail_once(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("solver exploded")
            return original(*args, **kwargs)

        engine.infer_equilibrium_batch = fail_once

        async def main():
            async with InferenceServer(engine) as server:
                first = await server.submit(OBSERVED, [0.1, 0.2, 0.3])
                second = await server.submit(OBSERVED, [0.4, 0.5, 0.6])
            return first, second

        first, second = _run(main())
        assert first.status == STATUS_FAILED
        assert "solver exploded" in first.error
        assert second.status == STATUS_OK


class TestCircuitModeServing:
    def test_circuit_mode_burst_leaves_no_shm_residue(self):
        config = ServeConfig(
            mode="circuit", duration_ns=2.0, batch_window_ms=10.0
        )

        async def main():
            async with InferenceServer(_engine(), config) as server:
                futures = [
                    server.submit(OBSERVED, [0.1 * i, 0.0, 0.2])
                    for i in range(4)
                ]
                return await asyncio.gather(*futures)

        results = _run(main())
        assert all(r.status == STATUS_OK for r in results)
        assert all(r.prediction.shape == (7,) for r in results)
        assert shm_residue() == []

    def test_circuit_mode_shutdown_mid_queue_no_residue(self):
        config = ServeConfig(
            mode="circuit", duration_ns=2.0, batch_window_ms=500.0
        )

        async def main():
            server = InferenceServer(_engine(), config).start()
            futures = [
                server.submit(OBSERVED, [0.1, 0.2, 0.3]) for _ in range(3)
            ]
            await server.shutdown(drain=False)
            return await asyncio.gather(*futures)

        results = _run(main())
        assert [r.status for r in results] == [STATUS_SHUTDOWN] * 3
        assert shm_residue() == []

    def test_circuit_mode_serial_matches_engine(self):
        config = ServeConfig(
            mode="circuit", duration_ns=5.0, batch_window_ms=0.0
        )
        engine = _engine()

        async def main():
            async with InferenceServer(engine, config) as server:
                return await server.submit(OBSERVED, [0.5, -0.2, 0.9])

        result = _run(main())
        direct = _engine().infer_batch(
            OBSERVED, np.asarray([[0.5, -0.2, 0.9]]), duration=5.0
        )
        assert np.array_equal(result.prediction, direct.predictions[0])


class TestWarmAndCaches:
    def test_warm_prefactors_the_observed_set(self):
        engine = _engine()

        async def main():
            async with InferenceServer(engine) as server:
                server.warm(OBSERVED)
                assert engine.cache_size == 1
                misses = engine.cache_misses
                await server.submit(OBSERVED, [0.1, 0.2, 0.3])
                assert engine.cache_misses == misses  # served warm

        _run(main())

    def test_lifecycle_is_restartable(self):
        engine = _engine()

        async def main():
            server = InferenceServer(engine)
            async with server:
                first = await server.submit(OBSERVED, [0.1, 0.2, 0.3])
            async with server:
                second = await server.submit(OBSERVED, [0.1, 0.2, 0.3])
            return first, second

        first, second = _run(main())
        assert first.status == second.status == STATUS_OK
        assert np.array_equal(first.prediction, second.prediction)

    def test_double_start_raises(self):
        async def main():
            async with InferenceServer(_engine()) as server:
                with pytest.raises(RuntimeError, match="already started"):
                    server.start()

        _run(main())


class TestServeObservability:
    def test_metrics_and_spans_recorded(self):
        config = ServeConfig(batch_window_ms=10.0, max_queue=2)

        async def main():
            async with InferenceServer(_engine(), config) as server:
                futures = [
                    server.submit(OBSERVED, [0.1 * i, 0.0, 0.2])
                    for i in range(4)  # 2 admitted, 2 shed
                ]
                return await asyncio.gather(*futures)

        with obs.observe() as (registry, _tracer):
            _run(main())
            snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["serve.requests"] == 4
        assert counters["serve.shed"] == 2
        assert counters["serve.samples"] == 2
        assert counters["serve.batches"] == 1
        assert "serve.batch_size" in snapshot["histograms"]
        assert "serve.request_latency_ms" in snapshot["histograms"]

    def test_request_spans_parent_onto_batch_span(self, tmp_path):
        trace_path = tmp_path / "serve.jsonl"
        config = ServeConfig(batch_window_ms=10.0)

        async def main():
            async with InferenceServer(_engine(), config) as server:
                futures = [
                    server.submit(OBSERVED, [0.1 * i, 0.0, 0.2])
                    for i in range(3)
                ]
                return await asyncio.gather(*futures)

        with obs.observe(trace_path=trace_path):
            _run(main())
        records = obs.read_trace(trace_path)
        spans = [r for r in records if r.get("kind") == "span"]
        batches = [s for s in spans if s["name"] == "serve.batch"]
        requests = [s for s in spans if s["name"] == "serve.request"]
        assert len(batches) == 1
        assert len(requests) == 3
        batch_id = batches[0]["span_id"]
        assert all(r["parent_id"] == batch_id for r in requests)
        assert all(r["duration_ms"] > 0 for r in requests)
        assert all(
            r["attributes"]["queued_ms"] >= 0 for r in requests
        )
