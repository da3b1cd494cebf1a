"""Dynamic-batching asyncio inference server over the annealing engine.

The DS-GL pitch is throughput — the DSPU answers queries as fast as the
physics settles — so the natural deployment shape is a service: many
independent single-sample requests arriving concurrently, coalesced into
the batched engine paths (:meth:`NaturalAnnealingEngine.infer_batch` /
:meth:`~NaturalAnnealingEngine.infer_equilibrium_batch`) where every
integration step or LU back-substitution is shared across the batch.

:class:`InferenceServer` is that service in stdlib ``asyncio``:

* **Dynamic batching** — the first queued request opens a *batch window*
  (:attr:`ServeConfig.batch_window_ms`); requests arriving inside the
  window coalesce into one batch, capped at
  :attr:`ServeConfig.max_batch_size`.  A window of ``0`` degenerates to
  take-what-is-queued, and ``max_batch_size=1`` degenerates to serial
  serving — the baseline the SLO benchmark compares against.
* **Fingerprint grouping** — a batch must share one reduced linear
  system, so requests coalesce only when they agree on the *problem
  key*: the engine's :meth:`~NaturalAnnealingEngine.problem_key`
  (model-version counter + content hash) plus the observed-index set.
  Mixed clamp sets interleave as separate batches; the engine's
  LRU-bounded factorization cache keeps each group's LU warm across
  batches.  A streaming delta applied mid-traffic
  (:meth:`InferenceServer.apply_delta`) bumps the model version, so
  requests admitted before and after the delta land in distinct groups
  and never mix stale and fresh factorizations.
* **Admission control + backpressure** — the queue is bounded at
  :attr:`ServeConfig.max_queue`; requests beyond it are *shed*
  immediately with the distinct :data:`STATUS_SHED` status instead of
  growing an unbounded backlog (counted in ``serve.shed``).
* **Graceful shutdown** — :meth:`InferenceServer.shutdown` drains (or,
  with ``drain=False``, cancels) queued work; every request that will
  never execute resolves with :data:`STATUS_SHUTDOWN` rather than a
  hang, and a ``KeyboardInterrupt``/``SystemExit`` that lands mid-batch
  fails the in-flight and queued requests the same way.

Execution runs inline in the batcher task rather than on a thread pool:
the obs :class:`~repro.obs.trace.Tracer` keeps one span stack, and the
engine's caches are not thread-safe.  Single-sample latency is dominated
by batched solve time anyway, and the open-loop traffic generator
measures latency from *scheduled* arrival times, so a blocked event loop
shows up as queueing delay instead of being silently absorbed
(coordinated-omission-safe; see :mod:`repro.serve.traffic`).

Observability: ``serve.requests`` / ``serve.samples`` / ``serve.shed`` /
``serve.batches`` / ``serve.failed`` counters, the ``serve.queue_depth``
gauge, ``serve.batch_size`` and ``serve.request_latency_ms`` histograms,
the ``serve.batch_ms`` timer, one ``serve.batch`` span per executed
batch and one after-the-fact ``serve.request`` span per request,
parented onto its batch span (:meth:`~repro.obs.trace.Tracer.
record_span`).
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.inference import (
    DEFAULT_CACHE_CAPACITY,
    NaturalAnnealingEngine,
)

__all__ = [
    "STATUS_OK",
    "STATUS_SHED",
    "STATUS_SHUTDOWN",
    "STATUS_FAILED",
    "ServeConfig",
    "ServeResult",
    "InferenceServer",
]

logger = logging.getLogger("repro.serve")

#: Request served; ``prediction`` holds the free-node values.
STATUS_OK = "ok"
#: Request rejected at admission: the bounded queue was full.
STATUS_SHED = "shed"
#: Request accepted but never executed: the server shut down first (or
#: the batch it rode was interrupted mid-flight).
STATUS_SHUTDOWN = "shutdown"
#: The batch this request rode raised; ``error`` carries the message.
STATUS_FAILED = "failed"

_MODES = ("equilibrium", "circuit")


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of one :class:`InferenceServer`.

    Attributes:
        batch_window_ms: How long the batcher holds the first queued
            request open for coalescing before executing.  ``0`` takes
            whatever is queued immediately (lowest latency floor, least
            batching).
        max_batch_size: Hard cap on coalesced batch size; ``1`` is the
            serial-serving baseline.
        max_queue: Admission bound — requests arriving while this many
            are queued are shed with :data:`STATUS_SHED`.
        mode: ``"equilibrium"`` (algebraic fixed point — the production
            fast path) or ``"circuit"`` (full annealing integration).
        duration_ns: Circuit-mode annealing time per batch.
        drain_on_shutdown: Whether :meth:`InferenceServer.shutdown`
            executes queued batches before exiting (``True``) or fails
            them with :data:`STATUS_SHUTDOWN` (``False``).
    """

    batch_window_ms: float = 2.0
    max_batch_size: int = 64
    max_queue: int = 256
    mode: str = "equilibrium"
    duration_ns: float = 50.0
    drain_on_shutdown: bool = True

    def __post_init__(self) -> None:
        if self.batch_window_ms < 0:
            raise ValueError(
                f"batch_window_ms must be >= 0, got {self.batch_window_ms}"
            )
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.mode not in _MODES:
            raise ValueError(
                f"mode must be one of {_MODES}, got {self.mode!r}"
            )


@dataclass
class ServeResult:
    """Terminal outcome of one submitted request.

    Attributes:
        status: One of :data:`STATUS_OK` / :data:`STATUS_SHED` /
            :data:`STATUS_SHUTDOWN` / :data:`STATUS_FAILED`.
        prediction: Denormalized free-node values (``None`` unless ok).
        batch_size: Size of the coalesced batch this request rode.
        queued_ms: Wall time from admission to batch execution start.
        service_ms: Batch execution wall time.
        latency_ms: ``queued_ms + service_ms`` — admission to completion.
        error: Failure message when ``status == "failed"``.
    """

    status: str
    prediction: np.ndarray | None = None
    batch_size: int = 0
    queued_ms: float = 0.0
    service_ms: float = 0.0
    latency_ms: float = 0.0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class _Pending:
    """One admitted request waiting in the batcher queue."""

    group: tuple
    observed_index: np.ndarray
    observed_values: np.ndarray
    future: asyncio.Future
    admitted_at: float = field(default_factory=time.perf_counter)


class InferenceServer:
    """Coalesces single inference requests into dynamic engine batches.

    Use as an async context manager (starts the batcher task on entry,
    drains and stops it on exit)::

        engine = NaturalAnnealingEngine(model=model, backend="sparse")
        async with InferenceServer(engine, ServeConfig()) as server:
            result = await server.submit(observed_index, observed_values)

    or drive the lifecycle explicitly with :meth:`start` /
    :meth:`shutdown`.
    """

    def __init__(
        self,
        engine: NaturalAnnealingEngine,
        config: ServeConfig | None = None,
    ):
        self.engine = engine
        self.config = config or ServeConfig()
        self._queue: deque[_Pending] = deque()
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._closing = False
        self._drain = self.config.drain_on_shutdown
        #: Admission / execution tallies, mirrored into obs counters.
        self.stats = {
            "submitted": 0,
            "completed": 0,
            "shed": 0,
            "shutdown": 0,
            "failed": 0,
            "batches": 0,
            "empty_ticks": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InferenceServer":
        """Start the batcher task on the running event loop."""
        if self._task is not None:
            raise RuntimeError("server already started")
        self._closing = False
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="repro-serve-batcher"
        )
        return self

    async def __aenter__(self) -> "InferenceServer":
        return self.start()

    async def __aexit__(self, *exc) -> None:
        await self.shutdown()

    async def shutdown(self, drain: bool | None = None) -> None:
        """Stop the batcher, resolving every queued request.

        Args:
            drain: Execute queued batches before stopping (defaults to
                :attr:`ServeConfig.drain_on_shutdown`).  With ``False``
                every queued request resolves immediately with
                :data:`STATUS_SHUTDOWN`.
        """
        if drain is not None:
            self._drain = drain
        self._closing = True
        self._wake.set()
        if self._task is not None:
            try:
                await self._task
            except (KeyboardInterrupt, SystemExit):  # pragma: no cover
                raise
            except asyncio.CancelledError:
                pass
            finally:
                self._task = None
        # Whatever the batcher left behind (drain=False, interrupt, or
        # requests admitted after the loop exited) resolves cleanly.
        self._fail_queued(STATUS_SHUTDOWN)

    def request_shutdown(self) -> None:
        """Signal-handler-safe shutdown trigger (sync, non-blocking)."""
        self._closing = True
        self._wake.set()

    @property
    def closing(self) -> bool:
        return self._closing

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def warm(self, observed_index: np.ndarray) -> None:
        """Pre-build the caches one clamp set will hit.

        Factors the reduced system for ``observed_index`` (equilibrium
        mode) or builds the coupling operator (circuit mode) before
        traffic arrives, so the first request of a group pays a warm
        back-substitution instead of a cold factorization.
        """
        observed_index = self._as_index(observed_index)
        if self.config.mode == "equilibrium":
            self.engine.infer_equilibrium_batch(
                observed_index, np.zeros((1, observed_index.size))
            )
        else:
            self.engine.operator  # noqa: B018 - builds and caches

    def submit(
        self,
        observed_index: np.ndarray,
        observed_values: np.ndarray,
    ) -> "asyncio.Future[ServeResult]":
        """Admit one request; resolves to its :class:`ServeResult`.

        Shed and shutdown rejections resolve immediately (already done
        by the time this returns); admitted requests resolve when their
        batch executes.  Never raises for load or lifecycle reasons —
        the status field is the contract.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self.stats["submitted"] += 1
        obs.metrics().counter("serve.requests").inc()
        if self._closing:
            self.stats["shutdown"] += 1
            future.set_result(ServeResult(status=STATUS_SHUTDOWN))
            return future
        if len(self._queue) >= self.config.max_queue:
            self.stats["shed"] += 1
            obs.metrics().counter("serve.shed").inc()
            future.set_result(ServeResult(status=STATUS_SHED))
            return future
        observed_index = self._as_index(observed_index)
        observed_values = np.asarray(
            observed_values, dtype=float
        ).reshape(-1)
        if observed_values.size != observed_index.size:
            raise ValueError(
                "observed_values length must match observed_index "
                f"({observed_values.size} != {observed_index.size})"
            )
        group = (
            self.engine.problem_key(),
            observed_index.size,
            observed_index.tobytes(),
        )
        self._queue.append(
            _Pending(group, observed_index, observed_values, future)
        )
        obs.metrics().gauge("serve.queue_depth").set(len(self._queue))
        self._wake.set()
        return future

    @staticmethod
    def _as_index(observed_index: np.ndarray) -> np.ndarray:
        return np.asarray(observed_index, dtype=int).reshape(-1)

    def apply_delta(self, delta) -> None:
        """Fold a streaming :class:`~repro.stream.deltas.GraphDelta` in.

        Delegates to :meth:`NaturalAnnealingEngine.apply_delta` (cached
        factorizations update incrementally where possible) and bumps
        the engine's model version, so requests admitted afterwards form
        a new batch group — queued pre-delta requests keep their old
        group key and are never coalesced with post-delta arrivals.
        Execution is inline on the event loop, so a delta applied
        between awaits never races a batch in flight.
        """
        self.engine.apply_delta(delta)
        obs.metrics().counter("serve.deltas").inc()

    # ------------------------------------------------------------------
    # Batcher
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        try:
            while True:
                if not self._queue:
                    if self._closing:
                        break
                    self._wake.clear()
                    await self._wake.wait()
                    continue
                if self._closing and not self._drain:
                    break
                if self.config.batch_window_ms > 0 and not self._closing:
                    # Hold the window open so concurrent arrivals
                    # coalesce; during drain we flush without waiting.
                    await asyncio.sleep(self.config.batch_window_ms / 1000.0)
                batch = self._take_batch()
                if not batch:
                    # Window expired with nothing executable (all shed
                    # or drained meanwhile) — a harmless empty tick.
                    self.stats["empty_ticks"] += 1
                    continue
                self._execute(batch)
        except (KeyboardInterrupt, SystemExit, asyncio.CancelledError):
            logger.warning(
                "serve batcher interrupted; failing %d queued request(s) "
                "with shutdown status", len(self._queue),
            )
            self._closing = True
            raise
        finally:
            self._fail_queued(STATUS_SHUTDOWN)

    def _take_batch(self) -> list[_Pending]:
        """Dequeue up to ``max_batch_size`` requests sharing one group.

        The head request defines the problem fingerprint; later queued
        requests with the same fingerprint coalesce with it (preserving
        arrival order), others stay queued for the next tick.
        """
        if not self._queue:
            return []
        head_group = self._queue[0].group
        batch: list[_Pending] = []
        leftovers: deque[_Pending] = deque()
        while self._queue:
            pending = self._queue.popleft()
            if (
                pending.group == head_group
                and len(batch) < self.config.max_batch_size
            ):
                batch.append(pending)
            else:
                leftovers.append(pending)
        self._queue = leftovers
        obs.metrics().gauge("serve.queue_depth").set(len(self._queue))
        if leftovers:
            # More work is already queued — skip straight to the next
            # tick instead of sleeping another window.
            self._wake.set()
        return batch

    def _execute(self, batch: list[_Pending]) -> None:
        """Run one coalesced batch inline and resolve its futures."""
        config = self.config
        index = batch[0].observed_index
        values = np.stack([pending.observed_values for pending in batch])
        started = time.perf_counter()
        try:
            with obs.tracer().span(
                "serve.batch",
                batch=len(batch),
                mode=config.mode,
                num_observed=int(index.size),
            ) as batch_span:
                with obs.metrics().timer("serve.batch_ms"):
                    if config.mode == "equilibrium":
                        predictions = self.engine.infer_equilibrium_batch(
                            index, values
                        )
                    else:
                        predictions = self.engine.infer_batch(
                            index, values, duration=config.duration_ns
                        ).predictions
        except (KeyboardInterrupt, SystemExit, asyncio.CancelledError):
            # Interrupted mid-flight: the batch never completed, so its
            # requests end with the clean shutdown status, not a hang.
            self._resolve_all(batch, ServeResult(status=STATUS_SHUTDOWN))
            self.stats["shutdown"] += len(batch)
            raise
        except Exception as error:
            logger.exception("serve batch of %d failed", len(batch))
            self.stats["failed"] += len(batch)
            obs.metrics().counter("serve.failed").inc(len(batch))
            self._resolve_all(
                batch,
                ServeResult(status=STATUS_FAILED, error=str(error)),
            )
            return
        finished = time.perf_counter()
        service_ms = (finished - started) * 1000.0
        self.stats["batches"] += 1
        self.stats["completed"] += len(batch)
        metrics = obs.metrics()
        metrics.counter("serve.batches").inc()
        metrics.counter("serve.samples").inc(len(batch))
        metrics.histogram("serve.batch_size").observe(len(batch))
        tracer = obs.tracer()
        trace_now = tracer.now_ms() if tracer.enabled else 0.0
        for position, pending in enumerate(batch):
            queued_ms = (started - pending.admitted_at) * 1000.0
            latency_ms = (finished - pending.admitted_at) * 1000.0
            metrics.histogram("serve.request_latency_ms").observe(latency_ms)
            if tracer.enabled:
                # Requests overlap each other and their batch, so they
                # are recorded after the fact, parented onto the batch
                # span, with start rebased onto the tracer clock.
                tracer.record_span(
                    "serve.request",
                    start_ms=trace_now
                    - (finished - pending.admitted_at) * 1000.0,
                    duration_ms=latency_ms,
                    parent_id=batch_span.span_id,
                    batch=len(batch),
                    queued_ms=queued_ms,
                )
            if not pending.future.done():
                pending.future.set_result(
                    ServeResult(
                        status=STATUS_OK,
                        prediction=predictions[position],
                        batch_size=len(batch),
                        queued_ms=queued_ms,
                        service_ms=service_ms,
                        latency_ms=latency_ms,
                    )
                )

    # ------------------------------------------------------------------
    def _resolve_all(
        self, batch: list[_Pending], result: ServeResult
    ) -> None:
        for pending in batch:
            if not pending.future.done():
                pending.future.set_result(result)

    def _fail_queued(self, status: str) -> None:
        while self._queue:
            pending = self._queue.popleft()
            if not pending.future.done():
                self.stats["shutdown"] += 1
                pending.future.set_result(ServeResult(status=status))
        obs.metrics().gauge("serve.queue_depth").set(0)
