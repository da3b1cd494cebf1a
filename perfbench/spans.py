"""In-memory spans for the traced benchmark run.

Spans are recorded only from the benchmark's own files: around the calls
the benchmark makes, and around public methods of the program that the
traced run wraps on their classes (the program's own callers stay the
callers).  Nothing here touches ``src/``.

A span is a dict with ``name``, ``start``/``end`` (seconds since the
recorder was created), ``parent`` (id of the enclosing span or ``None``)
and ``request`` (the read or write id, where there is one).  Nested spans
come from one thread that never awaits while a span is open, so children
are disjoint and lie inside their parent, and a span's self time is its
duration minus the sum of its children's.  Request spans of reads are
recorded after the fact (from the scheduled arrival to completion); they
overlap each other and are kept out of the self-time tree.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """Collects spans in memory; :meth:`write` dumps them as JSON."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._epoch = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self._epoch

    @contextmanager
    def span(self, name: str, request: str | None = None, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": self.now(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "request": request,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = self.now()

    def record_async(
        self, name: str, start: float, end: float, request: str, **attrs
    ) -> None:
        """Add an after-the-fact request span (perf_counter endpoints)."""
        self.spans.append({
            "id": len(self.spans),
            "name": name,
            "start": start - self._epoch,
            "end": end - self._epoch,
            "parent": self._stack[-1] if self._stack else None,
            "request": request,
            "async": True,
            **attrs,
        })

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``on_call(record, args, kwargs)``, when given, runs inside the span
        before the call so it can note call inputs on the record.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                if on_call is not None:
                    on_call(record, args, kwargs)
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["end"] is not None]

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_times(self) -> dict[int, float]:
        """Self time of every finished nested span, keyed by span id."""
        own = {
            s["id"]: s["end"] - s["start"]
            for s in self.spans
            if s["end"] is not None and not s.get("async")
        }
        for s in self.spans:
            if s["id"] in own and s["parent"] in own:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def self_total(self, name: str) -> float:
        own = self.self_times()
        return sum(own[s["id"]] for s in self.named(name) if s["id"] in own)

    def subtree_self_sum(self, root_id: int) -> float:
        """Sum of self times over a span and all its nested descendants."""
        own = self.self_times()
        children: dict[int, list[int]] = {}
        for s in self.spans:
            if s["id"] in own and s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s["id"])
        total, todo = 0.0, [root_id]
        while todo:
            node = todo.pop()
            total += own[node]
            todo.extend(children.get(node, ()))
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))
