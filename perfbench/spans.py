"""Spans recorded around calls into each layer, and their Chrome export.

A span has a name (``<layer>.<function>``), a start, an end and the span
that encloses it; spans of one operation share its ``op`` id.  Spans stay
in memory and are written once, when the traced run ends, as Chrome
trace-event JSON (loads at ui.perfetto.dev and chrome://tracing).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    args: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder (the benchmark runs one client)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()
        self.op: int | None = None

    @contextmanager
    def span(self, name: str, **args):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), parent=parent, op=self.op, args=args)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def self_seconds(self, index: int) -> float:
        """The span's duration minus the time its child spans cover."""
        children = sum(
            s.seconds for s in self.spans if s.parent == index
        )
        return self.spans[index].seconds - children

    def per_op(self, name: str) -> dict[int, float]:
        """Total seconds of spans called ``name``, per op id."""
        out: dict[int, float] = {}
        for s in self.spans:
            if s.name == name and s.op is not None:
                out[s.op] = out.get(s.op, 0.0) + s.seconds
        return out

    def table(self) -> list[tuple[str, int, float, float]]:
        """``(name, calls, total_s, self_s)`` per span name, in first-seen order."""
        rows: dict[str, list] = {}
        for i, s in enumerate(self.spans):
            row = rows.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.seconds
            row[2] += self.self_seconds(i)
        return [(name, r[0], r[1], r[2]) for name, r in rows.items()]

    def chrome_events(self) -> dict:
        pid = os.getpid()
        events = []
        for i, s in enumerate(self.spans):
            args = {"span_id": i, "parent_id": s.parent, "op": s.op}
            if s.parent is not None:
                args["parent"] = self.spans[s.parent].name
            args.update({k: v for k, v in s.args.items() if _jsonable(v)})
            events.append({
                "name": s.name,
                "cat": s.name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (s.start - self._origin) * 1e6,
                "dur": s.seconds * 1e6,
                "pid": pid,
                "tid": 1,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_events()))
        return path


def _jsonable(value) -> bool:
    return isinstance(value, (str, int, float, bool)) or value is None
