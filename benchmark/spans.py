"""In-memory spans recorded around calls into tensormp's layers.

A span has a name (``layer.function``), a start, an end, the index of
its parent span and the command or trial id it belongs to. Spans stay in
memory until the benchmark writes them out at the end of a run. A
layer's self time is its span duration minus the time its child spans
cover.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    ident: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``span`` is a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, ident: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, ident, parent, time.perf_counter()))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        out: dict[str, float] = {}
        for s, child in zip(self.spans, covered):
            out[s.name] = out.get(s.name, 0.0) + s.duration - child
        return out

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.duration for s in self.spans if s.name == name)

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NullTracer:
    """Tracing off: spans cost one shared no-op context manager."""

    _null = contextlib.nullcontext()

    def span(self, name: str, ident: str):
        return self._null
