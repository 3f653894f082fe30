"""In-memory spans around the benchmark's own calls into optevo.

Nothing here reaches inside the package: a span brackets one call the
benchmark makes into a layer's public function. Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; ``op`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed block as one span; ``attrs`` are counts."""
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, 0.0, 0.0, parent, self.op, dict(attrs))
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def measure_memory(self, name: str, fn) -> None:
        """Run ``fn`` under tracemalloc, outside every op, and keep its peak.

        tracemalloc slows each allocation, so the call is a separate probe
        whose span records only ``peak_traced_mb``, never a layer time.
        """
        tracemalloc.start()
        try:
            start = time.perf_counter()
            fn()
            end = time.perf_counter()
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        self.spans.append(Span(name, start, end, None, None, {"peak_traced_mb": peak}))

    def dump(self, path: str) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [dict(asdict(sp), self_s=s) for sp, s in zip(self.spans, selfs)], fh
            )


class NullTracer:
    """Stand-in for untraced runs: spans cost one context-manager entry."""

    op = None

    def __init__(self) -> None:
        self._null = contextlib.nullcontext(Span("", 0.0, 0.0, None, None))

    def span(self, name: str, **attrs):
        return self._null


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = []
    for i, sp in enumerate(spans):
        pieces = sorted(
            (max(c.start, sp.start), min(c.end, sp.end)) for c in children.get(i, ())
        )
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in pieces:
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((sp.end - sp.start) - covered)
    return out
