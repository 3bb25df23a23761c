"""In-memory spans recorded by the benchmark around calls into engagekit.

A span has a name, the layer (engagekit module) it belongs to, a start, an
end, its parent span and the op it serves. Calls made once per timeline step
are too many to keep one by one, so they are folded: the tracer keeps their
count and total time under their parent span instead. Nothing is written
until :meth:`Tracer.write` is called at the end of a run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    op_id: int
    name: str
    layer: str
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        # (op_id, parent span_id, name, layer) -> [count, total seconds]
        self.folded: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self._stack: list[Span] = []
        self.op_id = 0

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self.op_id, name, layer, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def fold(self, name: str, layer: str, seconds: float) -> None:
        """Add one call of a per-step span to its parent's running total."""
        entry = self.folded[(self.op_id, self._stack[-1].span_id, name, layer)]
        entry[0] += 1
        entry[1] += seconds

    def total(self, name: str) -> tuple[int, float]:
        """Count and total seconds of every span (kept or folded) named name."""
        count, seconds = 0, 0.0
        for s in self.spans:
            if s.name == name:
                count += 1
                seconds += s.seconds
        for (_, _, fname, _), (n, t) in self.folded.items():
            if fname == name:
                count += n
                seconds += t
        return count, seconds

    def self_seconds(self) -> dict[str, float]:
        """Per layer: time inside its spans not covered by child spans."""
        covered: dict[int, float] = defaultdict(float)
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.parent_id is not None:
                covered[s.parent_id] += s.seconds
        for (_, parent, _, layer), (_, seconds) in self.folded.items():
            covered[parent] += seconds
            out[layer] += seconds
        for s in self.spans:
            out[s.layer] += s.seconds - covered[s.span_id]
        return dict(out)

    def write(self, handle) -> None:
        """Write every span, then every folded span, one JSON object a line."""
        for s in self.spans:
            handle.write(json.dumps({"workload": self.workload, **asdict(s)}) + "\n")
        for (op_id, parent, name, layer), (count, seconds) in self.folded.items():
            handle.write(json.dumps({
                "workload": self.workload, "op_id": op_id, "parent_id": parent,
                "name": name, "layer": layer, "folded_count": count,
                "folded_seconds": seconds,
            }) + "\n")
