"""In-memory spans for the traced pass, and the self-time arithmetic.

A span records a name, its start and end, the span that caused it (the
enclosing one) and the op it belongs to.  Spans stay in memory while the
pass runs and are written out once, after it has ended.  The untraced pass
uses :class:`NullTracer`, whose spans cost one attribute lookup.
"""

import contextlib
import json
import time

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every span is the same reusable no-op context."""

    op = -1

    def span(self, name):
        return _NULL_SPAN


class Tracer:
    """Tracing on: records ``[id, parent, name, op, start, end]`` per span."""

    def __init__(self):
        self.op = -1
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        record = [len(self.spans), self._stack[-1] if self._stack else None,
                  name, self.op, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list:
        """``(name, op, self seconds)`` per span: duration minus its children.

        Children of one span run one after another, never overlapping, so
        the part of the interval they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(name, op, end - start - covered[idx])
                for idx, _, name, op, start, end in self.spans]

    def write(self, path, origin: float, header: dict):
        """One JSON line of run context, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for idx, parent, name, op, start, end in self.spans:
                out.write(json.dumps({
                    "id": idx, "parent": parent, "name": name, "op": op,
                    "start_s": start - origin, "end_s": end - origin}) + "\n")
