"""In-memory spans around the benchmark's calls into each cbsdecode layer.

A span is (name, start, end, parent, op). Spans of one operation (one decode
input, one training call, one set-up) share the op id. Wrappers go around
module functions the benchmark calls and, as instance attributes, around the
scorer methods the library calls back (`step`, `initial_state`,
`gradients`, `sequence_loss`), so nothing in the library is edited.

Self time is a span's duration minus its children's durations; children of
one span never overlap because everything runs on one thread.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, keep_ops: int = 0):
        self.keep_ops = keep_ops  # spans of the first `keep_ops` ops are written out
        self.kept: list[tuple] = []
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self.ops = 0
        self.last_op_s = 0.0  # duration of the root span of the last op
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def wrap(self, fn, name: str):
        # a plain closure, not a context manager: it runs for each of the
        # hundreds of scorer steps in one decode
        spans, stack = self._spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self._op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    @contextmanager
    def op(self, op_id, root: str):
        """Trace one operation: everything inside becomes a span tree under
        a root span `root`; its self times are folded into the totals when
        it ends."""
        self._op = op_id
        self._spans.append([root, perf_counter(), 0.0, -1, op_id])
        self._stack.append(0)
        try:
            yield
        finally:
            self._stack.clear()
            self._spans[0][2] = perf_counter()
            self._fold()
            self._op = None

    @contextmanager
    def instance_wrapped(self, obj, names: dict[str, str]):
        """Shadow methods of `obj` with traced instance attributes while the
        block runs; {method: span name}."""
        for attr, span_name in names.items():
            setattr(obj, attr, self.wrap(getattr(obj, attr), span_name))
        try:
            yield
        finally:
            for attr in names:
                delattr(obj, attr)

    def _fold(self) -> None:
        spans = self._spans
        self.last_op_s = spans[0][2] - spans[0][1]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            self.total_s[name] += end - start
            self.self_s[name] += end - start - child_s[i]
            self.calls[name] += 1
        if self.ops < self.keep_ops:
            base = len(self.kept)
            self.kept.extend(
                (name, start, end, parent + base if parent >= 0 else -1, op)
                for name, start, end, parent, op in spans
            )
        self.ops += 1
        spans.clear()

    def write(self, path: Path) -> None:
        """One JSON object per kept span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.kept):
                fh.write(json.dumps({"i": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
