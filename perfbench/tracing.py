"""In-memory span tracer that wraps public functions at their call sites.

The benchmark never edits the package.  It replaces module attributes (for
example ``mfgcommute.cli.fictitious_play``) with timing wrappers, so a span
starts and ends exactly where the calling module sees the function.  Two
kinds of wrapper exist:

* ``span``: records one span per call (name, start, end, parent);
* ``leaf``: for hot functions called thousands of times per solve
  (``forward_step``, ``path_costs``); each call adds its count and duration
  to the enclosing span instead of creating a span of its own.

Self time of a span is its duration minus its child spans and leaf calls
(a leaf called inside another leaf counts once, in the outer one).  Spans
stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "leaves", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child_s = 0.0
        self.leaves = {}  # leaf name -> [calls, seconds]
        self.info = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects spans and leaf counters; restores every patch on ``close``.

    ``clock`` returns seconds; the runner passes one that stops while the
    speed sampler runs, so no span or leaf includes the sampler's time.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._leaf_depth = 0
        self._clock = clock
        self.enabled = False

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._clock(), parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span.end = self._clock()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    @contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        if not self.enabled:
            yield None
            return
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _leaf(self, name, seconds):
        if not self._stack:
            return
        parent = self.spans[self._stack[-1]]
        entry = parent.leaves.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds
        if self._leaf_depth == 0:
            parent.child_s += seconds

    # -- patching ----------------------------------------------------------

    def wrap(self, module, attr, leaf=False, on_return=None):
        """Replace ``module.attr`` by a timing wrapper named ``<module>.<attr>``.

        ``on_return(span, args, result)`` may attach facts about the call
        (iterations run, bytes written) to the span's ``info``.
        """
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        if leaf:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                tracer._leaf_depth += 1
                t0 = tracer._clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._leaf_depth -= 1
                    tracer._leaf(name, tracer._clock() - t0)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                span = tracer._open(name)
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    span.info["raised"] = 1
                    raise
                finally:
                    tracer._close(span)
                if on_return is not None:
                    on_return(span, args, result)
                return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def close(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self.enabled = False

    # -- derived numbers ---------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; spans from a mark on belong to one repetition."""
        return len(self.spans)

    def totals(self, start=0):
        """Per-name calls, seconds, self seconds and summed ``info`` since ``start``.

        Leaf counters are folded in under their leaf name.  Nested spans of
        the same name (recursion) would be double counted in ``seconds``;
        the package has none.
        """
        out = defaultdict(lambda: {"calls": 0, "seconds": 0.0, "self_s": 0.0, "info": {}})
        for span in self.spans[start:]:
            entry = out[span.name]
            entry["calls"] += 1
            entry["seconds"] += span.duration
            entry["self_s"] += span.self_s
            for key, value in span.info.items():
                entry["info"][key] = entry["info"].get(key, 0) + value
            for leaf, (calls, seconds) in span.leaves.items():
                lentry = out[leaf]
                lentry["calls"] += calls
                lentry["seconds"] += seconds
                lentry["self_s"] += seconds
        return dict(out)

    def dump(self, path: Path, meta: dict):
        """Write every span, with parent index and self time, as JSON."""
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "self_s": s.self_s,
                "leaves": {k: {"calls": c, "seconds": t} for k, (c, t) in s.leaves.items()},
                "info": s.info,
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": rows}, indent=1) + "\n")
