"""In-memory span recorder for the benchmark's traced run.

A span is (name, start, end, parent). Spans come from two places, both in
the benchmark's own files: `span()` around the benchmark's calls into
sedopt, and `wrap()`, which replaces a function at the module attribute
its callers look up, so calls made inside sedopt are recorded too. The
library source is never edited. Everything runs in one thread, so spans
nest strictly and a stack gives each span its parent.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Record a span for every call through `module.attr`.

        `on_result(counts, result)` runs after the span closes, so the
        counting it does is charged to the caller, not to the callee.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        setattr(module, attr, traced)
        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Children of one parent never overlap (one thread), so this is the
        part of the span's interval that no child covers.
        """
        own = self.durations()
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def check_nesting(self) -> tuple[bool, str]:
        """Whether every span is closed and lies inside its parent.

        Only then do the self times partition the root span, with none
        negative, and account for its duration.
        """
        own = self.self_times()
        bad = {idx for idx, parent in enumerate(self.parents)
               if self.ends[idx] < self.starts[idx] or own[idx] < 0.0
               or parent >= 0 and not (self.starts[parent] <= self.starts[idx]
                                       and self.ends[idx] <= self.ends[parent])}
        return not bad, (f"{len(self.names)} spans, min self time {min(own):.1e} s, "
                         f"{len(bad)} open, outside their parent or with negative self time"
                         + (f": {sorted({self.names[idx] for idx in bad})}" if bad else ""))

    def self_by_name(self) -> Counter:
        totals: Counter = Counter()
        for name, own in zip(self.names, self.self_times()):
            totals[name] += own
        return totals

    def dump(self, path) -> None:
        origin = self.starts[0] if self.starts else 0.0
        spans = [
            [name, start - origin, end - origin, parent]
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": spans}, fh)
