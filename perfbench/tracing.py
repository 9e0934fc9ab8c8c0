"""In-memory spans around calls into citegen's public functions.

A Tracer replaces module attributes with wrappers that record one span per
call: name, start, end, the index of the enclosing span and a size (how much
work the call was given, e.g. the number of texts). Module functions look
their callees up in module globals at call time, so wrapping
``citegen.fid.encode_blocks`` also catches the call ``generate`` makes to it.
Nothing is written until ``dump`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []  # name, start, end, parent (index or -1), size
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, size: int = 1):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "size": size}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name=None, size=None) -> None:
        """Route ``module.attr`` through a span. ``name`` may be a string or a
        function of (args, kwargs); ``size`` a function of (args, kwargs)."""
        original = getattr(module, attr)
        label = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = label(args, kwargs) if callable(label) else label
            n = size(args, kwargs) if size is not None else 1
            with self.span(span_name, n):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] >= 0:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def select(self, name: str, parent: str | None = None) -> list[int]:
        return [i for i, s in enumerate(self.spans)
                if s["name"] == name
                and (parent is None or (s["parent"] >= 0
                                        and self.spans[s["parent"]]["name"] == parent))]

    def total(self, name: str, parent: str | None = None, own: bool = False) -> float:
        """Summed seconds (self time with ``own``) of the matching spans."""
        idx = self.select(name, parent)
        if own:
            times = self.self_times()
            return sum(times[i] for i in idx)
        return sum(self.spans[i]["end"] - self.spans[i]["start"] for i in idx)

    def count(self, name: str, parent: str | None = None) -> int:
        return len(self.select(name, parent))

    def size(self, name: str, parent: str | None = None) -> int:
        return sum(self.spans[i]["size"] for i in self.select(name, parent))

    def dump(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        times = self.self_times()
        spans = [dict(s, self=t) for s, t in zip(self.spans, times)]
        path.write_text(json.dumps({**header, "spans": spans}) + "\n", encoding="utf-8")
