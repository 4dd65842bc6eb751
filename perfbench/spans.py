"""Outside-in spans for the traced run.

The program under test has no spans of its own around most layers, so
the benchmark records them from outside: :meth:`Tracer.wrap` replaces a
public function (a module attribute or a class method) with a wrapper
that records one span per call.  Spans are kept in memory and written
out once, at the end of the run.  Nothing is patched in an untraced run.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from collections import defaultdict


class Tracer:
    """Spans (name, start, end, parent, round) plus Python GC time."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.round = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0: float | None = None

    # -- spans ------------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.round))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        name, t0, _, parent, rnd = self.spans[idx]
        self.spans[idx] = (name, t0, time.perf_counter(), parent, rnd)
        self._stack.pop()

    def call(self, name: str, fn):
        """``(seconds, result)`` of ``fn()``, recorded as one span."""
        idx = self.begin(name)
        try:
            result = fn()
        finally:
            self.end(idx)
        _, t0, t1, _, _ = self.spans[idx]
        return t1 - t0, result

    # -- patching ---------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, generator: bool = False) -> None:
        """Record a span around every call of ``owner.attr``.

        With ``generator`` each step of the returned generator is one
        span, so the consumer's work between steps is not counted.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        if generator:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                steps = original(*args, **kwargs)
                while True:
                    idx = tracer.begin(name)
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(idx)
                    yield item
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                idx = tracer.begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.end(idx)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- garbage collector ------------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        """Count collections that run inside a span: those the program's
        own allocations trigger, not the benchmark's ``gc.collect()``
        between operations."""
        if phase == "start":
            self._gc_t0 = time.perf_counter() if self._stack else None
        elif self._gc_t0 is not None:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- results ----------------------------------------------------------
    def self_times(self) -> dict[str, dict[int, float]]:
        """Per span name, the self time of each round that ran it.

        A span's self time is its duration minus the durations of its
        direct children (children never outlive their parent here: all
        spans of one call stack nest).
        """
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        per_round: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, t0, t1, _, rnd) in enumerate(self.spans):
            per_round[name][rnd] += (t1 - t0) - child_time[i]
        return {name: dict(rounds) for name, rounds in per_round.items()}

    def dump(self, path) -> None:
        rows = [
            {"name": n, "start": t0, "end": t1, "parent": p, "round": r}
            for n, t0, t1, p, r in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "gc_s": self.gc_s,
                       "gc_collections": self.gc_collections}, fh)
