"""Spans and counters recorded from outside the program.

``Tracer.wrap`` replaces a function in the module namespace where its caller
looks it up (``mipprune.pruning.solve_mip``, ``mipprune.solver.solve_lp``,
...), so the program's source stays untouched.  Each call becomes one span
``(id, parent id, operation id, name, start, end)``; spans of one ``score()``
call share the operation id.  A wrapper may run a hook on the call's
arguments and result to count work; the time a hook takes is subtracted from
every enclosing span, so the per-layer times exclude the tracer's own checks.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.busy_s: dict[str, float] = defaultdict(float)   # span time, hooks excluded
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._hook_s = 0.0
        self._patches: list[tuple] = []

    def wrap(self, module, attr: str, name: str, hook=None) -> None:
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            hooks_before = self._hook_s
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, self.op, name, t0, t1)
                self.busy_s[name] += (t1 - t0) - (self._hook_s - hooks_before)
            if hook is not None:
                hook(self.counts, args, result)
                self._hook_s += time.perf_counter() - t1
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))

    def restore(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def snapshot(self) -> tuple[dict[str, float], dict[str, float]]:
        return dict(self.busy_s), dict(self.counts)

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w", encoding="ascii") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
