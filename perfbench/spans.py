"""In-memory span recorder for the benchmark's traced runs.

A traced run wraps the public functions of each glbopt layer from outside:
every module attribute that refers to one of them is replaced by a wrapper
that records a span (name, start, end, parent, pass id) and restored when
tracing is switched off.  Spans stay in a list and are written out once, at
exit.  The program itself is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import sys
import time
from collections import defaultdict

# Public functions timed per layer; module name -> attribute names.
LAYER_FUNCTIONS = {
    "instances": (
        "gen_graph", "random_linear_problem", "hjb_grid_problem",
        "speed_planning_problem", "speed_plan_spec_from_csv",
        "save_instance", "load_instance",
    ),
    "linear": (
        "precondition", "selective_update_linear",
        "selective_update_preconditioned", "fixed_point_linear",
    ),
    "lattice": ("fixed_point_solve",),
    "oracle": ("verify_epsilon_solution", "reference_solve"),
    "bench": ("solve_with_method",),
    "cli": ("main",),
}
# Methods of LinearGlbProblem timed as part of the linear layer.
PROBLEM_METHODS = ("__init__", "glb_eval")

GENERATORS = frozenset({
    "instances.gen_graph", "instances.random_linear_problem",
    "instances.hjb_grid_problem", "instances.speed_planning_problem",
})


class Tracer:
    """Span list plus the patch table that routes layer calls through it.

    ``spans`` holds tuples ``(name, start, end, parent_index, pass_id)``;
    a parent index of ``None`` marks a top-level span.
    """

    def __init__(self):
        self.spans: list = []
        self.pass_id = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block while tracing is installed."""
        if not self._patches:
            yield
            return
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, self.pass_id)

    def _wrap(self, name: str, fn):
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Route every glbopt module reference to a layer function through a span."""
        if self._patches:
            return
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "glbopt" or key.startswith("glbopt."))]
        for short, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"glbopt.{short}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{short}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)
        cls = sys.modules["glbopt.linear"].LinearGlbProblem
        for attr in PROBLEM_METHODS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"linear.LinearGlbProblem.{attr}", original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        done = [s for s in self.spans if s is not None]
        origin = done[0][1] if done else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, span in enumerate(self.spans):
                if span is None:
                    continue
                name, t0, t1, parent, pass_id = span
                fh.write(json.dumps({
                    "id": idx, "name": name, "start": t0 - origin, "end": t1 - origin,
                    "parent": parent, "pass": pass_id,
                }) + "\n")


class GcClock:
    """Time spent in cyclic garbage collection while ``running`` is set."""

    def __init__(self):
        self.running = False
        self.seconds = 0.0
        self.collections = 0
        self._t0 = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info):
        if not self.running:
            return
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0
            self.collections += 1

    def reset(self) -> None:
        self.seconds = 0.0
        self.collections = 0


class SpanView:
    """Per-pass queries over a finished span list."""

    def __init__(self, spans, pass_id):
        self.index = {i: s for i, s in enumerate(spans) if s is not None and s[4] == pass_id}
        self.children = defaultdict(list)
        for i, s in self.index.items():
            if s[3] is not None:
                self.children[s[3]].append(i)

    def duration(self, i) -> float:
        s = self.index[i]
        return s[2] - s[1]

    def self_time(self, i) -> float:
        return self.duration(i) - sum(self.duration(c) for c in self.children[i])

    def under(self, stage: str):
        """Indices of all spans below the span(s) named ``stage``."""
        out = []
        todo = self.stage_ids(stage)
        while todo:
            i = todo.pop()
            kids = self.children[i]
            out.extend(kids)
            todo.extend(kids)
        return out

    def stage_ids(self, stage: str):
        return [i for i, s in self.index.items() if s[0] == stage]

    def total(self, names, within=None) -> float:
        """Summed duration of the spans named in ``names``."""
        pool = self.index if within is None else self.under(within)
        return sum(self.duration(i) for i in pool if self.index[i][0] in names)

    def count(self, name, within=None) -> int:
        pool = self.index if within is None else self.under(within)
        return sum(1 for i in pool if self.index[i][0] == name)

    def outermost(self, modules, within) -> float:
        """Summed duration of the spans of ``modules`` below ``within`` that
        have no ancestor span of ``modules``."""
        def inside(i):
            return self.index[i][0].split(".", 1)[0] in modules

        total = 0.0
        todo = list(self.stage_ids(within))
        while todo:
            for c in self.children[todo.pop()]:
                if inside(c):
                    total += self.duration(c)
                else:
                    todo.append(c)
        return total

    def self_by_module(self, within) -> dict[str, float]:
        """Self time per layer: the module prefix of each span's name."""
        out: dict[str, float] = defaultdict(float)
        for i in self.under(within):
            out[self.index[i][0].split(".", 1)[0]] += self.self_time(i)
        return out
