"""Span tracing of fsotraj from outside the package.

Every wrapper is installed on a module or class attribute for the duration of
a ``with`` block and restored afterwards, so nothing inside ``src/fsotraj``
changes and untimed code never sees a wrapper.

Two instruments live here:

* ``SolveCensus`` wraps the ``solve`` that ``fsotraj.optimizer`` calls and
  tallies Newton iterations and ``Solution.status`` values. It costs one
  Python call per solve (100 per N=400 plan), so it stays on in the timed
  runs.
* ``Tracer`` records a span (name, start, end, parent) at every layer
  boundary listed in ``_SPAN_PATCHES`` and ``_METHOD_PATCHES``, plus counts
  for the per-slot ``delta_u_coefficients`` calls. Spans stay in memory
  until the run ends; ``layer_table`` turns them into self times.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

import numpy as np

# (module, attribute, span name): functions looked up as module globals at
# call time, so replacing the attribute intercepts every call site.
_SPAN_PATCHES = [
    ("fsotraj.optimizer", "dinkelbach_solve", "optimizer.tradeoff"),
    ("fsotraj.optimizer", "solve", "solver.solve"),
    ("fsotraj.subproblem", "log_anchor", "subproblem.log_anchor"),
    ("fsotraj.mission", "tight_iterate", "mission.tight_iterate"),
    ("fsotraj.mission", "pointing_geometry", "mission.pointing_geometry"),
    ("fsotraj.optimizer", "pointing_geometry", "mission.pointing_geometry"),
    ("fsotraj.optimizer", "hoyt_params", "jitter.hoyt_params"),
    ("fsotraj.optimizer", "quadrature_ergodic_capacity", "channel.quadrature"),
    ("fsotraj.optimizer", "mc_ergodic_capacity", "channel.mc_capacity"),
    ("fsotraj.optimizer", "flight_power", "kinematics.flight_power"),
]

# (module, class, method, span name): methods wrapped on the class itself.
_METHOD_PATCHES = [
    ("fsotraj.subproblem", "Subproblem", "__init__", "subproblem.build"),
    ("fsotraj.convex.program", "Objective", "value", "program.objective"),
    ("fsotraj.convex.program", "Objective", "grad", "program.objective"),
]
_FAMILY_METHODS = {"values": "program.values", "grad_loc": "program.grad_loc", "hess_loc": "program.hess_loc"}

# (module, attribute, count name): per-slot calls counted without a span.
_COUNT_PATCHES = [("fsotraj.mission", "delta_u_coefficients", "linearize.delta_u")]


class _Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class SolveCensus:
    """Newton iterations and statuses of every solve the optimizer makes."""

    def __init__(self):
        self.statuses = Counter()
        self.newton_iters = 0

    @property
    def calls(self) -> int:
        return sum(self.statuses.values())

    @property
    def nonoptimal(self) -> int:
        return self.calls - self.statuses["optimal"]

    def wrap(self, solve):
        @functools.wraps(solve)
        def counted(*args, **kwargs):
            sol = solve(*args, **kwargs)
            self.statuses[sol.status] += 1
            self.newton_iters += sol.iterations
            return sol

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap ``fsotraj.optimizer.solve`` for the ``with`` block."""
        mod = importlib.import_module("fsotraj.optimizer")
        patches = _Patches()
        patches.set(mod, "solve", self.wrap(mod.solve))
        try:
            yield self
        finally:
            patches.restore()


class Tracer:
    """In-memory spans; one open-span stack because the program is serial.

    A span is one list ``[name, parent span or None, start, end]``, added
    with a single append, so a span opened from a signal handler between two
    statements here still nests correctly.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts = Counter()
        self._stack: list[list] = []

    def open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else None, time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield
        finally:
            self.close(span)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    def counting(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self, census: SolveCensus | None = None):
        """Install every span and count wrapper; ``census`` sees each solve."""
        patches = _Patches()
        try:
            for module, attr, name in _SPAN_PATCHES:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
                patches.set(mod, attr, self.wrap(name, fn))
            for module, cls_name, method, name in _METHOD_PATCHES:
                cls = getattr(importlib.import_module(module), cls_name)
                patches.set(cls, method, self.wrap(name, vars(cls)[method]))
            program = importlib.import_module("fsotraj.convex.program")
            for cls in vars(program).values():
                if isinstance(cls, type) and issubclass(cls, program._Family):
                    for method, name in _FAMILY_METHODS.items():
                        if method in vars(cls):
                            patches.set(cls, method, self.wrap(name, vars(cls)[method]))
            solver = importlib.import_module("fsotraj.convex.solver")
            patches.set(solver, "spla", _SplaProxy(solver.spla, self.wrap("solver.factor", solver.spla.splu)))
            for module, attr, name in _COUNT_PATCHES:
                mod = importlib.import_module(module)
                patches.set(mod, attr, self.counting(name, getattr(mod, attr)))
            if census is not None:
                optimizer = importlib.import_module("fsotraj.optimizer")
                patches.set(optimizer, "solve", census.wrap(optimizer.solve))
            yield self
        finally:
            patches.restore()

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans add up to the durations of
        the root spans.
        """
        if not self.spans:
            return {}
        index = {id(span): i for i, span in enumerate(self.spans)}
        dur = np.array([span[3] - span[2] for span in self.spans])
        parents = np.array([-1 if span[1] is None else index[id(span[1])] for span in self.spans])
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        table: dict[str, dict[str, float]] = {}
        for span, d, s in zip(self.spans, dur, self_time):
            name = span[0]
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += float(d)
            row["self_s"] += float(s)
        return table


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call: a wrapped no-op minus a plain one."""

    def plain():
        return None

    wrapped = Tracer().wrap("probe", plain)
    t0 = time.perf_counter()
    for _ in range(calls):
        plain()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


class _SplaProxy:
    """Stands in for ``scipy.sparse.linalg`` inside the solver module."""

    def __init__(self, module, splu):
        self._module = module
        self.splu = splu

    def __getattr__(self, attr):
        return getattr(self._module, attr)
