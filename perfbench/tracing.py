"""Spans around the package's public functions, recorded from outside.

``Tracer.installed()`` replaces every module binding of the traced functions
with a wrapper (``crowdsweep.cli`` and ``crowdsweep.bilevel`` import them by
name, so patching the defining module alone would miss those calls) and
restores the originals on exit.  Spans live in memory until ``dump``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

MODULES = ("crowdsweep", "crowdsweep.dynamics", "crowdsweep.bilevel",
           "crowdsweep.nco", "crowdsweep.cli")


def _participant_steps(scenario, trajectory_or_profiles, *_args, **_kw) -> int:
    grid = getattr(trajectory_or_profiles, "grid", None)
    if grid is None:
        grid = trajectory_or_profiles[0].grid
    return (grid.size - 1) * scenario.N


def _participant_rows(scenario, y, *_args, **_kw) -> int:
    return y.grid.size * scenario.N


# (defining module, function, span name, work units of one call)
TARGETS = (
    ("crowdsweep.dynamics", "integrate_upper", "dynamics.integrate_upper", _participant_steps),
    ("crowdsweep.dynamics", "integrate_lower_catchup", "dynamics.integrate_lower_catchup",
     _participant_steps),
    ("crowdsweep.dynamics", "check_feasibility", "dynamics.check_feasibility", _participant_rows),
    ("crowdsweep.bilevel", "solve_twodisk_parametric", "bilevel.solve_twodisk_parametric", None),
    ("crowdsweep.nco", "fit_multipliers", "nco.fit_multipliers", None),
    ("crowdsweep.nco", "verify", "nco.verify", None),
    ("crowdsweep.nco", "adjoint_residual", "nco.adjoint_residual", None),
    ("crowdsweep.nco", "boundary_residual", "nco.boundary_residual", None),
    ("crowdsweep.nco", "max_condition_lower", "nco.max_condition_lower", None),
    ("crowdsweep.nco", "max_condition_upper", "nco.max_condition_upper", None),
    ("crowdsweep.cli", "parse_scenario", "cli.parse_scenario", None),
    ("crowdsweep.cli", "run", "cli.run", None),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    work: int = 0


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    result = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[s.id] = (s.end - s.start) - covered
    return result


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._ids = itertools.count()

    def _wrap(self, fn: Callable, name: str, work: Optional[Callable]) -> Callable:
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = f"{name}.{args[0]}" if name == "cli.run" else name
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(sid, span_name, start, end, parent,
                                  work(*args, **kwargs) if work else 0))

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        modules = [importlib.import_module(m) for m in MODULES]
        patched = []
        for owner, attr, name, work in TARGETS:
            original = getattr(importlib.import_module(owner), attr)
            wrapper = self._wrap(original, name, work)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
                        patched.append((module, binding, original))
        try:
            yield self
        finally:
            for module, binding, original in patched:
                setattr(module, binding, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([vars(s) for s in self.spans], fh)
