"""Span tracing of hqn's public functions, installed from outside the package.

Every public function of every ``hqn`` module is wrapped, and so are
``Quaternion.__mul__`` and the ``solve_ivp`` that ``hqn.integrator``
imports from scipy. A function is reachable under several names (its
defining module's, plus each ``from .x import f`` copy in another hqn
module), so every binding that holds it is patched: a call is counted
whichever name it goes through. Spans nest on one stack; a span's self
time is its duration minus the durations of the spans it directly
encloses, so the self times of one pass add up to the traced wall time
spent inside hqn.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from contextlib import contextmanager
from time import perf_counter

import hqn
import hqn.integrator
from hqn.quaternion import Quaternion


def hqn_modules() -> list:
    return [importlib.import_module(f"hqn.{info.name}")
            for info in pkgutil.iter_modules(hqn.__path__)]


class Tracer:
    """Per-name call counts, self times and solver counters of one traced pass."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.nfev = 0
        self.steps = 0
        self._child_s: list[float] = []

    def _wrap(self, name: str, fn, on_result=None):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        calls, self_s, child_s = self.calls, self.self_s, self._child_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child_s.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                inner = child_s.pop()
                if child_s:
                    child_s[-1] += dur
                calls[name] += 1
                self_s[name] += dur - inner
            if on_result is not None:
                on_result(result)
            return result

        return span

    def _count_solver(self, result) -> None:
        # one entry of OdeResult.t per accepted step, plus the start
        self.nfev += int(result.nfev)
        self.steps += len(result.t) - 1

    @contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        modules = hqn_modules()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        solver = hqn.integrator.solve_ivp
        wrappers[id(solver)] = self._wrap("integrator.solve_ivp", solver,
                                          self._count_solver)

        patched = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and not attr.startswith("__"):
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        mul = Quaternion.__mul__
        Quaternion.__mul__ = self._wrap("quaternion.mul", mul)
        try:
            yield self
        finally:
            Quaternion.__mul__ = mul
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)
