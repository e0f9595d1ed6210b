"""Layer spans recorded from outside the program.

`Tracer.install` wraps every public function of the six yring modules
(junction, ring, spectrum, cli, config, smallmat) plus three boundaries the
layer metrics need: the build_V cache, ScatteringMatrix validation and the
golden-section refine of find_resonances.  Each wrapper records a span
(count, inclusive time, self time = inclusive minus child spans) and, at a
few boundaries, a count taken from the call's arguments or result.  Spans
are aggregated in memory per name; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("junction", "ring", "spectrum", "cli", "config", "smallmat")
_MODE_NAMES = {"Symmetric": "symmetric", "AntiSymmetric": "antisymmetric", "General": "general"}


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [count, inclusive s, self s]
        self.counts = Counter()  # exact counts, identical for identical inputs
        self.seconds = Counter()  # time attributed to a subset of one span's calls
        self._children = []  # child time accumulated by each open span
        self._find_depth = 0
        self._refine_depth = 0
        self._installed = []

    # -- recording --------------------------------------------------------------

    def _record(self, name: str, dt: float, child: float) -> None:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dt
        st[2] += dt - child
        if self._children:
            self._children[-1] += dt

    def _wrap(self, name: str, fn):
        special = _SPECIAL.get(name)
        record = self._record
        children = self._children
        perf = time.perf_counter

        if special is None:
            @functools.wraps(fn)
            def span(*args, **kwargs):
                children.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    record(name, dt, children.pop())
            return span

        @functools.wraps(fn)
        def special_span(*args, **kwargs):
            label, state = special(self, "enter", name, args, None, fn)
            children.append(0.0)
            t0 = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf() - t0
                record(label, dt, children.pop())
                special(self, "exit", label, args, (result, dt, state), fn)
        return special_span

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"yring.{layer}")
            for attr, obj in vars(module).items():
                defined_here = getattr(obj, "__module__", None) == module.__name__
                if attr.startswith("_") or not defined_here:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    targets[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        spectrum = importlib.import_module("yring.spectrum")
        golden = spectrum._golden_minimize
        targets[id(golden)] = (golden, self._wrap("spectrum.refine", golden))
        junction = importlib.import_module("yring.junction")
        post_init = junction.ScatteringMatrix.__post_init__
        junction.ScatteringMatrix.__post_init__ = self._wrap("junction.validate", post_init)
        self._installed.append((junction.ScatteringMatrix, "__post_init__", post_init))
        # Rebind every module-level reference (and dispatch-table entry) to the wrappers.
        for module_name in ["yring"] + [f"yring.{layer}" for layer in LAYERS]:
            module = importlib.import_module(module_name)
            for attr, obj in list(vars(module).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    setattr(module, attr, targets[id(obj)][1])
                    self._installed.append((module, attr, obj))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in targets and targets[id(value)][0] is value:
                            obj[key] = targets[id(value)][1]
                            self._installed.append((obj, key, value))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._installed.clear()

    # -- reading ----------------------------------------------------------------

    def snapshot(self) -> tuple[dict, Counter]:
        return {k: list(v) for k, v in self.stats.items()}, Counter(self.counts)


def _special_solve_auto(tracer: Tracer, phase: str, name: str, args, outcome, fn):
    if phase == "enter":
        return f"ring.solve_auto.{_MODE_NAMES[type(args[0].mode).__name__]}", None
    if tracer._find_depth:
        _, dt, _ = outcome
        where = "refine" if tracer._refine_depth else "scan"
        tracer.counts[f"find.{where}_evals"] += 1
        tracer.seconds["find.eval"] += dt
    return None


def _special_build_v(tracer: Tracer, phase: str, name: str, args, outcome, fn):
    if phase == "enter":
        return name, fn.cache_info().misses
    _, dt, misses_before = outcome
    if fn.cache_info().misses > misses_before:
        tracer.counts["build_V.misses"] += 1
        tracer.seconds["build_V.miss"] += dt
    else:
        tracer.counts["build_V.hits"] += 1
    return None


def _special_series(tracer: Tracer, phase: str, name: str, args, outcome, fn):
    if phase == "enter":
        return name, None
    result = outcome[0]
    if result is not None:
        tracer.counts["series.terms"] += result[1]
    return None


def _special_find(tracer: Tracer, phase: str, name: str, args, outcome, fn):
    if phase == "enter":
        tracer._find_depth += 1
        return name, None
    tracer._find_depth -= 1
    result = outcome[0]
    if result is not None:
        tracer.counts["find.kept"] += len(result.resonances)
    return None


def _special_refine(tracer: Tracer, phase: str, name: str, args, outcome, fn):
    if phase == "enter":
        tracer._refine_depth += 1
        tracer.counts["find.brackets"] += 1
        return name, None
    tracer._refine_depth -= 1
    return None


def _special_sweep(tracer: Tracer, phase: str, name: str, args, outcome, fn):
    if phase == "enter":
        return name, None
    result = outcome[0]
    if result is not None:
        tracer.counts["sweep.points"] += len(result.points)
        tracer.counts["sweep.degenerate_rows"] += sum(p.degenerate for p in result.points)
    return None


_SPECIAL = {
    "ring.solve_auto": _special_solve_auto,
    "junction.build_V": _special_build_v,
    "ring.solve_series": _special_series,
    "spectrum.find_resonances": _special_find,
    "spectrum.refine": _special_refine,
    "spectrum.sweep": _special_sweep,
}
