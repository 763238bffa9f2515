"""Span recorder for the traced benchmark run.

`installed` wraps the public functions named in LAYERS at every module
binding of the package that refers to them (`eos.verify_equilibrium` and
`dynamics.verify_equilibrium` are one function bound twice), so calls the
package makes internally are timed too. A function missing from its home
module is reported as absent, never as an error.

A span has a name, start, end, parent and op id. Self time is a span's
duration minus the time its child spans cover; it is computed on exit from
a stack of open frames. Spans of the high-volume leaf kernels are not kept
one by one: they are aggregated into per-layer totals, and per (layer,
parent layer) call counts.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    ident: int
    name: str
    start: float
    end: float
    parent: int  # ident of the nearest kept ancestor span, -1 at the root
    op: int
    self_s: float


@dataclass(slots=True)
class _Frame:
    name: str
    keep: bool
    ident: int
    parent: int  # ident of the nearest kept ancestor
    anchor: int  # ident the frame's children take as their parent
    start: float = 0.0
    child_s: float = 0.0


class Recorder:
    """Keeps spans and per-layer totals in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # work counters, see LAYERS
        self.op = -1
        # (layer, parent layer or None) -> [calls, self seconds, inclusive]
        self._totals: dict[tuple, list] = {}
        self._stack: list[_Frame] = []
        self._next_id = 0

    def enter(self, name: str, keep: bool = True) -> _Frame:
        stack = self._stack
        ident = self._next_id
        self._next_id = ident + 1
        parent = stack[-1].anchor if stack else -1
        frame = _Frame(name, keep, ident, parent, ident if keep else parent)
        stack.append(frame)
        frame.start = self.clock()
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = end - frame.start
        self_s = duration - frame.child_s
        if stack:
            stack[-1].child_s += duration
            key = (frame.name, stack[-1].name)
        else:
            key = (frame.name, None)
        totals = self._totals.get(key)
        if totals is None:
            totals = self._totals[key] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += self_s
        totals[2] += duration
        if frame.keep:
            self.spans.append(Span(frame.ident, frame.name, frame.start, end,
                                   frame.parent, self.op, self_s))

    @contextmanager
    def span(self, name: str, keep: bool = True):
        frame = self.enter(name, keep)
        try:
            yield frame
        finally:
            self.exit(frame)

    def summary(self) -> dict:
        """Totals as plain data, for a child process to hand back: one row
        [layer, parent layer or None, calls, self seconds, inclusive
        seconds] per (layer, parent) pair, and the work counts."""
        return {"totals": [[name, parent, *t]
                           for (name, parent), t in self._totals.items()],
                "counts": dict(self.counts)}

    def merge(self, summary: dict) -> None:
        """Add the totals of another recorder's summary."""
        for name, parent, calls, self_s, inclusive in summary["totals"]:
            totals = self._totals.setdefault((name, parent), [0, 0.0, 0.0])
            totals[0] += calls
            totals[1] += self_s
            totals[2] += inclusive
        self.counts.update(summary["counts"])


def layer_sums(summary: dict) -> dict:
    """Per-layer calls, self and inclusive seconds of a summary, and calls
    per "layer<parent" pair."""
    sums = {"calls": Counter(), "self_s": Counter(), "inclusive_s": Counter(),
            "calls_by_parent": Counter()}
    for name, parent, calls, self_s, inclusive in summary["totals"]:
        sums["calls"][name] += calls
        sums["self_s"][name] += self_s
        sums["inclusive_s"][name] += inclusive
        sums["calls_by_parent"][f"{name}<{parent or ''}"] += calls
    return {key: dict(value) for key, value in sums.items()}


# -- observers: turn a call's arguments and result into work counts --------

def _iterations(counts, args, result, error):
    if error is None:
        counts["roots.bisect.iterations"] += result.iterations


def _fallback(counts, args, result, error):
    if error is None and result.method == "bisection":
        counts["proportional.bisection_fallbacks"] += 1


def _no_response(counts, args, result, error):
    if type(error).__name__ == "NoBestResponse":
        counts["best_response.no_response"] += 1


def _early_abstain(counts, args, result, error):
    _no_response(counts, args, result, error)
    if error is None and result.interior_candidate is None:
        counts["best_response.eos.early_abstain"] += 1


def _set_outcome(counts, args, result, error):
    if error is None and result is not None and result.certificate.certified:
        counts["eos.solve_for_set.certified"] += 1
    else:
        counts["eos.solve_for_set.rejected"] += 1


def _miners(counts, args, result, error):
    counts["eos.verify.miners"] += args[0].n


def _equilibria(counts, args, result, error):
    if error is None:
        counts["eos.enumerate.equilibria"] += len(result)


def _trajectory(counts, args, result, error):
    if error is None:
        counts["dynamics.rounds"] += result.rounds_used
        counts[f"dynamics.{result.status}"] += 1


class Layer(NamedTuple):
    metric: str  # prefix of the per-layer metric names
    module: str  # home module inside the package
    function: str
    keep: bool  # keep each span, or aggregate (high-volume leaf kernels)
    observe: Optional[Callable] = None


LAYERS = (
    Layer("core.shares", "core", "shares", False),
    Layer("roots.bisect", "roots", "bisect_monotone", False, _iterations),
    Layer("proportional.solve", "proportional", "solve_equilibrium", True,
          _fallback),
    Layer("best_response.proportional", "best_response",
          "best_response_proportional", False, _no_response),
    Layer("best_response.eos", "best_response", "best_response_eos", False,
          _early_abstain),
    Layer("best_response.grid", "best_response", "grid_oracle", False),
    Layer("eos.invert", "eos", "invert_share_weight", False),
    Layer("eos.solve_for_set", "eos", "solve_for_set", True, _set_outcome),
    Layer("eos.verify", "eos", "verify_equilibrium", True, _miners),
    Layer("eos.enumerate", "eos", "enumerate_equilibria", True, _equilibria),
    Layer("dynamics.run", "dynamics", "run_dynamics", True, _trajectory),
    Layer("cli.main", "cli", "main", True),
)


def _wrap(recorder: Recorder, layer: Layer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder._stack:  # only inside an op span
            return fn(*args, **kwargs)
        frame = recorder.enter(layer.metric, layer.keep)
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = exc
            raise
        finally:
            recorder.exit(frame)
            if layer.observe is not None:
                layer.observe(recorder.counts, args, result, error)
    return traced


@contextmanager
def installed(recorder: Recorder, package: str, layers=LAYERS):
    """Wrap every layer function at each binding inside `package` (its
    modules must already be imported); yields the metric prefixes of the
    layers whose function is absent. Restores the originals on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package
                                     or name.startswith(package + "."))]
    patched, absent = [], []
    for layer in layers:
        home = sys.modules.get(f"{package}.{layer.module}")
        original = getattr(home, layer.function, None)
        if not callable(original):
            absent.append(layer.metric)
            continue
        wrapper = _wrap(recorder, layer, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
    try:
        yield absent
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# -- per-layer metrics of a traced run -------------------------------------

_PER_OP = ("calls", "self_s")
#: (metric, unit, better, layer it needs or None for process-level ones)
PER_LAYER = (
    *((f"core.shares.{k}", u, "lower", "core.shares")
      for k, u in zip(_PER_OP, ("calls/op", "s/op"))),
    ("roots.bisect.calls", "calls/op", "lower", "roots.bisect"),
    ("roots.bisect.iterations", "iter/op", "lower", "roots.bisect"),
    ("roots.bisect.self_s", "s/op", "lower", "roots.bisect"),
    ("proportional.solve.calls", "calls/op", "lower", "proportional.solve"),
    ("proportional.solve.self_s", "s/op", "lower", "proportional.solve"),
    ("proportional.bisection_fallbacks", "calls/op", "lower",
     "proportional.solve"),
    ("best_response.proportional.calls", "calls/op", "lower",
     "best_response.proportional"),
    ("best_response.proportional.self_s", "s/op", "lower",
     "best_response.proportional"),
    ("best_response.eos.calls", "calls/op", "lower", "best_response.eos"),
    ("best_response.eos.self_s", "s/op", "lower", "best_response.eos"),
    ("best_response.eos.early_abstain", "calls/op", "higher",
     "best_response.eos"),
    ("best_response.no_response", "calls/op", "lower", "best_response.eos"),
    ("best_response.grid.self_s", "s/op", "lower", "best_response.grid"),
    ("eos.invert.calls", "calls/op", "lower", "eos.invert"),
    ("eos.invert.self_s", "s/op", "lower", "eos.invert"),
    ("eos.solve_for_set.calls", "calls/op", "lower", "eos.solve_for_set"),
    ("eos.solve_for_set.self_s", "s/op", "lower", "eos.solve_for_set"),
    ("eos.solve_for_set.rejected", "sets/op", "lower", "eos.solve_for_set"),
    ("eos.set_yield", "ratio", "higher", "eos.solve_for_set"),
    ("eos.verify.calls", "calls/op", "lower", "eos.verify"),
    ("eos.verify.miners", "miners/op", "lower", "eos.verify"),
    ("eos.verify.self_s", "s/op", "lower", "eos.verify"),
    ("eos.verify.s_per_miner", "s/miner", "lower", "eos.verify"),
    ("eos.enumerate.calls", "calls/op", "lower", "eos.enumerate"),
    ("eos.enumerate.self_s", "s/op", "lower", "eos.enumerate"),
    ("eos.enumerate.equilibria", "eq/op", "higher", "eos.enumerate"),
    ("eos.verify_per_equilibrium", "ratio", "lower", "eos.verify"),
    ("dynamics.run.calls", "calls/op", "lower", "dynamics.run"),
    ("dynamics.run.self_s", "s/op", "lower", "dynamics.run"),
    ("dynamics.rounds", "rounds/op", "lower", "dynamics.run"),
    ("dynamics.s_per_round", "s/round", "lower", "dynamics.run"),
    ("dynamics.br_calls", "calls/op", "lower", "dynamics.run"),
    ("dynamics.converged", "ratio", "higher", "dynamics.run"),
    ("dynamics.cycle_detected", "ratio", "lower", "dynamics.run"),
    ("dynamics.max_rounds", "ratio", "lower", "dynamics.run"),
    ("cli.interpreter_s", "s", "lower", None),
    ("cli.import_s", "s", "lower", None),
    ("cli.numpy_import_s", "s", "lower", None),
    ("cli.main.calls", "calls/op", "lower", "cli.main"),
    ("cli.main.self_s", "s/op", "lower", "cli.main"),
    ("cli.emit_bytes", "B/op", "lower", None),
    *((f"cli.process_s.{c}", "s", "lower", None)
      for c in ("solve", "verify", "sweep", "dynamics", "best_response")),
    ("trace.overhead", "ratio", "lower", None),
    ("trace.op_wall_s", "s/op", "lower", None),
    ("trace.self_sum_s", "s/op", "lower", None),
)


def per_layer_values(summary: dict, ops: int, measured: dict) -> dict:
    """Per-layer values of a traced run of `ops` operations. Work counts
    and self times are per operation; `measured` holds the values that do
    not come from spans (process timings, overhead)."""
    sums = layer_sums(summary)
    calls, self_s = sums["calls"], sums["self_s"]
    inclusive, by_parent = sums["inclusive_s"], sums["calls_by_parent"]
    counts = summary["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    values = dict(measured)
    for layer in LAYERS:
        values[f"{layer.metric}.calls"] = calls.get(layer.metric, 0) / ops
        values[f"{layer.metric}.self_s"] = self_s.get(layer.metric, 0.0) / ops
    for name in ("roots.bisect.iterations", "proportional.bisection_fallbacks",
                 "best_response.eos.early_abstain", "best_response.no_response",
                 "eos.solve_for_set.rejected", "eos.verify.miners",
                 "eos.enumerate.equilibria", "dynamics.rounds"):
        values[name] = counts.get(name, 0) / ops
    values["eos.set_yield"] = ratio(counts.get("eos.solve_for_set.certified", 0),
                                    calls.get("eos.solve_for_set", 0))
    values["eos.verify.s_per_miner"] = ratio(
        inclusive.get("eos.verify", 0.0), counts.get("eos.verify.miners", 0))
    values["eos.verify_per_equilibrium"] = ratio(
        calls.get("eos.verify", 0), counts.get("eos.enumerate.equilibria", 0))
    runs = calls.get("dynamics.run", 0)
    values["dynamics.s_per_round"] = ratio(inclusive.get("dynamics.run", 0.0),
                                           counts.get("dynamics.rounds", 0))
    values["dynamics.br_calls"] = sum(
        v for k, v in by_parent.items()
        if k.startswith("best_response.") and k.endswith("<dynamics.run")) / ops
    for status, name in (("converged", "converged"),
                         ("cycle_detected", "cycle_detected"),
                         ("max_rounds_exhausted", "max_rounds")):
        values[f"dynamics.{name}"] = ratio(counts.get(f"dynamics.{status}", 0),
                                           runs)
    layer_names = {layer.metric for layer in LAYERS}
    values["trace.self_sum_s"] = sum(
        v for k, v in self_s.items() if k in layer_names) / ops
    return {name: values.get(name, 0.0) for name, *_ in PER_LAYER}
