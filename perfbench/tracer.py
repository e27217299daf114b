"""Span tracer that wraps maskrd's public functions from outside the package.

install() replaces each public function defined in a layer module with a
wrapper that records a span, in that module and in every other maskrd
module that holds the same function object (package re-exports and
``from .x import f`` names). remove() puts the originals back. Spans are
kept in memory: name, start, end, parent span, run id, and exact counts
for the few functions listed in COUNTERS.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

from checks import payload_stats

PACKAGE = "maskrd"
LAYERS = ("gf2", "masks", "spectra", "response", "montecarlo", "metrics", "cli")


def _estimate_counts(args, result):
    scen, trials = args["scenario"], args["trials"]
    n = scen.mask.n
    return {"point_trials": trials,
            "symbols_drawn": trials * (scen.M * n + n - 1)}


# Exact counts read from a call's arguments and result, keyed by span name.
COUNTERS = {
    "montecarlo.estimate": _estimate_counts,
    # three N x N int64 matrices: shifted replicas, gated replicas, R
    "spectra.cross_term_matrix": lambda a, r: {"bytes_computed": 3 * a["mask"].n ** 2 * 8},
    "response.build_grid": lambda a, r: {"points": int(r.values.size)},
    "cli.write_csv": lambda a, r: {k: v for k, v in payload_stats(a["path"]).items()
                                   if k != "sha256"},
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []
        self._restore = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def remove(self) -> None:
        for module, name, obj in reversed(self._restore):
            setattr(module, name, obj)
        self._restore.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1] if stack else None, "run": self.run}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counter(bound.arguments, result)
            return result

        return wrapper


def profile(spans) -> dict:
    """Per-function totals over a list of spans: calls, self_s and counts.

    Self time is a span's duration minus the durations of its direct child
    spans. The ratio metrics.autocorr_per_report counts autocorr spans that
    run under a metrics_report span.
    """
    by_id = {s["id"]: s for s in spans}
    child_ns = dict.fromkeys(by_id, 0)
    for s in spans:
        if s["parent"] in child_ns:
            child_ns[s["parent"]] += s["end"] - s["start"]
    out = {}
    for s in spans:
        entry = out.setdefault(s["name"], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (s["end"] - s["start"] - child_ns[s["id"]]) / 1e9
        for key, value in s.get("counts", {}).items():
            entry[key] = entry.get(key, 0) + value
    reports = out.get("metrics.metrics_report", {}).get("calls", 0)
    in_report = 0
    for s in spans:
        if s["name"] != "spectra.autocorr":
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != "metrics.metrics_report":
            parent = by_id.get(parent["parent"])
        in_report += parent is not None
    out["metrics"] = {"autocorr_per_report": in_report / reports if reports else 0.0}
    return out


def layer_value(profiles, metric: str):
    """Value of a '<layer>.<function>.<stat>' metric over per-pass profiles.

    Times are the median over passes; counts and ratios come from the first
    pass (run.py fails a pass whose counts differ from the first).
    """
    func, _, stat = metric.rpartition(".")
    if stat == "us_per_point_trial":
        trials = profiles[0].get(func, {}).get("point_trials", 0)
        self_s = layer_value(profiles, f"{func}.self_s")
        return self_s / trials * 1e6 if trials else 0.0
    if stat == "self_s":
        return statistics.median(p.get(func, {}).get("self_s", 0.0) for p in profiles)
    return profiles[0].get(func, {}).get(stat, 0)


def exact_counts(profile_: dict) -> dict:
    """The parts of a profile that must repeat exactly between passes."""
    return {name: {k: v for k, v in entry.items() if k != "self_s"}
            for name, entry in profile_.items()}
