"""Traced runner for one circledyn CLI call, and the per-layer metrics made
from its spans.

    python3 perfbench/tracer.py SPANS.json <circledyn arguments>

runs ``circledyn.cli.main`` in this process after wrapping every binding of
the layer functions in ``SPANS`` (imported copies such as ``cli.eta_curve``
included).  Each wrapped call records a span (name, start, end, parent) and
counts taken from its arguments and return value; calls of the public
``step_factory`` methods are counted as orbit evaluations in every open
span.  Spans stay in memory and are written to SPANS.json when the call
returns.  Worker processes of a pool record into their own memory, which
is discarded, so a pooled run only has the parent's spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time

def _stages(fam) -> int:
    return len(fam.stages) if hasattr(fam, "stages") else 1


def _size(x) -> int:
    import numpy as np

    return int(np.size(x))


def _is_locked(a, out, counts):
    from circledyn import rotation

    q = a["q"]
    grid = a["grid"] or rotation.lock_grid_size(q)
    # one step_factory call for the grid, one per witness bisection step
    bisect = counts.get("orbit_evals", 0) - 1
    return {"outcome": out.status, "q": q,
            "stage_evals": _stages(a["fam"]) * q * (grid + bisect)}


def _bytes(a, out, counts):
    return {"bytes": os.path.getsize(a["path"])}


# (layer, function, counts from (bound arguments, return value, span counts))
SPANS = (
    ("cli", "main", None),
    ("io", "load_family", None),
    ("io", "load_skew", None),
    ("io", "write_csv", _bytes),
    ("io", "write_report", _bytes),
    ("circle_map", "family_norm", None),
    ("rotation", "is_locked", _is_locked),
    ("rotation", "displacement_batch", lambda a, out, c: {
        "stage_evals": _stages(a["fam"]) * _size(a["ts"]) * a["n_iter"]}),
    ("rotation", "rho_estimate", lambda a, out, c: {
        "stage_evals": _stages(a["fam"]) * a["n_iter"]}),
    ("rotation", "classify", None),
    ("rotation", "classify_batch", lambda a, out, c: {"samples": _size(a["ts"])}),
    ("farey", "fractions_in_interval", None),
    ("windows", "window_for_rational", lambda a, out, c: {"width0": int(out.width == 0.0)}),
    ("windows", "locked_measure", None),
    ("skew", "periodic_circles", None),
    ("skew", "restricted_family", None),
    ("skew", "a3_check", lambda a, out, c: {"passed": int(bool(out[1]))}),
    ("skew", "restricted_norm", None),
    ("diophantine", "dio_measure", lambda a, out, c: {
        "point_tests": a["params"].grid * a["params"].n_max}),
    ("experiments", "intersection_measure", None),
    ("experiments", "eta_curve", None),
    ("experiments", "sample_family", None),
)
METHOD_SPANS = (("circle_map", "CircleFamily", "check_diffeo"),)
ORBIT_EVALS = (("circle_map", "CircleFamily", "step_factory"),
               ("skew", "RestrictedFamily", "step_factory"))


class Recorder:
    """Spans as ``[name, start, end, parent, counts]`` lists, in call order."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def span(self, name, fn, count=None):
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, {}]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[4].update(count(bound.arguments, out, rec[4]))
            return out

        return wrapper

    def counter(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for i in self.stack:
                c = self.spans[i][4]
                c[key] = c.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every binding of the traced functions in the loaded package."""
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "circledyn" or n.startswith("circledyn.")]
        for layer, fname, count in SPANS:
            orig = getattr(importlib.import_module(f"circledyn.{layer}"), fname)
            wrapped = self.span(f"{layer}.{fname}", orig, count)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
        for layer, cls, meth in METHOD_SPANS:
            klass = getattr(importlib.import_module(f"circledyn.{layer}"), cls)
            setattr(klass, meth, self.span(f"{layer}.{meth}", getattr(klass, meth)))
        for layer, cls, meth in ORBIT_EVALS:
            klass = getattr(importlib.import_module(f"circledyn.{layer}"), cls)
            setattr(klass, meth, self.counter("orbit_evals", getattr(klass, meth)))


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    t0 = time.perf_counter()
    import circledyn.cli  # the import is the first span of the cli layer

    rec.spans.append(["cli.import", t0, time.perf_counter(), -1, {}])
    rec.install()
    code = circledyn.cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump(rec.spans, fh)
    return code


# -- per-layer metrics -------------------------------------------------------

COUNT = "count"


# name -> unit of every per-layer metric, in report order
PER_LAYER = {
    "windows.window_for_rational.calls": COUNT,
    "windows.window_for_rational.s": "s",
    "windows.window_for_rational.p50_s": "s",
    "windows.window_for_rational.p90_s": "s",
    "windows.orbit_evals_per_window": COUNT,
    "windows.width0_frac": "share",
    "rotation.is_locked.calls": COUNT,
    "rotation.is_locked.s": "s",
    "rotation.is_locked.stage_evals": COUNT,
    **{f"rotation.is_locked.{o}.{k}": u for o in ("locked", "not_locked", "unresolved")
       for k, u in (("calls", COUNT), ("s", "s"))},
    "rotation.is_locked.q_le20.s": "s",
    "rotation.is_locked.q_gt20.s": "s",
    "rotation.displacement_batch.calls": COUNT,
    "rotation.displacement_batch.s": "s",
    "rotation.displacement_batch.stage_evals": COUNT,
    "rotation.displacement_batch.stage_evals_per_s": "1/s",
    "rotation.rho_estimate.calls": COUNT,
    "rotation.rho_estimate.s": "s",
    "rotation.rho_estimate.stage_evals_per_s": "1/s",
    "rotation.classify.self_s": "s",
    "skew.search.depth_mean": COUNT,
    "rotation.classify_batch.self_s": "s",
    "rotation.classify_batch.samples": COUNT,
    "farey.fractions_in_interval.calls": COUNT,
    "farey.fractions_in_interval.s": "s",
    "skew.a3_check.calls": COUNT,
    "skew.a3_check.s": "s",
    "skew.a3_check.pass_frac": "share",
    "skew.restricted_family.s": "s",
    "skew.restricted_norm.s": "s",
    "circle_map.family_norm.calls": COUNT,
    "circle_map.family_norm.s": "s",
    "experiments.sample_family.s": "s",
    "circle_map.check_diffeo.s": "s",
    "io.load_family.s": "s",
    "io.load_skew.s": "s",
    "diophantine.dio_measure.calls": COUNT,
    "diophantine.dio_measure.s": "s",
    "diophantine.dio_measure.point_tests": COUNT,
    "diophantine.dio_measure.point_tests_per_s": "1/s",
    "experiments.intersection_measure.s": "s",
    "experiments.eta_curve.s": "s",
    "cli.pool_eff": "share",
    "io.write_csv.s": "s",
    "io.write_csv.bytes": "bytes",
    "io.write_report.s": "s",
    "io.write_report.bytes": "bytes",
    "cli.main.self_s": "s",
    "coverage": "share",
    "trace_overhead_frac": "share",
}


def _ratio(a, b):
    return a / b if b else 0.0


def pooled_span(agg) -> float:
    """Time in the sections the CLI hands to its worker pool."""
    return agg["s"].get("experiments.intersection_measure", 0.0) + \
        agg["s"].get("experiments.eta_curve", 0.0)


def aggregate(spans) -> dict:
    """Per-function totals: calls, inclusive and self seconds, durations,
    and summed counts."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    agg = {"calls": {}, "s": {}, "self_s": {}, "durs": {}, "counts": {}}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        d = end - start
        agg["calls"][name] = agg["calls"].get(name, 0) + 1
        agg["s"][name] = agg["s"].get(name, 0.0) + d
        agg["self_s"][name] = agg["self_s"].get(name, 0.0) + d - child[i]
        agg["durs"].setdefault(name, []).append(d)
        c = agg["counts"].setdefault(name, {})
        for k, v in counts.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                c[k] = c.get(k, 0) + v
    agg["top_s"] = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    return agg


def layer_metrics(spans, wall_s: float, n_t: int) -> dict:
    """Per-layer metrics of one traced call (all but ``cli.pool_eff`` and
    ``trace_overhead_frac``, which need other calls).  ``n_t`` is the number
    of parameter values a ``skew`` search visits."""
    agg = aggregate(spans)
    calls, s, self_s, counts = agg["calls"], agg["s"], agg["self_s"], agg["counts"]
    out = {}

    def fn(name):
        return calls.get(name, 0), s.get(name, 0.0)

    n, t = fn("windows.window_for_rational")
    durs = sorted(agg["durs"].get("windows.window_for_rational", []))
    wc = counts.get("windows.window_for_rational", {})
    out["windows.window_for_rational.calls"] = n
    out["windows.window_for_rational.s"] = t
    out["windows.window_for_rational.p50_s"] = _quantile(durs, 0.5)
    out["windows.window_for_rational.p90_s"] = _quantile(durs, 0.9)
    out["windows.orbit_evals_per_window"] = _ratio(wc.get("orbit_evals", 0), n)
    out["windows.width0_frac"] = _ratio(wc.get("width0", 0), n)

    locked = [sp for sp in spans if sp[0] == "rotation.is_locked"]
    out["rotation.is_locked.calls"] = len(locked)
    out["rotation.is_locked.s"] = sum(sp[2] - sp[1] for sp in locked)
    out["rotation.is_locked.stage_evals"] = sum(sp[4].get("stage_evals", 0) for sp in locked)
    for outcome in ("locked", "not_locked", "unresolved"):
        sel = [sp for sp in locked if sp[4].get("outcome") == outcome]
        out[f"rotation.is_locked.{outcome}.calls"] = len(sel)
        out[f"rotation.is_locked.{outcome}.s"] = sum((sp[2] - sp[1] for sp in sel), 0.0)
    out["rotation.is_locked.q_le20.s"] = sum(
        sp[2] - sp[1] for sp in locked if sp[4].get("q", 0) <= 20)
    out["rotation.is_locked.q_gt20.s"] = sum(
        sp[2] - sp[1] for sp in locked if sp[4].get("q", 0) > 20)

    n, t = fn("rotation.displacement_batch")
    ev = counts.get("rotation.displacement_batch", {}).get("stage_evals", 0)
    out["rotation.displacement_batch.calls"] = n
    out["rotation.displacement_batch.s"] = t
    out["rotation.displacement_batch.stage_evals"] = ev
    out["rotation.displacement_batch.stage_evals_per_s"] = _ratio(ev, t)
    n, t = fn("rotation.rho_estimate")
    ev = counts.get("rotation.rho_estimate", {}).get("stage_evals", 0)
    out["rotation.rho_estimate.calls"] = n
    out["rotation.rho_estimate.s"] = t
    out["rotation.rho_estimate.stage_evals_per_s"] = _ratio(ev, t)
    out["rotation.classify.self_s"] = self_s.get("rotation.classify", 0.0)
    out["skew.search.depth_mean"] = _ratio(calls.get("rotation.classify", 0), n_t)
    out["rotation.classify_batch.self_s"] = self_s.get("rotation.classify_batch", 0.0)
    out["rotation.classify_batch.samples"] = counts.get(
        "rotation.classify_batch", {}).get("samples", 0)
    n, t = fn("farey.fractions_in_interval")
    out["farey.fractions_in_interval.calls"] = n
    out["farey.fractions_in_interval.s"] = t

    n, t = fn("skew.a3_check")
    out["skew.a3_check.calls"] = n
    out["skew.a3_check.s"] = t
    out["skew.a3_check.pass_frac"] = _ratio(counts.get("skew.a3_check", {}).get("passed", 0), n)
    out["skew.restricted_family.s"] = s.get("skew.restricted_family", 0.0)
    out["skew.restricted_norm.s"] = s.get("skew.restricted_norm", 0.0)
    n, t = fn("circle_map.family_norm")
    out["circle_map.family_norm.calls"] = n
    out["circle_map.family_norm.s"] = t
    out["experiments.sample_family.s"] = s.get("experiments.sample_family", 0.0)
    out["circle_map.check_diffeo.s"] = s.get("circle_map.check_diffeo", 0.0)
    out["io.load_family.s"] = s.get("io.load_family", 0.0)
    out["io.load_skew.s"] = s.get("io.load_skew", 0.0)

    n, t = fn("diophantine.dio_measure")
    pt = counts.get("diophantine.dio_measure", {}).get("point_tests", 0)
    out["diophantine.dio_measure.calls"] = n
    out["diophantine.dio_measure.s"] = t
    out["diophantine.dio_measure.point_tests"] = pt
    out["diophantine.dio_measure.point_tests_per_s"] = _ratio(pt, t)
    out["experiments.intersection_measure.s"] = s.get("experiments.intersection_measure", 0.0)
    out["experiments.eta_curve.s"] = s.get("experiments.eta_curve", 0.0)

    out["io.write_csv.s"] = s.get("io.write_csv", 0.0)
    out["io.write_csv.bytes"] = counts.get("io.write_csv", {}).get("bytes", 0)
    out["io.write_report.s"] = s.get("io.write_report", 0.0)
    out["io.write_report.bytes"] = counts.get("io.write_report", {}).get("bytes", 0)
    out["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    out["coverage"] = _ratio(agg["top_s"], wall_s)
    out["_pooled_s"] = pooled_span(agg)
    return out


def _quantile(sorted_vals, p: float) -> float:
    if not sorted_vals:
        return 0.0
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    return statistics.quantiles(sorted_vals, n=100, method="inclusive")[int(round(p * 100)) - 1]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
