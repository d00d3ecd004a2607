"""Command-line front end.

Subcommands: rho, windows, tongues, dio, skew, theoremA.  One table,
``_OPTIONS``, declares every option: its type, default, range, help and the
subcommands that take it.  It generates each subcommand's flags, and a
subcommand reads only its own options from the environment
(CIRCLEDYN_<NAME>) and the config file, where a key that names no option is
an input error.  Precedence is flags > environment > config file >
defaults; the effective configuration is dumped into every output directory
as ``run_config.json``, which ``--config`` reads back.  All outputs are
computed first and then written atomically, so failures leave no partial
files.

Exit codes: 0 success, 2 input error, 3 degenerate map, 4 hypothesis
violation.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import __version__, io
from .errors import (
    CircledynError,
    DegenerateFamily,
    DegenerateFiber,
    HypothesisViolation,
    InputError,
)

ENV_PREFIX = "CIRCLEDYN_"
# Largest Monte Carlo sample count, and largest n of an a:b:n sweep.  Peak
# memory grows by about 0.5 kB per t for rho (results and CSV rows) and
# 0.4 kB per sample for windows and theoremA: rho --t-range 0:1:2^18 --niter
# 64 --qmax 5 peaked at 166 MB (numpy 2.4.6, 2-core VM), below a
# MAX_LOCK_GRID check's 670 MB.
MAX_SAMPLES = 2 ** 18
# Largest --eta-families, per norm level.  A sampled family takes about
# 21 ms to build and 6 kB to hold, and its sweep about 0.35 s at the default
# 2000 samples (numpy 2.4.6, 2-core VM), so the cap's 4 x 1024 families
# hold about 25 MB and run for some 25 minutes per core.
MAX_ETA_FAMILIES = 2 ** 10

_COMMANDS = {
    "rho": "rotation numbers with error bars along a t sweep",
    "windows": "certified locking windows plus measure summary",
    "tongues": "windows across an amplitude grid",
    "dio": "Diophantine membership measure",
    "skew": "periodic circles, C3 filter, quasiperiodic search",
    "theoremA": "intersection-measure decay experiment over restricted families",
}
_ALL = tuple(_COMMANDS)
_LOCKING = tuple(c for c in _ALL if c != "dio")  # the subcommands that run lock checks
# keys that RunConfig.dump adds to the options, so that a dump reads back
_DUMP_KEYS = ("subcommand", "tool_version")


class _Option(NamedTuple):
    """An option: its type, its default in each subcommand that takes it
    (None leaves it unset there) and its help.  An int must lie in [least,
    most], a float in the open (least, most); ``most`` is by subcommand, with
    no cap where it has no entry, and a cap that a layer defines is named
    "module.NAME", so that only the layer of the checked subcommand loads."""

    type: type
    defaults: dict
    help: str
    least: float = -math.inf
    most: dict = {}
    required: bool = False


_WINDOWS = ("windows", "tongues")  # the subcommands that solve window edges
_OPTIONS = {
    "input": _Option(str, dict.fromkeys(_LOCKING), "definition file (JSON)", required=True),
    "out": _Option(str, dict.fromkeys(_ALL, "out"), "output directory"),
    "seed": _Option(int, dict.fromkeys(_ALL, 0), "RNG seed recorded in outputs", least=0),
    "workers": _Option(int, dict.fromkeys(_LOCKING, 0),
                       "worker processes; 0 = all usable cores, 1 = serial reference", least=0),
    "qmax": _Option(int, dict.fromkeys(_LOCKING, 30), "largest lock denominator searched",
                    least=1, most=dict.fromkeys(_LOCKING, "rotation.MAX_LOCK_Q")),
    "tol": _Option(float, dict.fromkeys(_WINDOWS, 1e-6), "window bracket tolerance", least=0.0),
    "grid": _Option(int, dict.fromkeys(_WINDOWS + ("dio",), 0),
                    "grid resolution override; 0 = the subcommand's default", least=0,
                    most=dict.fromkeys(_WINDOWS, "rotation.MAX_LOCK_GRID")),
    "niter": _Option(int, dict.fromkeys(("rho", "windows", "skew", "theoremA"), 0),
                     "rotation-estimate iterate count; 0 = the subcommand's default", least=0),
    "t": _Option(str, dict.fromkeys(("rho", "skew")), "comma list of parameter values"),
    "t_range": _Option(str, dict.fromkeys(("rho", "skew")), "a:b:n uniform sweep"),
    "samples": _Option(int, {"windows": 2000, "theoremA": 10_000}, "Monte Carlo sample count",
                       least=1, most=dict.fromkeys(("windows", "theoremA"), MAX_SAMPLES)),
    "deltas": _Option(str, {"tongues": None}, "comma list or a:b:n amplitude grid",
                      required=True),
    "C": _Option(str, {"dio": None}, "comma list of constants C", required=True),
    "nmax": _Option(int, {"dio": 1000, "skew": 4, "theoremA": 6},
                    "frequency cutoff (dio) or largest circle period", least=1,
                    most={"dio": "diophantine.MAX_N_MAX"}),
    "R": _Option(float, {"skew": 0.5}, "closeness-to-identity threshold", least=0.0,
                 most={"skew": 1.0}),
    "eta_families": _Option(int, {"theoremA": 8}, "sampled families per norm level", least=1,
                            most={"theoremA": MAX_ETA_FAMILIES}),
    "eta_samples": _Option(int, {"theoremA": 2000}, "Monte Carlo samples per sampled family",
                           least=1, most={"theoremA": MAX_SAMPLES}),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


@dataclass
class RunConfig:
    """Effective options for one subcommand invocation."""

    subcommand: str
    values: dict = field(default_factory=dict)
    where: dict = field(default_factory=dict)  # the layer of each value set
    t0: float = 0.0

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name)

    def dump(self, outdir):
        payload = {**self.values, "subcommand": self.subcommand, "tool_version": __version__}
        io._atomic_write(
            os.path.join(outdir, "run_config.json"),
            (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(),
        )


def _coerce(key: str, value, where: str):
    kind = _OPTIONS[key].type
    try:
        # int() would run a config file's JSON true or 5.7 as 1 or 5
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError(value)
        return kind(value)
    except (TypeError, ValueError):
        raise InputError(f"{where}: bad value for {key!r}: {value!r}")


def _origin(where: dict, key: str) -> str:
    """The prefix of an error about option ``key``: the variable or config
    file its value came from (``where`` by key), or nothing for its flag or
    default."""
    source = where.get(key, _flag(key))
    return "" if source == _flag(key) else f"{source}: "


def _check_ranges(sub: str, values: dict, where: dict):
    """The range of every option and the presence of the required ones,
    checked once after the layers are merged and before any file is read."""
    for key, value in values.items():
        opt, flag, source = _OPTIONS[key], _flag(key), _origin(where, key)
        lo, hi = opt.least, opt.most.get(sub, math.inf)
        if isinstance(hi, str):
            module, name = hi.split(".")
            hi = getattr(importlib.import_module(f".{module}", __package__), name)
        if opt.type is int and not lo <= value <= hi:
            limit = f">= {lo}" if value < lo else f"<= {hi} for {sub}"
            raise InputError(f"{source}{flag} must be {limit}, got {value}")
        if opt.type is float and not lo < value < hi:
            raise InputError(f"{source}{flag} must lie in ({lo:g}, {hi:g}), got {value}")
        if opt.required and not value:
            raise InputError(f"{source}{flag} is required")


def _check_window_tol(cfg: RunConfig, winding):
    """Windows of neighbouring lift rationals p/q (q <= qmax) have seeds at
    least 1/(winding qmax^2) apart, and the edge solver widens its first
    bracket by 4 tol on each side of a seed; tol below a quarter of that
    gap keeps the widening from reaching the next seed."""
    bound = 1.0 / (4.0 * winding * cfg.qmax ** 2)
    if not cfg.tol < bound:
        raise InputError(f"{_origin(cfg.where, 'tol')}--tol must be < 1/(4 winding qmax^2) = "
                         f"{bound:.6g} for winding {winding} and --qmax {cfg.qmax}, "
                         f"got {cfg.tol}")


def _merge_config(sub: str, args: argparse.Namespace) -> RunConfig:
    own = [key for key, opt in _OPTIONS.items() if sub in opt.defaults]
    values = {key: _OPTIONS[key].defaults[sub] for key in own}
    where = {}  # the layer each value that is not a default came from

    def take(key, value, source):
        values[key], where[key] = _coerce(key, value, source), source

    if args.config:
        raw = io.load_json(args.config)
        if not isinstance(raw, dict):
            raise InputError(f"{args.config}: a config file must hold one JSON object")
        for k, v in raw.items():
            key = k.replace("-", "_")
            if key not in _OPTIONS and key not in _DUMP_KEYS:
                raise InputError(f"{args.config}: {k!r} names no option")
            if key in own and v is not None:
                take(key, v, args.config)
    for key in own:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            take(key, env, ENV_PREFIX + key.upper())
        # argparse hands a list, not a number, to ``--qmax=--``
        if getattr(args, key) is not None:
            take(key, getattr(args, key), _flag(key))
    _check_ranges(sub, values, where)
    return RunConfig(sub, {k: v for k, v in values.items() if v is not None}, where)


def _workers(cfg: RunConfig) -> int:
    if hasattr(os, "sched_getaffinity"):  # the cores this process may run on
        return cfg.workers or len(os.sched_getaffinity(0))
    return cfg.workers or os.cpu_count() or 1


class _Pool:
    """Order-preserving map over a worker pool; workers == 1 stays serial."""

    def __init__(self, workers: int):
        self.workers = workers
        self._pool = None

    def __enter__(self):
        if self.workers > 1:
            import concurrent.futures

            self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.workers)
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()

    def map(self, fn, items):
        items = list(items)
        if self._pool is None or len(items) <= 1:
            return [fn(x) for x in items]
        return list(self._pool.map(fn, items, chunksize=max(1, len(items) // (4 * self.workers))))

    __call__ = map  # a map_fn that tells its worker count


def _floats(cfg: RunConfig, key: str, sweep: bool = False) -> list:
    """Finite floats from option ``key``: a comma list, or a:b:n (n points
    from a to b, 1 <= n <= ``MAX_SAMPLES``)."""
    raw, name = cfg.values[key], _origin(cfg.where, key) + _flag(key)
    try:
        if sweep:
            a, b, n = raw.split(":")
            if not 1 <= int(n) <= MAX_SAMPLES:
                raise InputError(f"{name} must have 1 <= n <= {MAX_SAMPLES}, got {raw!r}")
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                out = np.linspace(float(a), float(b), int(n)).tolist()
        else:
            out = [float(v) for v in raw.split(",")]
        if all(map(math.isfinite, out)):
            return out
    except ValueError:
        pass
    form = "a:b:n" if sweep else "a comma list of numbers"
    raise InputError(f"{name} expects {form}, all finite, got {raw!r}")


def _parse_t_values(cfg: RunConfig):
    ts = _floats(cfg, "t") if cfg.values.get("t") else []
    if cfg.values.get("t_range"):
        ts += _floats(cfg, "t_range", sweep=True)
    if not ts:
        raise InputError("no parameter values: pass --t and/or --t-range")
    return ts


def cmd_rho(cfg: RunConfig) -> int:
    from . import rotation

    fam = io.load_family(cfg.input)
    fam.check_diffeo()
    ts = _parse_t_values(cfg)
    n_iter = cfg.niter or rotation.DEFAULT_N_ITER
    with _Pool(_workers(cfg)) as pool:
        results = rotation.classify_batch(fam, ts, q_max=cfg.qmax, n_iter=n_iter,
                                          map_fn=pool)
    rows = [(t, r.estimate, r.error_bound, r.classification, r.p, r.q)
            for t, r in zip(ts, results)]
    _finish(cfg, {"rho.csv": ("rho", rows)}, inputs={"family": cfg.input})
    return 0


def cmd_windows(cfg: RunConfig) -> int:
    from . import rotation, windows

    fam = io.load_family(cfg.input)
    _check_window_tol(cfg, fam.winding)
    with _Pool(_workers(cfg)) as pool:
        ws = windows.enumerate_windows(fam, cfg.qmax, tol=cfg.tol, grid=cfg.grid or None,
                                       map_fn=pool)
    lm = windows.locked_measure(fam, cfg.qmax, cfg.samples, tol=cfg.tol, seed=cfg.seed,
                                windows=ws, n_iter=cfg.niter or rotation.CLASSIFY_N_ITER,
                                grid=cfg.grid or None)
    files = {
        "windows.csv": ("windows", [
            (w.p, w.q, w.t_lo, w.t_hi, w.width, w.bracket_radius) for w in ws
        ]),
        "measure.csv": ("measure", [(cfg.qmax, lm.lower, lm.mc, lm.unresolved_frac, cfg.seed)]),
    }
    _finish(cfg, files, inputs={"family": cfg.input},
            report_tables={"mc_iterates": (("samples", "iterates", "decided_by_windows"),
                                           [(cfg.samples, lm.iterates, lm.decided)])})
    return 0


def cmd_tongues(cfg: RunConfig) -> int:
    from . import windows

    profile = io.load_family(cfg.input)
    _check_window_tol(cfg, profile.winding)
    deltas = _floats(cfg, "deltas", sweep=":" in cfg.deltas)
    rows = []
    with _Pool(_workers(cfg)) as pool:
        for d in deltas:
            ws = windows.enumerate_windows(profile.scaled(d), cfg.qmax, tol=cfg.tol,
                                           grid=cfg.grid or None, map_fn=pool)
            rows += [(d, w.p, w.q, w.t_lo, w.t_hi) for w in ws]
    _finish(cfg, {"tongues.csv": ("tongues", rows)}, inputs={"family": cfg.input})
    return 0


def cmd_dio(cfg: RunConfig) -> int:
    from . import diophantine

    try:
        params = [diophantine.DioParams(c, cfg.nmax, cfg.grid or 100_000)
                  for c in _floats(cfg, "C")]
    except ValueError as e:
        raise InputError(f"{_origin(cfg.where, 'C')}--C: {e}")
    rows, exact = [], []
    for p in params:
        m = diophantine.dio_measure(p)
        rows.append((p.C, p.n_max, m.estimate, m.analytic_lower, m.grid_error))
        exact.append((p.C, p.n_max, m.estimate, m.exact_error))
    _finish(cfg, {"dio.csv": ("dio", rows)}, inputs={},
            report_tables={"dio_exact": (("C", "n_max", "exact", "exact_error"), exact)})
    return 0


def cmd_skew(cfg: RunConfig) -> int:
    from . import rotation, skew

    F = io.load_skew(cfg.input)
    # every m >= 2 passes the cap by the 64th power, so no huge power is taken
    if F.m ** min(cfg.nmax, 64) - 1 > skew.MAX_CIRCLES:
        raise InputError(f"{_origin(cfg.where, 'nmax')}--nmax must keep m^nmax - 1 <= "
                         f"{skew.MAX_CIRCLES} for skew, got nmax {cfg.nmax} for m = {F.m}")
    ts = _parse_t_values(cfg)
    n_iter = cfg.niter or rotation.CLASSIFY_N_ITER
    checks = skew.circle_checks(F, cfg.nmax, cfg.R)
    eligible = [(c, rf, sup_c3) for c, rf, sup_c3, ok, _ in checks if ok]
    search = functools.partial(skew.quasi_search, F, n_max=cfg.nmax, q_max=cfg.qmax,
                               R=cfg.R, n_iter=n_iter, candidates=eligible)
    with _Pool(_workers(cfg)) as pool:
        hits = pool.map(search, ts)
    search_rows = [
        (t, False, None, None, None, "none") if hit is None
        else (t, True, hit[0].k, hit[0].n, hit[1].estimate, hit[1].classification)
        for t, hit in zip(ts, hits)
    ]
    files = {
        "circles.csv": ("circles", [
            (c.k, c.n, c.x0.numerator, c.x0.denominator, sup_c3, ok)
            for c, _, sup_c3, ok, _ in checks
        ]),
        "search.csv": ("search", search_rows),
    }
    decided_by = [(c.k, c.n, by) for c, _, _, _, by in checks]
    _finish(cfg, files, inputs={"skew": cfg.input},
            hypotheses={"R": cfg.R, "n_max": cfg.nmax},
            report_tables={"c3_decided_by": (("k", "n", "decided_by"), decided_by)})
    return 0


def cmd_theoremA(cfg: RunConfig) -> int:
    from . import experiments, rotation, skew

    F = io.load_skew(cfg.input)
    n_iter = cfg.niter or rotation.CLASSIFY_N_ITER
    fams = skew.first_per_period(F, cfg.nmax)
    with _Pool(_workers(cfg)) as pool:
        res = experiments.intersection_measure(fams, cfg.samples, q_max=cfg.qmax,
                                               seed=cfg.seed, n_iter=n_iter, map_fn=pool)
        r_star = max(res.norms)
        ec = experiments.eta_curve([r_star * k / 4.0 for k in range(1, 5)], cfg.eta_families,
                                   q_max=cfg.qmax, seed=cfg.seed, mc_samples=cfg.eta_samples,
                                   n_iter=n_iter, map_fn=pool)
    inter_rows = [
        (i + 1, mu, mp) for i, (mu, mp) in enumerate(zip(res.mu_locked, res.mu_pessimistic))
    ]
    eta_rows = list(zip(ec.r, ec.eta, ec.eta_raw))
    files = {
        "intersection.csv": ("intersection", inter_rows),
        "eta.csv": ("eta", eta_rows),
    }
    classified = [(i + 1, c) for i, c in enumerate(res.classified)]
    iterates = [(i + 1, n) for i, n in enumerate(res.iterates)]
    eta_iterates = [(r, i + 1, n) for r, level in zip(ec.r, ec.iterates)
                    for i, n in enumerate(level)]
    # certified for every t, where the grid norms that set r_star are not
    norm_bounds = [max(f.c3_bound(), f.dt_sup_bound()) for f in fams]
    _finish(
        cfg, files, inputs={"skew": cfg.input},
        report_tables={"intersection_classified": (("N", "classified"), classified),
                       "intersection_iterates": (("N", "iterates"), iterates),
                       "eta_iterates": (("r", "family", "iterates"), eta_iterates)},
        hypotheses={
            "norms": list(res.norms),
            "windings": list(res.windings),
            "windings_increasing": res.windings_increasing,
            "norms_below_one": all(v < 1.0 for v in res.norms),
            "norm_bounds": norm_bounds,
            "norm_bounds_below_one": all(v < 1.0 for v in norm_bounds),
            "conforming": res.conforming,
            "eta_at_max_norm": ec.at(r_star),
        },
    )
    return 0


def _finish(cfg: RunConfig, files: dict, inputs: dict, hypotheses: dict | None = None,
            report_tables: dict | None = None):
    """Write the CSVs (file name -> (schema, rows)), then the report and the
    effective config, each atomically, once every result is computed.  The
    report lists each CSV's data rows and bytes under ``outputs`` and holds
    no CSV row; ``report_tables`` (name -> (header, rows)) go into the
    report only.  A rerun with the same inputs and seed reproduces every
    file but the report's wall clock."""
    outputs = {}
    for fname, (schema, rows) in files.items():
        size = io.write_csv(os.path.join(cfg.out, fname), io.CSV_SCHEMAS[schema], rows)
        outputs[fname] = {"rows": len(rows), "bytes": size}
    io.write_report(os.path.join(cfg.out, "report.json"), {
        "experiment": cfg.subcommand,
        "tool_version": __version__,
        "inputs": {**inputs, "config": dict(sorted(cfg.values.items()))},
        "input_hashes": {name: io.hash_file(path) for name, path in inputs.items()
                         if isinstance(path, str) and os.path.exists(path)},
        "hypotheses": hypotheses or {},
        "outputs": outputs,
        "tables": {name: {"header": list(header),
                          "rows": [[io.fmt_cell(v) for v in row] for row in rows]}
                   for name, (header, rows) in (report_tables or {}).items()},
        "wall_clock_s": time.perf_counter() - (cfg.t0 or time.perf_counter()),
    })
    cfg.dump(cfg.out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="circledyn",
        description="Rotation numbers, locking windows, Diophantine sets and "
                    "quasiperiodic-circle searches for circle maps and torus "
                    "skew products.",
    )
    ap.add_argument("--version", action="version", version=f"circledyn {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, text in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key, opt in _OPTIONS.items():
            if name in opt.defaults:
                default = opt.defaults[name]
                p.add_argument(_flag(key), dest=key, type=None if opt.type is str else opt.type,
                               help=opt.help if default is None else f"{opt.help} (default {default})")
        p.set_defaults(func=globals()["cmd_" + name])
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args.subcommand, args)
        cfg.t0 = time.perf_counter()
        return args.func(cfg)
    except (DegenerateFamily, DegenerateFiber) as e:
        print(f"degenerate map: {e}", file=sys.stderr)
        return 3
    except HypothesisViolation as e:
        print(f"hypothesis violation: {e}", file=sys.stderr)
        return 4
    except CircledynError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
