"""Command-line front end.

Subcommands: rho, windows, tongues, dio, skew, theoremA.  Option precedence
is flags > environment (CIRCLEDYN_<NAME>) > config file > defaults; the
effective configuration is dumped into every output directory.  All outputs
are computed first and then written atomically, so failures leave no
partial files.

Exit codes: 0 success, 2 input error, 3 degenerate map, 4 hypothesis
violation.
"""

from __future__ import annotations

import argparse
import concurrent.futures as cf
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, io, rotation, skew, windows
from .diophantine import MAX_N_MAX, DioParams, dio_measure
from .errors import (
    CircledynError,
    DegenerateFamily,
    DegenerateFiber,
    HypothesisViolation,
    InputError,
)
from .experiments import eta_curve, intersection_measure

ENV_PREFIX = "CIRCLEDYN_"

_DEFAULTS = {
    "seed": 0,
    "workers": 0,  # 0 = available parallelism
    "qmax": 30,
    "tol": 1e-6,
    "grid": 0,  # 0 = per-command default
    "niter": 0,  # 0 = per-command default
    "out": "out",
    "label": "",
}

# per-subcommand defaults, merged over the common ones before any other
# layer, so that an explicit 0 reaches the range check
_COMMAND_DEFAULTS = {
    "windows": {"samples": 2000},
    "dio": {"nmax": 1000},
    "skew": {"nmax": 4, "R": 0.5},
    "theoremA": {"nmax": 6, "samples": 10_000, "eta_families": 8, "eta_samples": 2000},
}

# smallest allowed value of each integer option; 0 means "default" for
# grid and niter and "all cores" for workers
_AT_LEAST = {
    "qmax": 1, "nmax": 1, "samples": 1, "eta_families": 1, "eta_samples": 1,
    "niter": 0, "grid": 0, "workers": 0, "seed": 0,
}

_TYPES = {
    "seed": int, "workers": int, "qmax": int, "grid": int, "niter": int,
    "tol": float, "R": float, "nmax": int, "samples": int,
    "eta_families": int, "eta_samples": int, "t": str, "t_range": str,
    "deltas": str, "C": str, "input": str, "out": str, "label": str,
}


@dataclass
class RunConfig:
    """Effective options for one subcommand invocation."""

    subcommand: str
    values: dict = field(default_factory=dict)
    t0: float = 0.0

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name)

    def dump(self, outdir):
        payload = dict(sorted(self.values.items()))
        payload["subcommand"] = self.subcommand
        payload["tool_version"] = __version__
        io._atomic_write(
            os.path.join(outdir, "run_config.json"),
            (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(),
        )


def _coerce(key: str, value, where: str):
    try:
        return _TYPES.get(key, str)(value)
    except (TypeError, ValueError):
        raise InputError(f"{where}: bad value for {key!r}: {value!r}")


def _check_ranges(values: dict):
    for key, low in _AT_LEAST.items():
        if key in values and values[key] < low:
            raise InputError(f"--{key.replace('_', '-')} must be >= {low}, got {values[key]}")
    if not (math.isfinite(values["tol"]) and values["tol"] > 0.0):
        raise InputError(f"--tol must be finite and > 0, got {values['tol']}")
    if "R" in values and not 0.0 < values["R"] < 1.0:
        raise InputError(f"--R must lie in (0, 1), got {values['R']}")


def _check_window_tol(cfg: RunConfig, winding):
    """Windows of neighbouring lift rationals p/q (q <= qmax) have seeds at
    least 1/(winding qmax^2) apart, and the edge solver widens its first
    bracket by 4 tol on each side of a seed; tol below a quarter of that
    gap keeps the widening from reaching the next seed."""
    bound = 1.0 / (4.0 * winding * cfg.qmax ** 2)
    if not cfg.tol < bound:
        raise InputError(f"--tol must be < 1/(4 winding qmax^2) = {bound:.6g} for "
                         f"winding {winding} and --qmax {cfg.qmax}, got {cfg.tol}")


def _check_lock_grid(cfg: RunConfig):
    """Lock checks at denominators up to --qmax, and on --grid points when
    it is given, must stay within ``rotation.MAX_LOCK_GRID``."""
    try:
        rotation.lock_grid_size(cfg.qmax)
    except ValueError as e:
        raise InputError(f"--qmax: {e}")
    if cfg.grid > rotation.MAX_LOCK_GRID:
        raise InputError(f"--grid must be <= 2^24 = {rotation.MAX_LOCK_GRID} for lock "
                         f"checks, got {cfg.grid}")


def _merge_config(sub: str, args: argparse.Namespace) -> RunConfig:
    values = {**_DEFAULTS, **_COMMAND_DEFAULTS.get(sub, {})}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        raw = io.load_json(cfg_path)
        if not isinstance(raw, dict):
            raise InputError(f"{cfg_path}: a config file must hold one JSON object")
        for k, v in raw.items():
            key = k.replace("-", "_")
            if v is not None:
                values[key] = _coerce(key, v, cfg_path)
    for key in _TYPES:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            values[key] = _coerce(key, env, ENV_PREFIX + key.upper())
    for key, val in vars(args).items():
        if key in ("config", "func") or val is None:
            continue
        # argparse hands a list, not a number, to ``--qmax=--``
        values[key] = _coerce(key, val, f"--{key.replace('_', '-')}")
    _check_ranges(values)
    return RunConfig(sub, values)


def _workers(cfg: RunConfig) -> int:
    return cfg.workers or os.cpu_count() or 1


class _Pool:
    """Order-preserving map over a worker pool; workers == 1 stays serial."""

    def __init__(self, workers: int):
        self.workers = workers
        self._pool = None

    def __enter__(self):
        if self.workers > 1:
            self._pool = cf.ProcessPoolExecutor(max_workers=self.workers)
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


def _floats(raw: str, flag: str, sweep: bool = False) -> list:
    """Finite floats from a comma list, or from a:b:n (n points from a to b)."""
    try:
        if sweep:
            a, b, n = raw.split(":")
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                out = np.linspace(float(a), float(b), int(n)).tolist()
        else:
            out = [float(v) for v in raw.split(",")]
        if all(map(math.isfinite, out)):
            return out
    except ValueError:
        pass
    form = "a:b:n" if sweep else "a comma list of numbers"
    raise InputError(f"{flag} expects {form}, all finite, got {raw!r}")


def _parse_t_values(cfg: RunConfig):
    ts = []
    if cfg.values.get("t"):
        ts += _floats(str(cfg.t), "--t")
    if cfg.values.get("t_range"):
        ts += _floats(str(cfg.t_range), "--t-range", sweep=True)
    if not ts:
        raise InputError("no parameter values: pass --t and/or --t-range")
    return ts


def cmd_rho(cfg: RunConfig) -> int:
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
    fam = io.load_family(cfg.input)
    _check_window_tol(cfg, fam.winding)
    with _Pool(_workers(cfg)) as pool:
        ws = windows.enumerate_windows(fam, cfg.qmax, tol=cfg.tol, grid=cfg.grid or None,
                                       map_fn=pool.map)
    lm = windows.locked_measure(fam, cfg.qmax, cfg.samples, tol=cfg.tol, seed=cfg.seed,
                                windows=ws, n_iter=cfg.niter or rotation.CLASSIFY_N_ITER)
    files = {
        "windows.csv": ("windows", [
            (w.p, w.q, w.t_lo, w.t_hi, w.width, w.bracket_radius) for w in ws
        ]),
        "measure.csv": ("measure", [(cfg.qmax, lm.lower, lm.mc, lm.unresolved_frac, cfg.seed)]),
    }
    _finish(cfg, files, inputs={"family": cfg.input},
            report_tables={"mc_iterates": (("samples", "iterates"),
                                           [(cfg.samples, lm.iterates)])})
    return 0


def cmd_tongues(cfg: RunConfig) -> int:
    profile = io.load_family(cfg.input)
    _check_window_tol(cfg, profile.winding)
    raw = cfg.values.get("deltas")
    if not raw:
        raise InputError("--deltas is required (comma list or a:b:n)")
    deltas = _floats(str(raw), "--deltas", sweep=":" in str(raw))
    with _Pool(_workers(cfg)) as pool:
        td = windows.tongue_diagram(profile, deltas, cfg.qmax, tol=cfg.tol,
                                    grid=cfg.grid or None, map_fn=pool.map)
    rows = [(d, w.p, w.q, w.t_lo, w.t_hi) for d, ws in zip(td.deltas, td.windows) for w in ws]
    _finish(cfg, {"tongues.csv": ("tongues", rows)}, inputs={"family": cfg.input})
    return 0


def cmd_dio(cfg: RunConfig) -> int:
    if cfg.nmax > MAX_N_MAX:
        raise InputError(f"--nmax must be <= 2^16 = {MAX_N_MAX} for dio, whose exact "
                         f"measure unions nmax (nmax + 3) / 2 intervals, got {cfg.nmax}")
    raw = cfg.values.get("C")
    if not raw:
        raise InputError("--C is required (one value or a comma list)")
    try:
        params = [DioParams(c, cfg.nmax, cfg.grid or 100_000) for c in _floats(str(raw), "--C")]
    except ValueError as e:
        raise InputError(f"--C: {e}")
    rows, exact = [], []
    for p in params:
        m = dio_measure(p)
        rows.append((p.C, p.n_max, m.estimate, m.analytic_lower, m.grid_error))
        exact.append((p.C, p.n_max, m.estimate, m.exact_error))
    _finish(cfg, {"dio.csv": ("dio", rows)}, inputs={},
            report_tables={"dio_exact": (("C", "n_max", "exact", "exact_error"), exact)})
    return 0


def cmd_skew(cfg: RunConfig) -> int:
    F = io.load_skew(cfg.input)
    ts = _parse_t_values(cfg)
    n_iter = cfg.niter or rotation.CLASSIFY_N_ITER
    checks = skew.circle_checks(F, cfg.nmax, cfg.R)
    eligible = [(c, rf, sup_c3) for c, rf, sup_c3, ok in checks if ok]
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
            for c, _, sup_c3, ok in checks
        ]),
        "search.csv": ("search", search_rows),
    }
    _finish(cfg, files, inputs={"skew": cfg.input},
            hypotheses={"R": cfg.R, "n_max": cfg.nmax})
    return 0


def cmd_theoremA(cfg: RunConfig) -> int:
    F = io.load_skew(cfg.input)
    n_iter = cfg.niter or rotation.CLASSIFY_N_ITER
    fams = skew.first_per_period(F, cfg.nmax)
    with _Pool(_workers(cfg)) as pool:
        res = intersection_measure(fams, cfg.samples, q_max=cfg.qmax, seed=cfg.seed,
                                   n_iter=n_iter, map_fn=pool)
        r_star = max(res.norms)
        ec = eta_curve(
            [r_star * k / 4.0 for k in range(1, 5)],
            cfg.eta_families,
            q_max=cfg.qmax,
            seed=cfg.seed,
            mc_samples=cfg.eta_samples,
            n_iter=n_iter,
            map_fn=pool.map,
        )
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
    _finish(
        cfg, files, inputs={"skew": cfg.input},
        report_tables={"intersection_classified": (("N", "classified"), classified),
                       "intersection_iterates": (("N", "iterates"), iterates)},
        hypotheses={
            "norms": list(res.norms),
            "windings": list(res.windings),
            "windings_increasing": res.windings_increasing,
            "norms_below_one": all(v < 1.0 for v in res.norms),
            "conforming": res.conforming,
            "eta_at_max_norm": ec.at(r_star),
        },
    )
    return 0


def _finish(cfg: RunConfig, files: dict, inputs: dict, hypotheses: dict | None = None,
            report_tables: dict | None = None):
    """Write the report, effective config, and CSVs atomically, in that order
    of assembly: everything is computed before the first byte lands.
    ``report_tables`` (name -> (header, rows)) go into the report only."""
    outdir = cfg.out
    os.makedirs(outdir, exist_ok=True)
    report = io.ExperimentReport(
        experiment=cfg.subcommand,
        tool_version=__version__,
        inputs={**inputs, "config": {k: v for k, v in sorted(cfg.values.items())}},
        input_hashes={
            name: io.hash_file(path)
            for name, path in inputs.items()
            if isinstance(path, str) and os.path.exists(path)
        },
        hypotheses=hypotheses or {},
        wall_clock_s=time.time() - (cfg.t0 or time.time()),
    )
    for fname, (schema, rows) in files.items():
        report.add_table(fname.removesuffix(".csv"), io.CSV_SCHEMAS[schema], rows)
        io.write_csv(os.path.join(outdir, fname), io.CSV_SCHEMAS[schema], rows)
    for name, (header, rows) in (report_tables or {}).items():
        report.add_table(name, header, rows)
    io.write_report(os.path.join(outdir, "report.json"), report)
    cfg.dump(outdir)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="circledyn",
        description="Rotation numbers, locking windows, Diophantine sets and "
                    "quasiperiodic-circle searches for circle maps and torus "
                    "skew products.",
    )
    ap.add_argument("--version", action="version", version=f"circledyn {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", help="definition file (JSON)")
        p.add_argument("--out", help="output directory (default ./out)")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, help="RNG seed recorded in outputs")
        p.add_argument("--workers", type=int,
                       help="worker processes; 0 = all cores, 1 = serial reference")
        p.add_argument("--qmax", type=int, help="largest lock denominator searched")
        p.add_argument("--tol", type=float, help="window bracket tolerance")
        p.add_argument("--grid", type=int, help="grid resolution override")
        p.add_argument("--niter", type=int, help="rotation-estimate iterate count")

    p = sub.add_parser("rho", help="rotation numbers with error bars along a t sweep")
    common(p)
    p.add_argument("--t", help="comma list of parameter values")
    p.add_argument("--t-range", dest="t_range", help="a:b:n uniform sweep")
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("windows", help="certified locking windows plus measure summary")
    common(p)
    p.add_argument("--samples", type=int, help="Monte Carlo sample count")
    p.set_defaults(func=cmd_windows)

    p = sub.add_parser("tongues", help="windows across an amplitude grid")
    common(p)
    p.add_argument("--deltas", help="comma list or a:b:n amplitude grid")
    p.set_defaults(func=cmd_tongues)

    p = sub.add_parser("dio", help="Diophantine membership measure")
    common(p, needs_input=False)
    p.add_argument("--C", help="comma list of constants C")
    p.add_argument("--nmax", type=int, help="frequency cutoff (default 1000)")
    p.set_defaults(func=cmd_dio)

    p = sub.add_parser("skew", help="periodic circles, C3 filter, quasiperiodic search")
    common(p)
    p.add_argument("--nmax", type=int, help="largest circle period (default 4)")
    p.add_argument("--R", type=float, help="closeness-to-identity threshold (default 0.5)")
    p.add_argument("--t", help="comma list of parameter values")
    p.add_argument("--t-range", dest="t_range", help="a:b:n uniform sweep")
    p.set_defaults(func=cmd_skew)

    p = sub.add_parser("theoremA", help="intersection-measure decay experiment "
                                        "over restricted families")
    common(p)
    p.add_argument("--nmax", type=int, help="restrict to periods 1..nmax (default 6)")
    p.add_argument("--samples", type=int, help="Monte Carlo sample count")
    p.add_argument("--eta-families", dest="eta_families", type=int,
                   help="sampled families per norm level")
    p.add_argument("--eta-samples", dest="eta_samples", type=int,
                   help="Monte Carlo samples per sampled family")
    p.set_defaults(func=cmd_theoremA)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args.subcommand, args)
        cfg.t0 = time.time()
        if args.subcommand != "dio":
            if cfg.values.get("input") is None:
                raise InputError("--input is required")
            _check_lock_grid(cfg)
        code = args.func(cfg)
        return code
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
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
