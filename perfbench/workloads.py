"""Seeded workloads for the circledyn CLI benchmark: input generation,
output checks against independent references, and the unresolved share.

Each workload turns the benchmark seed into definition files and a flag
list; the program sees nothing else.  The seed moves the inputs without
moving the amount of work: maps get a seeded phase (a rotation of the
circle coordinate, which conjugates the dynamics and so keeps every rotation
number and window), t lists and C values are drawn from it, and the
Monte Carlo stream the CLI draws from is fixed per workload by ``CLI_SEED``.
A seeded Monte Carlo stream would make ``unresolved_frac`` a binomial count
of a few dozen samples, whose spread across benchmark seeds hides any change
a program edit makes to it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import dio_exact

TAU = 2.0 * math.pi
CLI_SEED = 1
PHASE_GRID = 4096

NAMES = ("windows-arnold", "theoremA-skew", "theoremA-par", "skew-search", "dio-sets")

# windows-arnold: theta + t + a sin 2 pi (theta + phase)
ARNOLD_AMP = 0.125
WINDOWS_QMAX = 12
WINDOWS_TOL = 1e-6
WINDOWS_SAMPLES = 1000
RHO_CHECK_ITER = 4000

# theoremA-*: x-independent Arnold skew map, fiber C3 size 0.05
THEOREM_C3 = 0.05
THEOREM_NMAX = 3
THEOREM_SAMPLES = 300
THEOREM_ETA_FAMILIES = 1
THEOREM_ETA_SAMPLES = 100

# skew-search: x-dependent fibers, C3 filter at R
SKEW_NMAX = 4
SKEW_R = 0.5
SKEW_GENERIC_T = 10
SKEW_RATIONAL_T = 1
SKEW_RATIONAL_QMAX = 12
SKEW_QUASI_CHECKS = 2
SEARCH_QMAX = 30  # the CLI's default --qmax, which skew-search keeps

# dio-sets
DIO_CS = 3
# grid_error = n_max (n_max + 1) / 2 / grid = 0.003 is the tolerance of the
# exact-measure check, so the check can fail on errors of a few 1e-3
DIO_NMAX = 60
DIO_GRID = 600_000


@dataclass
class Workload:
    """One generated workload: the CLI arguments (without ``--out``), the
    arguments of the set-up probe, the seed-derived values the checks use,
    and the sha256 of every generated input file."""

    name: str
    seed: int
    argv: list
    setup: list
    params: dict = field(default_factory=dict)
    input_sha256: dict = field(default_factory=dict)

    @property
    def n_t(self) -> int:
        """Parameter values a ``skew`` search visits (1 for other commands)."""
        return len(self.params.get("t", [])) or 1

    def serial_argv(self) -> list:
        """The same CLI call with ``--workers 1``."""
        argv = list(self.argv)
        argv[argv.index("--workers") + 1] = "1"
        return argv


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _rng(name: str, seed: int) -> np.random.Generator:
    # theoremA-par shares theoremA-skew's inputs
    key = "theoremA-skew" if name == "theoremA-par" else name
    return np.random.default_rng([int(seed), NAMES.index(key)])


def _write_json(root: str, fname: str, payload: dict, wl_hashes: dict) -> str:
    path = os.path.join(root, fname)
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    wl_hashes[fname] = hashlib.sha256(data).hexdigest()
    return path


def _phase(rng: np.random.Generator) -> float:
    """A seeded phase on the 1/4096 lattice.  The lock checks sample theta on
    grids of 4096 * 2^k points, so such a shift only permutes the sampled
    values: outcomes stay those of phase 0 up to rounding, and the few
    samples that sit at a certification margin do not flip between seeds."""
    return int(rng.integers(PHASE_GRID)) / PHASE_GRID


def _far_from_rationals(t: float, q_max: int) -> bool:
    """True when |t - p/q| > 1e-3 / q for every p/q with q <= q_max.

    Closer to a low-denominator rational, the one-stage circle's lock check
    is undecided at the default grid and the search moves on to further
    circles, so one such t can add a third to a call's work.  Generic t
    are meant to stop at the first circle."""
    return all(abs(t - round(t * q) / q) > 1e-3 / q for q in range(1, q_max + 1))


def _phased(amp: float, phase: float):
    """(a, b) of amp * sin(2 pi (y + phase)) = a cos(2 pi y) + b sin(2 pi y)."""
    return amp * math.sin(TAU * phase), amp * math.cos(TAU * phase)


def generate(name: str, seed: int, root: str) -> Workload:
    """Write the workload's definition files into ``root`` and return it."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = _rng(name, seed)
    hashes: dict = {}
    common = ["--seed", str(CLI_SEED)]
    if name == "windows-arnold":
        phase = _phase(rng)
        a, b = _phased(ARNOLD_AMP, phase)
        path = _write_json(root, "family.json", {
            "label": "arnold-phased", "winding": 1, "const": [0.0],
            "harmonics": [{"j": 1, "a": [a], "b": [b]}],
        }, hashes)
        argv = ["windows", "--input", path, "--qmax", str(WINDOWS_QMAX),
                "--tol", repr(WINDOWS_TOL), "--samples", str(WINDOWS_SAMPLES),
                "--workers", "1"] + common
        return Workload(name, seed, argv, ["family", path],
                        {"amp": ARNOLD_AMP, "phase": phase}, hashes)
    if name in ("theoremA-skew", "theoremA-par"):
        phase = _phase(rng)
        amp = THEOREM_C3 / TAU ** 3  # gallery.c3_scaled_amplitude
        a, b = _phased(amp, phase)
        path = _write_json(root, "skew.json", {
            "label": "arnold-skew-phased", "m": 2,
            "harmonics": [{"jx": 0, "jy": 1, "a": [a], "b": [b]}],
        }, hashes)
        workers = max(2, nproc()) if name == "theoremA-par" else 1
        # --qmax stays at the CLI default (30), so both lock-grid tiers appear
        argv = ["theoremA", "--input", path, "--nmax", str(THEOREM_NMAX),
                "--samples", str(THEOREM_SAMPLES),
                "--eta-families", str(THEOREM_ETA_FAMILIES),
                "--eta-samples", str(THEOREM_ETA_SAMPLES),
                "--workers", str(workers)] + common
        return Workload(name, seed, argv, ["skew", path, str(THEOREM_NMAX)],
                        {"phase": phase, "workers": workers}, hashes)
    if name == "skew-search":
        phase = _phase(rng)
        harmonics = []
        for jx, jy, amp, kind in ((0, 1, 0.03, "b"), (1, 1, 0.015, "b"), (0, 2, 0.006, "a")):
            # amp * sin (or cos) of 2 pi (jx x + jy (y + phase))
            s, c = math.sin(TAU * jy * phase), math.cos(TAU * jy * phase)
            amp = amp / TAU ** 3
            a, b = (amp * s, amp * c) if kind == "b" else (amp * c, -amp * s)
            harmonics.append({"jx": jx, "jy": jy, "a": [a], "b": [b]})
        path = _write_json(root, "skew.json", {
            "label": "xdep-skew-phased", "m": 2, "harmonics": harmonics,
        }, hashes)
        generic = []
        while len(generic) < SKEW_GENERIC_T:
            t = float(rng.random())
            if _far_from_rationals(t, SEARCH_QMAX):
                generic.append(t)
        rationals = []
        while len(rationals) < SKEW_RATIONAL_T:
            q = int(rng.integers(2, SKEW_RATIONAL_QMAX + 1))
            p = int(rng.integers(1, q))
            if math.gcd(p, q) == 1:
                rationals.append((p, q))
        ts = generic + [p / q for p, q in rationals]
        argv = ["skew", "--input", path, "--nmax", str(SKEW_NMAX), "--R", repr(SKEW_R),
                "--t", ",".join(repr(t) for t in ts), "--workers", "1"] + common
        return Workload(name, seed, argv, ["skew", path, str(SKEW_NMAX)],
                        {"phase": phase, "generic_t": generic, "rationals": rationals,
                         "t": ts}, hashes)
    cs = sorted(float(c) for c in 0.05 + 0.15 * rng.random(DIO_CS))
    argv = ["dio", "--C", ",".join(repr(c) for c in cs), "--nmax", str(DIO_NMAX),
            "--grid", str(DIO_GRID)] + common
    return Workload(name, seed, argv, ["dio", ",".join(repr(c) for c in cs)],
                    {"C": cs}, hashes)


# -- output checks -----------------------------------------------------------

def read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def csv_digests(outdir: str) -> dict:
    out = {}
    for fname in sorted(os.listdir(outdir)):
        if fname.endswith(".csv"):
            with open(os.path.join(outdir, fname), "rb") as fh:
                out[fname] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _farey_lift_pairs(q_max: int) -> list:
    pairs = {Fraction(p, q) for q in range(1, q_max + 1) for p in range(q)}
    return [(f.numerator, f.denominator) for f in sorted(pairs)]


def _arnold_disp(amp: float, phase: float, ts: np.ndarray, n_iter: int) -> np.ndarray:
    theta = np.zeros_like(ts)
    for _ in range(n_iter):
        theta = theta + ts + amp * np.sin(TAU * (theta + phase))
    return theta / n_iter


def _check_windows(wl: Workload, outdir: str) -> list:
    errs = []
    rows = read_csv(os.path.join(outdir, "windows.csv"))
    pairs = [(int(r["p"]), int(r["q"])) for r in rows]
    if pairs != _farey_lift_pairs(WINDOWS_QMAX):
        errs.append("windows.csv rows are not one per lift rational in Farey order")
        return errs
    lo = np.array([float(r["t_lo"]) for r in rows])
    hi = np.array([float(r["t_hi"]) for r in rows])
    width = np.array([float(r["width"]) for r in rows])
    radius = np.array([float(r["bracket_radius"]) for r in rows])
    if np.any(lo > hi):
        errs.append("a window has t_lo > t_hi")
    amp = wl.params["amp"]
    slack = WINDOWS_TOL + radius[0]
    if abs(lo[0] + amp) > slack or abs(hi[0] - amp) > slack:
        errs.append(f"0/1 window [{lo[0]}, {hi[0]}] is not [-{amp}, {amp}] within {slack:g}")
    pos = width > 0.0
    mids = 0.5 * (lo[pos] + hi[pos])
    disp = _arnold_disp(amp, wl.params["phase"], mids, RHO_CHECK_ITER)
    target = np.array([p / q for (p, q), ok in zip(pairs, pos) if ok])
    bad = np.abs(disp - target) > 1.0 / RHO_CHECK_ITER
    if np.any(bad):
        i = int(np.argmax(bad))
        errs.append(f"rotation number at the midpoint of window {target[i]:.6g} is {disp[i]:.9g}")
    m = read_csv(os.path.join(outdir, "measure.csv"))[0]
    lower, mc, unres = float(m["lower"]), float(m["mc"]), float(m["unresolved"])
    if not math.isclose(lower, float(np.sum(width)), rel_tol=1e-12, abs_tol=1e-15):
        errs.append("measure.csv lower is not the sum of window widths")
    share = min(max(mc + unres, lower, 1.0 / WINDOWS_SAMPLES), 1.0)
    se = math.sqrt(share * (1.0 - share) / WINDOWS_SAMPLES)
    if lower > mc + unres + 4.0 * se:
        errs.append(f"certified lower {lower} exceeds mc + unresolved + 4 se")
    return errs


def _check_theorem(wl: Workload, outdir: str) -> list:
    errs = []
    inter = read_csv(os.path.join(outdir, "intersection.csv"))
    if [int(r["N"]) for r in inter] != list(range(1, THEOREM_NMAX + 1)):
        errs.append("intersection.csv does not list N = 1..nmax")
    mu = [float(r["mu_locked"]) for r in inter]
    mp = [float(r["mu_pessimistic"]) for r in inter]
    if any(b > a for a, b in zip(mu, mu[1:])):
        errs.append("mu_locked increases with N")
    if any(b > a for a, b in zip(mp, mp[1:])):
        errs.append("mu_pessimistic increases with N")
    if any(x > y for x, y in zip(mu, mp)):
        errs.append("mu_locked exceeds mu_pessimistic")
    eta = read_csv(os.path.join(outdir, "eta.csv"))
    ev = [float(r["eta"]) for r in eta]
    if len(ev) != 4 or any(b < a for a, b in zip(ev, ev[1:])):
        errs.append("eta.csv is not four nondecreasing levels")
    if any(float(r["eta"]) < float(r["eta_raw"]) for r in eta):
        errs.append("eta is below eta_raw")
    with open(os.path.join(outdir, "report.json")) as fh:
        hyp = json.load(fh)["hypotheses"]
    if not hyp.get("norms_below_one") or not all(v < 1.0 for v in hyp.get("norms", [1.0])):
        errs.append("report.json does not record norms below one")
    return errs


def _periodic_circles(m: int, n_max: int) -> list:
    seen, out = set(), []
    for n in range(1, n_max + 1):
        den = m ** n - 1
        for k in range(den):
            x0 = Fraction(k, den)
            if x0 not in seen:
                seen.add(x0)
                out.append((k, n, x0.numerator, x0.denominator))
    return out


def _check_skew(wl: Workload, outdir: str) -> list:
    errs = []
    circles = read_csv(os.path.join(outdir, "circles.csv"))
    keys = [(int(r["k"]), int(r["n"]), int(r["x0_num"]), int(r["x0_den"])) for r in circles]
    if keys != _periodic_circles(2, SKEW_NMAX):
        errs.append("circles.csv does not list every periodic circle with n <= nmax")
        return errs
    passing = set()
    for r in circles:
        ok = r["passes"] == "1"
        if ok != (float(r["sup_c3"]) < SKEW_R):
            errs.append(f"circle k={r['k']} n={r['n']}: passes disagrees with sup_c3 < R")
        if ok:
            passing.add((int(r["k"]), int(r["n"])))
    search = read_csv(os.path.join(outdir, "search.csv"))
    if [float(r["t"]) for r in search] != wl.params["t"]:
        errs.append("search.csv does not have one row per requested t")
        return errs
    for r in search:
        if r["found"] == "1":
            if r["classification"] != "irrational_candidate":
                errs.append(f"t={r['t']}: found row is {r['classification']}")
            if (int(r["k"]), int(r["n"])) not in passing:
                errs.append(f"t={r['t']}: found circle does not pass the C3 filter")
    errs += _check_quasi_search(wl, search)
    return errs


def _check_quasi_search(wl: Workload, search: list) -> list:
    """Recompute (found, k, n) for a few seeded t with the library search."""
    from circledyn import io, rotation, skew

    F = io.load_skew(wl.argv[wl.argv.index("--input") + 1])
    cands = skew.eligible_restrictions(F, SKEW_NMAX, SKEW_R)
    errs = []
    for i in range(SKEW_QUASI_CHECKS):
        t = wl.params["generic_t"][i]
        hit = skew.quasi_search(F, t, SKEW_NMAX, SEARCH_QMAX, SKEW_R,
                                n_iter=rotation.CLASSIFY_N_ITER, candidates=cands)
        want = ("0", "", "") if hit is None else ("1", str(hit[0].k), str(hit[0].n))
        row = search[i]
        if (row["found"], row["k"], row["n"]) != want:
            errs.append(f"t={t!r}: CLI found {(row['found'], row['k'], row['n'])}, "
                        f"quasi_search {want}")
    return errs


def _check_dio(wl: Workload, outdir: str) -> list:
    errs = []
    rows = read_csv(os.path.join(outdir, "dio.csv"))
    if [float(r["C"]) for r in rows] != wl.params["C"]:
        errs.append("dio.csv does not have one row per C")
        return errs
    for r in rows:
        c, est = float(r["C"]), float(r["estimate"])
        lower, gerr = float(r["analytic_lower"]), float(r["grid_error"])
        want_gerr = min(1.0, DIO_NMAX * (DIO_NMAX + 1) / 2 / DIO_GRID)
        if not math.isclose(gerr, want_gerr, rel_tol=1e-12):
            errs.append(f"C={c}: grid_error {gerr} != {want_gerr}")
        exact = dio_exact.exact_measure(c, DIO_NMAX)
        if abs(est - exact) > gerr:
            errs.append(f"C={c}: |estimate - exact| = {abs(est - exact):.3g} > grid_error")
        if est < lower - gerr:
            errs.append(f"C={c}: estimate below analytic_lower - grid_error")
        if not math.isclose(lower, 1.0 - c * 1.2020569031595943 / math.pi, rel_tol=1e-12):
            errs.append(f"C={c}: analytic_lower is not 1 - C zeta(3) / pi")
    return errs


def check(wl: Workload, outdir: str) -> list:
    """Problems found in one run's outputs; empty when every check passes."""
    fn = {"windows-arnold": _check_windows, "theoremA-skew": _check_theorem,
          "theoremA-par": _check_theorem, "skew-search": _check_skew,
          "dio-sets": _check_dio}[wl.name]
    try:
        return fn(wl, outdir)
    except (OSError, KeyError, ValueError, IndexError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"]


def unresolved_frac(wl: Workload, outdir: str) -> float:
    """Share of the run's decisions that its outputs leave undecided.

    windows-arnold: measure.csv ``unresolved`` (Monte Carlo samples).
    theoremA-*: mu_pessimistic - mu_locked of the first family (N = 1), the
    samples that family leaves unresolved; at the last N the gap is a
    handful of samples or none.  skew-search: share of t rows where no
    circle certifies an irrational candidate.  dio-sets: the grid_error
    share of [0, 1] the membership grid cannot decide, averaged over C.
    """
    if wl.name == "windows-arnold":
        return float(read_csv(os.path.join(outdir, "measure.csv"))[0]["unresolved"])
    if wl.name.startswith("theoremA"):
        r = read_csv(os.path.join(outdir, "intersection.csv"))[0]
        return float(r["mu_pessimistic"]) - float(r["mu_locked"])
    if wl.name == "skew-search":
        rows = read_csv(os.path.join(outdir, "search.csv"))
        return sum(r["found"] != "1" for r in rows) / len(rows)
    rows = read_csv(os.path.join(outdir, "dio.csv"))
    return float(np.mean([float(r["grid_error"]) for r in rows]))
