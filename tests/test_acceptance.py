"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The slow criteria are
the measure experiments (3, 6, 7); the whole suite stays well inside their
stated runtime budgets.
"""

import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from circledyn import skew
from circledyn.cli import main as cli_main
from circledyn.diophantine import DioParams, dio_measure
from circledyn.experiments import eta_curve, intersection_measure, make_rng
from circledyn.gallery import arnold_family, arnold_skew, c3_scaled_amplitude, rigid_family
from circledyn.rotation import IRRATIONAL_CANDIDATE, classify_batch, rho_estimate
from circledyn.skew import (
    eligible_restrictions,
    periodic_circles,
    quasi_search,
    restricted_family,
    skew_apply,
    winding_check,
)
from circledyn.windows import enumerate_windows, locked_measure, window_for_rational
from snapshot import central_derivatives, deriv_tuple, snapshot

GOLDEN = (math.sqrt(5) - 1) / 2
ZETA3 = 1.2020569031595943
SEED = 20250809


def report(num, ok, detail, elapsed, budget):
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail} "
            f"({elapsed:.1f}s, budget {budget:.0f}s)")
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {line}"


def first_per_period(F, n_max):
    return skew.first_per_period(F, n_max)


def test_criterion_1_rotation_exactness():
    t0 = time.perf_counter()
    res = rho_estimate(rigid_family(), GOLDEN, n_iter=10_000)
    err = abs(res.estimate - GOLDEN)
    elapsed = time.perf_counter() - t0
    report(1, err <= res.error_bound <= 1e-4,
           f"|rho - golden| = {err:.2e} <= 1e-4", elapsed, 1.0)


def test_criterion_2_closed_form_window():
    t0 = time.perf_counter()
    w = window_for_rational(arnold_family(0.1), 0, 1, tol=1e-7)
    lo_err = abs(w.t_lo + 0.1)
    hi_err = abs(w.t_hi - 0.1)
    elapsed = time.perf_counter() - t0
    report(2, max(lo_err, hi_err) <= 1e-6,
           f"edges [-0.1, 0.1] hit to {max(lo_err, hi_err):.1e}", elapsed, 5.0)


@pytest.mark.slow
def test_criterion_3_arnold_limits():
    t0 = time.perf_counter()
    amps = (0.02, 0.05, 0.1, 0.15)
    tol = 1e-6
    lowers, mcs, unres = [], [], []
    for amp in amps:
        lm = locked_measure(arnold_family(amp), 30, 10_000, tol=tol, seed=SEED)
        lowers.append(lm.lower)
        mcs.append(lm.mc)
        unres.append(lm.unresolved_frac)
    monotone = all(b >= a - 2 * tol for a, b in zip(lowers, lowers[1:]))
    se = math.sqrt(mcs[0] * (1 - mcs[0]) / 10_000 + mcs[-1] * (1 - mcs[-1]) / 10_000)
    separated = mcs[0] + 3 * se < mcs[-1]
    elapsed = time.perf_counter() - t0
    report(3, monotone and separated,
           f"lower={['%.4f' % v for v in lowers]} mc={['%.4f' % v for v in mcs]}",
           elapsed, 300.0)


def test_criterion_4_diophantine_bound():
    t0 = time.perf_counter()
    m = dio_measure(DioParams(0.1, 1000, 100_000))
    bound = 1.0 - 0.1 * ZETA3 / math.pi
    ok = m.estimate >= bound - m.grid_error
    elapsed = time.perf_counter() - t0
    report(4, ok, f"estimate {m.estimate:.5f} >= {bound:.5f} - grid_error",
           elapsed, 30.0)


def test_criterion_5_skew_consistency():
    t0 = time.perf_counter()
    F = arnold_skew(2, 0.05)
    circles = periodic_circles(2, 5)
    fams = {c: restricted_family(F, c) for c in circles}
    rng = make_rng(SEED, 5)
    worst = 0.0
    for _ in range(1000):
        circle = circles[int(rng.integers(len(circles)))]
        t, y = float(rng.random()), float(rng.random())
        x, z = circle.x0, y
        for _ in range(circle.n):
            x, z = skew_apply(F, t, (x, z))
        assert x == circle.x0
        d = abs(fams[circle].lift(t, y) % 1.0 - z) % 1.0
        worst = max(worst, min(d, 1.0 - d))
    dev = max(abs(winding_check(rf) - 1.0) for rf in first_per_period(F, 6))
    elapsed = time.perf_counter() - t0
    report(5, worst <= 1e-12 and dev <= 0.05,
           f"torus-lift gap {worst:.1e} <= 1e-12, winding dev {dev:.1e} <= 0.05",
           elapsed, 30.0)


@pytest.mark.slow
def test_criterion_6_intersection_decay_proxy():
    t0 = time.perf_counter()
    F = arnold_skew(2, c3_scaled_amplitude(0.05))
    fams = first_per_period(F, 6)
    res = intersection_measure(fams, 10_000, q_max=30, seed=SEED)
    mu = res.mu_locked
    nonincreasing = all(b <= a for a, b in zip(mu, mu[1:]))
    r_star = max(res.norms)
    ec = eta_curve([r_star / 2, r_star], 8, q_max=30, seed=SEED, mc_samples=2000)
    eta_hat = ec.eta[-1]
    sigma = math.sqrt(mu[-1] * (1 - mu[-1]) / res.t_samples)
    bound = mu[0] * eta_hat ** 5 + 3 * sigma
    elapsed = time.perf_counter() - t0
    report(6, nonincreasing and mu[-1] <= bound,
           f"mu_1={mu[0]:.2e} mu_6={mu[-1]:.2e} <= mu_1*eta^5 + 3sigma = {bound:.2e} "
           f"(eta_hat={eta_hat:.3g} at r={r_star:.3g})",
           elapsed, 600.0)


def test_criterion_7_quasiperiodic_search_depth():
    t0 = time.perf_counter()
    F = arnold_skew(2, c3_scaled_amplitude(0.05))
    R, q_max, n_samples = 0.5, 30, 200
    ts = make_rng(SEED, 7).random(n_samples)
    elig = eligible_restrictions(F, 6, R)
    # classify every eligible circle at every t; identical stage data is
    # classified once (the restricted map depends only on its stages)
    by_stages = {}
    for circle, rf, _ in elig:
        if rf.stages not in by_stages:
            results = classify_batch(rf, ts, q_max=q_max)
            by_stages[rf.stages] = np.array(
                [r.classification == IRRATIONAL_CANDIDATE for r in results]
            )
    fractions = []
    for n_max in (2, 4, 6):
        hit = np.zeros(n_samples, dtype=bool)
        for circle, rf, _ in elig:
            if circle.n <= n_max:
                hit |= by_stages[rf.stages]
        fractions.append(float(np.mean(hit)))
    # spot-check the cached sweep against the real search operation
    for t in ts[:3]:
        found = quasi_search(F, float(t), 6, q_max, R,
                             candidates=elig) is not None
        idx = int(np.nonzero(ts == t)[0][0])
        expected = bool(
            np.any([by_stages[rf.stages][idx] for c, rf, _ in elig if c.n <= 6])
        )
        assert found == expected
    sigma = math.sqrt(max(f * (1 - f) for f in fractions) / n_samples)
    nondecreasing = all(b >= a - 3 * sigma for a, b in zip(fractions, fractions[1:]))
    elapsed = time.perf_counter() - t0
    report(7, nondecreasing,
           f"found fraction by depth {{2,4,6}}: {['%.3f' % f for f in fractions]}",
           elapsed, 600.0)


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps({
        "label": "arnold", "winding": 1,
        "harmonics": [{"j": 1, "a": [0.0], "b": [0.1]}],
    }))
    skew_path = tmp_path / "skew.json"
    skew_path.write_text(json.dumps({
        "label": "fiber", "m": 2,
        "harmonics": [{"jx": 0, "jy": 1, "a": [0.0], "b": [c3_scaled_amplitude(0.05)]}],
    }))
    runs = {
        "windows": ["windows", "--input", str(fam_path), "--qmax", "3",
                    "--samples", "300", "--seed", "11"],
        "theoremA": ["theoremA", "--input", str(skew_path), "--nmax", "2",
                     "--samples", "300", "--eta-families", "2",
                     "--eta-samples", "200", "--seed", "11"],
        "skew": ["skew", "--input", str(skew_path), "--nmax", "2",
                 "--t", "0.1,0.33,0.5,0.71", "--niter", "2000", "--seed", "11"],
        "tongues": ["tongues", "--input", str(fam_path), "--deltas", "0.5,1.0",
                    "--qmax", "3", "--seed", "11"],
    }
    ok = True
    for name, args in runs.items():
        outs = []
        for variant, workers in (("serial", "1"), ("rerun", "1"), ("parallel", "3")):
            out = tmp_path / f"{name}-{variant}"
            assert cli_main(args + ["--out", str(out), "--workers", workers]) == 0
            outs.append(out)
        for fname in os.listdir(outs[0]):
            if not fname.endswith(".csv"):
                continue
            blobs = [open(out / fname, "rb").read() for out in outs]
            ok = ok and blobs[0] == blobs[1] == blobs[2]
    elapsed = time.perf_counter() - t0
    report(8, ok, "serial rerun and parallel CSVs byte-identical", elapsed, 120.0)


def test_criterion_9_derivative_oracle():
    t0 = time.perf_counter()
    F = arnold_skew(2, 0.05)
    fams = first_per_period(F, 6)
    rng = make_rng(SEED, 9)
    worst = 0.0
    for _ in range(1000):
        rf = fams[int(rng.integers(len(fams)))]
        t, y = float(rng.random()), float(rng.random())
        snap = snapshot(rf, t)
        _, d1, d2, d3 = deriv_tuple(snap, np.array(y))
        for exact, fd in zip((d1, d2, d3), central_derivatives(snap, y)):
            worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    elapsed = time.perf_counter() - t0
    report(9, worst <= 1e-6,
           f"worst relative chain-rule vs finite-difference gap {worst:.1e}",
           elapsed, 10.0)
