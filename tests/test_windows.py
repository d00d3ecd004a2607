import math

import numpy as np
import pytest

from circledyn import rotation, windows
from circledyn.circle_map import CircleFamily, TPoly
from circledyn.errors import DegenerateFamily, InsufficientData, NoLockInBracket
from circledyn.gallery import arnold_family, rigid_family
from circledyn.rotation import LOCKED, NOT_LOCKED, UNRESOLVED, is_locked
from circledyn.windows import (
    Window,
    enumerate_windows,
    locked_measure,
    scaling_fit,
    tongue_diagram,
    window_boundaries,
    window_for_rational,
)

RNG = np.random.default_rng(998877)


class TestWindowBoundaries:
    def test_arnold_closed_form(self):
        # fixed-point condition t + 0.1 sin(2 pi theta) = 0: window is exactly
        # [-0.1, 0.1]
        w = window_boundaries(arnold_family(0.1), 0, 1, (-0.05, 0.05), tol=1e-8)
        assert w.t_lo == pytest.approx(-0.1, abs=1e-6)
        assert w.t_hi == pytest.approx(0.1, abs=1e-6)
        assert w.width == pytest.approx(0.2, abs=2e-6)

    def test_rigid_rotation_point_window(self):
        w = window_for_rational(rigid_family(), 1, 2, tol=1e-9)
        assert w.width == 0.0
        assert w.midpoint == pytest.approx(0.5, abs=1e-8)

    def test_half_window_narrower_than_fixed_point_window(self):
        fam = arnold_family(0.1)
        w0 = window_for_rational(fam, 0, 1, tol=1e-7)
        w12 = window_for_rational(fam, 1, 2, tol=1e-7)
        assert 0.0 < w12.width < w0.width

    def test_no_lock_in_bracket(self):
        with pytest.raises(NoLockInBracket):
            window_boundaries(arnold_family(0.1), 0, 1, (0.3, 0.4))


class TestEnumerateWindows:
    def test_rigid_point_windows(self):
        ws = enumerate_windows(rigid_family(), 3, tol=1e-9)
        mids = [w.midpoint for w in ws]
        assert mids == pytest.approx([0.0, 1 / 3, 1 / 2, 2 / 3], abs=1e-7)
        assert all(w.width == 0.0 for w in ws)

    def test_arnold_qmax2(self):
        ws = enumerate_windows(arnold_family(0.1), 2, tol=1e-7)
        assert [(w.p, w.q) for w in ws] == [(0, 1), (1, 2)]
        assert all(w.width > 0 for w in ws)
        assert ws[0].t_hi < ws[1].t_lo  # disjoint

    def test_qmax1_single_window(self):
        ws = enumerate_windows(arnold_family(0.05), 1, tol=1e-7)
        assert len(ws) == 1 and (ws[0].p, ws[0].q) == (0, 1)

    def test_farey_order_and_disjointness(self):
        ws = enumerate_windows(arnold_family(0.1), 5, tol=1e-7)
        vals = [w.p / w.q for w in ws]
        assert vals == sorted(vals)
        positive = [w for w in ws if w.width > 0]
        for a, b in zip(positive, positive[1:]):
            assert a.t_hi <= b.t_lo + a.bracket_radius + b.bracket_radius

    def test_window_soundness(self):
        fam = arnold_family(0.1)
        for w in enumerate_windows(fam, 4, tol=1e-7):
            if w.width == 0.0:
                continue
            assert is_locked(fam, w.midpoint, w.p, w.q).status == LOCKED
            outside = w.t_hi + 50 * w.bracket_radius + 1e-4
            assert is_locked(fam, outside, w.p, w.q).status in (NOT_LOCKED, UNRESOLVED)


class TestBoundaryMonotonicity:
    def test_displacement_extrema_increase_in_t(self):
        from circledyn.windows import _disp_extremum

        fam = arnold_family(0.1)
        thetas = np.arange(2048) / 2048
        for q, p in [(1, 0), (2, 1), (3, 1)]:
            ts = np.sort(RNG.uniform(0, 1, 8))
            los = [_disp_extremum(fam, float(t), p, q, thetas, "hi")[0] for t in ts]
            his = [_disp_extremum(fam, float(t), p, q, thetas, "lo")[0] for t in ts]
            assert all(a < b for a, b in zip(los, los[1:]))
            assert all(a < b for a, b in zip(his, his[1:]))


def plain_edge_root(fam, p, q, edge, t_seed, radius0, tol, grid):
    """The edge solver as it was before the branch predictor: geometric
    expansion, then bisection that evaluates B at every midpoint."""

    def B(t):
        disp = rotation._lift_q_displacement(fam, t, q, p, np.arange(grid) / grid)
        lo, hi = float(np.min(disp)), float(np.max(disp))
        return hi if edge == "lo" else lo

    r = max(radius0, 4.0 * tol)
    u, v = t_seed - r, t_seed + r
    fu, fv = B(u), B(v)
    for _ in range(64):
        if fu < 0.0:
            break
        r *= 2.0
        u = t_seed - r
        fu = B(u)
    for _ in range(64):
        if fv > 0.0:
            break
        r *= 2.0
        v = t_seed + r
        fv = B(v)
    if fu >= 0.0 or fv <= 0.0:
        raise NoLockInBracket(
            f"could not bracket the {edge} edge of the {p}/{q} window near t={t_seed:g}"
        )
    for _ in range(windows.MAX_BISECT):
        if (v - u) / 2.0 <= tol:
            break
        mid = 0.5 * (u + v)
        if B(mid) > 0.0:
            v = mid
        else:
            u = mid
    return 0.5 * (u + v), 0.5 * (v - u)


def count_grid_evals(m):
    """List that records the q of each full-grid B evaluation (a scalar t
    over the whole theta grid) once ``m`` has patched the displacement."""
    calls = []
    real = rotation._lift_q_displacement

    def counting(fam, t, q, p, thetas):
        if np.ndim(t) == 0 and np.size(thetas) == rotation.lock_grid_size(q):
            calls.append(q)
        return real(fam, t, q, p, thetas)

    m.setattr(rotation, "_lift_q_displacement", counting)
    return calls


def edge_windows(monkeypatch, fam, q_max, tol, edge_root=None, predict=None):
    """Windows of every p/q with q <= q_max, and the number of full-grid B
    evaluations they took."""
    with monkeypatch.context() as m:
        calls = count_grid_evals(m)
        if edge_root is not None:
            m.setattr(windows, "_edge_root", edge_root)
        if predict is not None:
            m.setattr(windows, "_predict_root", predict)
        out = [window_for_rational(fam, p, q, tol)
               for p, q in windows.lift_rationals(q_max, fam.winding)]
    return out, len(calls)


def as_bits(ws):
    return [(w.p, w.q, w.t_lo, w.t_hi, w.width, w.bracket_radius) for w in ws]


EDGE_FAMILIES = {
    "arnold": (arnold_family(0.1), 8),
    "two-harmonic-phased": (CircleFamily(1, TPoly((0.0,)), (
        (1, TPoly((0.03,)), TPoly((0.1,))), (2, TPoly((0.02,)), TPoly((-0.01,))))), 6),
    "winding-2-t-dependent": (CircleFamily(2, TPoly((0.01, 0.02)), (
        (1, TPoly((0.0, 0.02)), TPoly((0.05, 0.01))),)), 4),
    "rigid": (rigid_family(), 5),
    "renormalized": (arnold_family(0.05).renormalized(0.3, 0.7), 5),
    # t-derivative bound 1.5 >= winding 1: monotonicity is not certified,
    # so every midpoint is evaluated
    "uncertified": (CircleFamily(1, TPoly((0.0, 1.5)), (
        (1, TPoly((0.0,)), TPoly((0.1,))),)), 3),
}


class TestEdgeReplay:
    """The predicted edge solver returns plain bisection's windows bit for
    bit; the predictor only decides which midpoints are evaluated."""

    @pytest.mark.parametrize("name,tol", [("arnold", 1e-7)]
                             + [(name, 1e-9) for name in EDGE_FAMILIES])
    def test_bit_identical_to_plain_bisection(self, monkeypatch, name, tol):
        fam, q_max = EDGE_FAMILIES[name]
        new, n_new = edge_windows(monkeypatch, fam, q_max, tol)
        old, n_old = edge_windows(monkeypatch, fam, q_max, tol, edge_root=plain_edge_root)
        assert as_bits(new) == as_bits(old)
        if name == "uncertified":
            assert n_new == n_old
        if name == "rigid":
            assert all(w.width == 0.0 for w in new)

    @pytest.mark.parametrize("wrong", ["nan", "lower-end", "upper-end"])
    def test_wrong_prediction_costs_only_evaluations(self, monkeypatch, wrong):
        def predict(fam, p, q, edge, thetas, u, du, v, dv, tol):
            return {"nan": math.nan, "lower-end": u, "upper-end": v}[wrong]

        fam = arnold_family(0.1)
        good, n_good = edge_windows(monkeypatch, fam, 5, 1e-8)
        bad, n_bad = edge_windows(monkeypatch, fam, 5, 1e-8, predict=predict)
        old, _ = edge_windows(monkeypatch, fam, 5, 1e-8, edge_root=plain_edge_root)
        assert as_bits(bad) == as_bits(good) == as_bits(old)
        assert n_bad >= n_good

    def test_evaluation_budget(self, monkeypatch):
        calls = count_grid_evals(monkeypatch)
        ws = enumerate_windows(arnold_family(0.1), 8, tol=1e-7)
        per_edge = len(calls) / (2 * len(ws))
        assert per_edge <= 6.0, f"{per_edge:.2f} full-grid evaluations per edge"


class TestRenormalizationCovariance:
    def test_window_endpoints_map_affinely(self):
        fam = arnold_family(0.05)
        a, b = 0.3, 0.7
        sub = fam.renormalized(a, b)
        w = window_for_rational(fam, 1, 2, tol=1e-9)
        w_sub = window_for_rational(sub, 1, 2, tol=1e-9,
                                    t_seed=(w.midpoint - a) / (b - a))
        assert w_sub.t_lo == pytest.approx((w.t_lo - a) / (b - a), abs=1e-7)
        assert w_sub.t_hi == pytest.approx((w.t_hi - a) / (b - a), abs=1e-7)


class TestLockedMeasure:
    def test_rigid_measure_zero(self):
        lm = locked_measure(rigid_family(), 5, 400, seed=1)
        assert lm.lower == 0.0
        assert lm.mc == 0.0

    def test_monotone_in_amplitude(self):
        lm_small = locked_measure(arnold_family(0.02), 5, 500, seed=2)
        lm_big = locked_measure(arnold_family(0.15), 5, 500, seed=2)
        assert lm_small.lower < lm_big.lower
        assert lm_small.mc < lm_big.mc

    def test_qmax1_lower_bound(self):
        lm = locked_measure(arnold_family(0.1), 1, 100, tol=1e-6, seed=3)
        assert lm.lower >= 0.2 - 2e-6

    def test_measure_consistency(self):
        lm = locked_measure(arnold_family(0.1), 10, 2000, seed=4)
        se = math.sqrt(max(lm.mc * (1 - lm.mc), 1e-12) / 2000)
        assert lm.lower <= lm.mc + lm.unresolved_frac + 3 * se + 1e-3


class TestTongueDiagram:
    def test_zero_amplitude_row_is_points(self):
        profile = arnold_family(1.0)  # unit sine profile
        td = tongue_diagram(profile, [0.0], 3, tol=1e-8)
        assert all(w.width == 0.0 for w in td.windows[0])

    def test_tongues_widen_with_amplitude(self):
        profile = arnold_family(1.0)
        deltas = [0.02, 0.06, 0.1]
        td = tongue_diagram(profile, deltas, 3, tol=1e-7)
        for idx in range(len(td.windows[0])):
            widths = [td.windows[i][idx].width for i in range(len(deltas))]
            assert all(b >= a - 2e-7 for a, b in zip(widths, widths[1:]))

    def test_degenerate_amplitude_propagates(self):
        with pytest.raises(DegenerateFamily):
            tongue_diagram(arnold_family(1.0), [0.2], 2)


class TestScalingFit:
    def test_synthetic_cubic_law(self):
        ws = [Window(1, q, 0, 0, 0.7 * q ** -3.0, 0.0) for q in (2, 3, 5, 7, 9)]
        exponent, r2 = scaling_fit(ws)
        assert exponent == pytest.approx(-3.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_equal_widths_give_zero(self):
        ws = [Window(1, q, 0, 0, 0.25, 0.0) for q in (2, 3, 5)]
        exponent, _ = scaling_fit(ws)
        assert exponent == pytest.approx(0.0, abs=1e-12)

    def test_arnold_slope_negative(self):
        ws = enumerate_windows(arnold_family(0.1), 8, tol=1e-9)
        exponent, _ = scaling_fit(ws)
        assert math.isfinite(exponent) and exponent < 0

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            scaling_fit([Window(0, 1, 0, 0, 0.1, 0.0)])
