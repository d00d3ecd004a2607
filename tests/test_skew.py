import math
from fractions import Fraction

import numpy as np
import pytest

from circledyn.circle_map import CircleFamily, TPoly, c3_norm
from circledyn.errors import DegenerateFiber
from circledyn.gallery import arnold_skew, c3_scaled_amplitude
from circledyn.rotation import IRRATIONAL_CANDIDATE, classify
from circledyn import skew
from circledyn.skew import (
    PeriodicCircle,
    SkewMap,
    a3_check,
    eligible_restrictions,
    periodic_circles,
    quasi_search,
    restricted_family,
    restricted_norm,
    skew_apply,
    winding_check,
)

TAU = 2 * math.pi
GOLDEN = (math.sqrt(5) - 1) / 2
RNG = np.random.default_rng(271828)


def brute_minimal_period(x0: Fraction, m: int, cap: int = 64) -> int:
    """Oracle: orbit of x0 under x -> m x mod 1 until first return."""
    x = (m * x0) % 1
    n = 1
    while x != x0:
        x = (m * x) % 1
        n += 1
        assert n <= cap
    return n


class TestSkewApply:
    def test_zero_fiber(self):
        F = SkewMap(2)
        assert skew_apply(F, 0.3, (0.25, 0.1)) == (0.5, pytest.approx(0.4, abs=1e-15))

    def test_fixed_fiber_stays_exact(self):
        F = arnold_skew(3, 0.02)
        x0 = Fraction(1, 2)  # k/(m-1) for m = 3
        x1, _ = skew_apply(F, 0.7, (x0, 0.3))
        assert x1 == x0 and isinstance(x1, Fraction)

    def test_base_wraps(self):
        F = SkewMap(3)
        eps = 1e-3
        x1, _ = skew_apply(F, 0.0, (2 / 3 + eps, 0.5))
        assert x1 == pytest.approx(3 * eps, abs=1e-12)


class TestPeriodicCircles:
    def test_m2_period_two(self):
        pcs = periodic_circles(2, 2)
        assert [(str(c.x0), c.n) for c in pcs] == [("0", 1), ("1/3", 2), ("2/3", 2)]

    def test_m2_period_one_only_origin(self):
        pcs = periodic_circles(2, 1)
        assert len(pcs) == 1 and pcs[0].x0 == 0

    def test_m3_levels_match_brute_force(self):
        pcs = periodic_circles(3, 2)
        values = {c.x0 for c in pcs}
        # fixed points of x -> 3x and x -> 9x mod 1
        expected = {Fraction(k, 2) for k in range(2)} | {Fraction(k, 8) for k in range(8)}
        assert values == expected
        for c in pcs:
            assert brute_minimal_period(c.x0, 3) == c.n

    def test_dedup_keeps_minimal_period(self):
        pcs = periodic_circles(2, 6)
        for c in pcs:
            assert brute_minimal_period(c.x0, 2) == c.n
        # count of exact-period-n points for the doubling map: 1, 2, 6, 12, 30, 54
        from collections import Counter

        counts = Counter(c.n for c in pcs)
        assert [counts[n] for n in range(1, 7)] == [1, 2, 6, 12, 30, 54]

    def test_exact_return_arithmetic(self):
        for c in periodic_circles(2, 5):
            assert (2 ** c.n * c.x0 - c.x0) % 1 == 0


class TestRestrictedFamily:
    def test_zero_fiber_is_rigid(self):
        F = SkewMap(2)
        for circle in periodic_circles(2, 3):
            rf = restricted_family(F, circle)
            for _ in range(5):
                t, th = RNG.uniform(0, 1), RNG.uniform(0, 1)
                assert rf.lift(t, th) == pytest.approx(th + circle.n * t, abs=1e-14)

    def test_single_fiber_is_arnold(self):
        amp = 0.05
        F = arnold_skew(2, amp)
        rf = restricted_family(F, periodic_circles(2, 1)[0])
        assert rf.winding == 1
        for _ in range(10):
            t, th = RNG.uniform(0, 1), RNG.uniform(0, 1)
            expected = th + t + amp * math.sin(TAU * th)
            assert rf.lift(t, th) == pytest.approx(expected, abs=1e-14)

    def test_two_fiber_closed_form(self):
        amp = 0.05
        F = arnold_skew(2, amp)
        circle = periodic_circles(2, 2)[1]
        assert circle.x0 == Fraction(1, 3)
        rf = restricted_family(F, circle)
        assert rf.winding == 2
        for _ in range(10):
            t, th = RNG.uniform(0, 1), RNG.uniform(0, 1)
            inner = th + t + amp * math.sin(TAU * th)
            expected = inner + t + amp * math.sin(TAU * inner)
            assert rf.lift(t, th) == pytest.approx(expected, abs=1e-13)

    def test_agrees_with_torus_iteration(self):
        F = arnold_skew(2, 0.05)
        circles = periodic_circles(2, 4)
        for _ in range(60):
            circle = circles[int(RNG.integers(len(circles)))]
            rf = restricted_family(F, circle)
            t, y = float(RNG.uniform(0, 1)), float(RNG.uniform(0, 1))
            x, z = circle.x0, y
            for _ in range(circle.n):
                x, z = skew_apply(F, t, (x, z))
            assert x == circle.x0
            lifted = rf.lift(t, y) % 1.0
            d = abs(lifted - z) % 1.0
            assert min(d, 1.0 - d) <= 1e-12

    def test_x_dependent_fiber_orbit_agreement(self):
        # exercise jx != 0 folding against direct torus iteration
        F = SkewMap(
            2,
            (
                (0, 1, TPoly((0.0,)), TPoly((0.002,))),
                (1, 1, TPoly((0.001,)), TPoly((0.0, 0.003))),
                (1, 0, TPoly((0.004,)), TPoly((0.0,))),
            ),
        )
        for circle in periodic_circles(2, 3):
            rf = restricted_family(F, circle)
            for _ in range(5):
                t, y = float(RNG.uniform(0, 1)), float(RNG.uniform(0, 1))
                x, z = circle.x0, y
                for _ in range(circle.n):
                    x, z = skew_apply(F, t, (x, z))
                d = abs(rf.lift(t, y) % 1.0 - z) % 1.0
                assert min(d, 1.0 - d) <= 1e-12

    def test_wrong_circle_rejected(self):
        F = SkewMap(2)
        with pytest.raises(ValueError):
            restricted_family(F, PeriodicCircle(1, 1, Fraction(1, 5)))

    def test_degenerate_fiber_raises(self):
        F = arnold_skew(2, 0.2)  # 0.2 * 2 pi > 1
        with pytest.raises(DegenerateFiber):
            restricted_family(F, periodic_circles(2, 1)[0])


class TestA3Check:
    def test_zero_fiber_passes_any_threshold(self):
        F = SkewMap(2)
        rf = restricted_family(F, periodic_circles(2, 2)[1])
        sup, ok = a3_check(rf, 0.01)
        assert sup == 0.0 and ok

    def test_single_fiber_matches_c3_norm(self):
        amp = c3_scaled_amplitude(0.05)
        F = arnold_skew(2, amp)
        rf = restricted_family(F, periodic_circles(2, 1)[0])
        sup, ok = a3_check(rf, 0.5, y_grid=8192)
        direct = c3_norm(rf.at(0.0).stages[0][1], grid=8192)
        assert sup == pytest.approx(direct, rel=1e-3)
        assert sup == pytest.approx(amp * TAU ** 3, rel=1e-2)
        assert ok

    def test_two_stage_near_additive(self):
        amp = c3_scaled_amplitude(0.05)
        F = arnold_skew(2, amp)
        rf = restricted_family(F, periodic_circles(2, 2)[1])
        sup, ok = a3_check(rf, 0.5)
        assert ok
        assert sup == pytest.approx(2 * amp * TAU ** 3, rel=0.05)

    def test_raw_amplitude_fails_threshold(self):
        F = arnold_skew(2, 0.05)
        rf = restricted_family(F, periodic_circles(2, 1)[0])
        sup, ok = a3_check(rf, 0.9)
        assert not ok and sup > 1.0

    def test_norm_c3_term_is_the_certified_sup(self):
        # a constant term large enough for the C0 term to bind, so a sup
        # of |G| without the grid Lipschitz margin would come out smaller
        F = SkewMap(2, ((0, 0, (0.3,), (0.0,)), (0, 1, (0.0,), (1e-4,))))
        rf = restricted_family(F, periodic_circles(2, 1)[0])
        assert restricted_norm(rf).c3_g == a3_check(rf, 0.99)[0]


def c3_sup_by_snapshots(rf, y_grid=skew.C3_Y_GRID):
    """Oracle: the sup of ``a3_check`` taken one ``at(t)`` snapshot at a time."""
    max_j = max((j for _, harm in rf.stages for j, _, _ in harm), default=0)
    y_grid = max(y_grid, 8 * max_j + 8, 16)
    ys = np.arange(y_grid) / y_grid
    sup = 0.0
    for t in np.linspace(0.0, 1.0, skew.C3_T_GRID):
        snap = rf.at(float(t))
        v, d1, d2, d3 = deriv_tuple(snap, ys)
        b1, b2, b3, b4 = snap.theta_deriv_bounds()
        lb1 = 1.0
        for _, p in snap.stages:
            lb1 *= max(0.0, 1.0 - p.deriv_bound(1))
        g_lip = max(b1 - 1.0, 1.0 - lb1)
        sup = max(sup, float(np.max(np.abs(v - ys - rf.winding * float(t)))) + g_lip / y_grid,
                  float(np.max(np.abs(d1 - 1.0))) + b2 / y_grid,
                  float(np.max(np.abs(d2))) + b3 / y_grid,
                  float(np.max(np.abs(d3))) + b4 / y_grid)
    return sup


def xdep_skew(m, rng):
    """A seeded skew map with x-dependent fibers and t-dependent coefficients."""
    harm = []
    for _ in range(3):
        jx, jy = int(rng.integers(0, 3)), int(rng.integers(0, 4))
        harm.append((jx, jy, TPoly(tuple(rng.normal(size=int(rng.integers(1, 3))) * 2e-3)),
                     TPoly(tuple(rng.normal(size=2) * 2e-3))))
    return SkewMap(m, tuple(harm))


class TestC3Sup:
    """``a3_check`` evaluates every t value at once; its sup must equal the
    snapshot-by-snapshot chain rule bit for bit, so ``circles.csv`` and
    ``eta.csv`` keep their bytes."""

    @pytest.mark.parametrize("make, n_max", [
        (lambda: arnold_skew(2, c3_scaled_amplitude(0.05)), 3),
        (lambda: SkewMap(2, ((0, 1, (0.0,), (1e-4,)), (1, 1, (2e-5,), (6e-5,)),
                             (0, 2, (2.4e-5,), (-1e-5,)))), 4),
        (lambda: xdep_skew(2, np.random.default_rng(3)), 3),
        (lambda: xdep_skew(3, np.random.default_rng(4)), 2),
    ], ids=["theoremA", "skew-search", "random-m2", "random-m3"])
    def test_equals_snapshot_chain_rule(self, make, n_max):
        F = make()
        for circle in periodic_circles(F.m, n_max):
            rf = restricted_family(F, circle)
            assert a3_check(rf, 0.5)[0] == c3_sup_by_snapshots(rf), circle


class TestStageStack:
    def test_one_stage_restriction_equals_circle_family(self):
        # jx = 0 harmonics only: the fiber over x0 = 0 carries the skew
        # map's coefficients unchanged, so its n = 1 restriction and the
        # circle family built from them are the same single stage
        const = TPoly((0.01, -0.004))
        a1, b1 = TPoly((0.02, 0.003)), TPoly((0.0, -0.01))
        a2, b2 = TPoly((-0.005,)), TPoly((0.004, 0.001))
        F = SkewMap(2, ((0, 0, const, (0.0,)), (0, 1, a1, b1), (0, 2, a2, b2)))
        rf = restricted_family(F, periodic_circles(2, 1)[0])
        fam = CircleFamily(1, const, ((1, a1, b1), (2, a2, b2)))
        ts = np.linspace(0.0, 1.0, 64)
        step_rf, step_fam = rf.step_factory(ts), fam.step_factory(ts)
        y_rf = y_fam = np.zeros_like(ts)
        for _ in range(4096):
            y_rf, y_fam = step_rf(y_rf), step_fam(y_fam)
        assert np.array_equal(y_rf, y_fam)
        for t in (None, 0.0, 0.37, 1.0):
            assert rf.dtheta_lift_bound(t) == fam.dtheta_lift_bound(t)
        assert rf.g_sup_bound() == fam.g_sup_bound()


def deriv_tuple(cm, y):
    """(value, d1, d2, d3) of the composed lift of the snapshot ``cm`` at y,
    by exact chain rule."""
    y = np.asarray(y, dtype=float)
    v = y.copy()
    d1 = np.ones_like(v)
    d2 = np.zeros_like(v)
    d3 = np.zeros_like(v)
    for c, p in cm.stages:
        l1 = 1.0 + p.deriv(1)(v)
        l2 = p.deriv(2)(v)
        l3 = p.deriv(3)(v)
        nd1 = l1 * d1
        nd2 = l1 * d2 + l2 * d1 ** 2
        nd3 = l1 * d3 + 3.0 * l2 * d1 * d2 + l3 * d1 ** 3
        v = v + c + p(v)
        d1, d2, d3 = nd1, nd2, nd3
    return v, d1, d2, d3


def central_derivatives(snap, y, h=1e-7, dps=40):
    """Oracle: central finite differences of the composed lift, evaluated in
    high-precision arithmetic so the e/h^k cancellation noise of float64
    cannot mask the truncation order."""
    import mpmath

    with mpmath.workdps(dps):
        tau = 2 * mpmath.pi
        data = [
            (mpmath.mpf(c), mpmath.mpf(p.const),
             [(j, mpmath.mpf(a), mpmath.mpf(b)) for j, a, b in p.harmonics])
            for c, p in snap.stages
        ]

        def f(z):
            for c, const, harm in data:
                acc = z + c + const
                for j, a, b in harm:
                    w = tau * j * z
                    acc += a * mpmath.cos(w) + b * mpmath.sin(w)
                z = acc
            return z

        hh = mpmath.mpf(h)
        vals = {k: f(mpmath.mpf(y) + k * hh) for k in range(-2, 3)}
        fd1 = (vals[1] - vals[-1]) / (2 * hh)
        fd2 = (vals[1] - 2 * vals[0] + vals[-1]) / hh ** 2
        fd3 = (vals[2] - 2 * vals[1] + 2 * vals[-1] - vals[-2]) / (2 * hh ** 3)
        return float(fd1), float(fd2), float(fd3)


class TestDerivativeOracle:
    def test_chain_rule_matches_finite_differences(self):
        F = arnold_skew(2, 0.05)
        circles = periodic_circles(2, 4)
        for _ in range(40):
            circle = circles[int(RNG.integers(len(circles)))]
            rf = restricted_family(F, circle)
            t, y = float(RNG.uniform(0, 1)), float(RNG.uniform(0, 1))
            snap = rf.at(t)
            _, d1, d2, d3 = deriv_tuple(snap, np.array(y))
            fd1, fd2, fd3 = central_derivatives(snap, y)
            assert abs(fd1 - d1) <= 1e-6 * max(1.0, abs(d1))
            assert abs(fd2 - d2) <= 1e-6 * max(1.0, abs(d2))
            assert abs(fd3 - d3) <= 1e-6 * max(1.0, abs(d3))


class TestWindingIdentity:
    def test_mean_t_derivative_near_winding(self):
        amp = c3_scaled_amplitude(0.05)
        F = arnold_skew(2, amp)
        for circle in periodic_circles(2, 4):
            rf = restricted_family(F, circle)
            assert abs(winding_check(rf) - 1.0) <= 0.05

    def test_norm_components_below_one(self):
        amp = c3_scaled_amplitude(0.05)
        F = arnold_skew(2, amp)
        rf = restricted_family(F, periodic_circles(2, 6)[-1])
        fn = restricted_norm(rf)
        assert fn.c3_g < 1.0 and fn.c0_dt < 1.0
        assert fn.value == max(fn.c3_g, fn.c0_dt)


class TestQuasiSearch:
    def test_zero_fiber_irrational_parameter(self):
        F = SkewMap(2)
        hit = quasi_search(F, GOLDEN, 1, 30, 0.5)
        assert hit is not None
        circle, res = hit
        assert circle.x0 == 0
        assert res.classification == IRRATIONAL_CANDIDATE
        assert abs(res.estimate - GOLDEN) <= res.error_bound

    def test_zero_fiber_rational_parameter_finds_nothing(self):
        F = SkewMap(2)
        assert quasi_search(F, 0.5, 2, 30, 0.5) is None

    def test_monotone_in_depth(self):
        amp = c3_scaled_amplitude(0.05)
        F = arnold_skew(2, amp)
        ts = RNG.uniform(0, 1, 12)
        elig = eligible_restrictions(F, 4, 0.5)
        for t in ts:
            shallow = quasi_search(F, float(t), 2, 20, 0.5,
                                   candidates=[e for e in elig if e[0].n <= 2])
            deep = quasi_search(F, float(t), 4, 20, 0.5, candidates=elig)
            if shallow is not None:
                assert deep is not None
