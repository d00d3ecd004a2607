import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn.circle_map import (
    DEFAULT_T_GRID,
    DEFAULT_THETA_GRID,
    CircleFamily,
    TPoly,
    _stage_bound,
    composed_deriv_bounds,
    family_norm,
)
from circledyn.experiments import sample_family
from circledyn.errors import DegenerateFiber
from circledyn.gallery import arnold_family, arnold_skew, c3_scaled_amplitude
from circledyn.rotation import IRRATIONAL_CANDIDATE, classify
from circledyn import skew
from circledyn.skew import (
    PeriodicCircle,
    RestrictedFamily,
    SkewMap,
    a3_check,
    eligible_restrictions,
    periodic_circles,
    quasi_search,
    restricted_family,
    restricted_norm,
)
from snapshot import central_derivatives, deriv_tuple, snapshot
from torus import skew_apply, winding_check

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

    @pytest.mark.parametrize("m", [1, 0, -2])
    def test_base_below_two_raises(self, m):
        # m = 1 has no isolated periodic circle, and x -> -2x is no base map
        # here: x0 = 0 would come out with period 2
        with pytest.raises(ValueError, match="base m"):
            periodic_circles(m, 3)


class TestFirstPerPeriod:
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_equals_enumeration(self, m):
        F = arnold_skew(m, c3_scaled_amplitude(0.05))
        for n_max in range(1, 7):
            first = {}
            for c in periodic_circles(m, n_max):
                first.setdefault(c.n, c)
            assert [rf.circle for rf in skew.first_per_period(F, n_max)] == list(first.values())

    def test_builds_no_other_circle(self, monkeypatch):
        def enumerated(*args):
            raise AssertionError("periodic_circles called")

        monkeypatch.setattr(skew, "periodic_circles", enumerated)
        fams = skew.first_per_period(arnold_skew(2, c3_scaled_amplitude(0.05)), 40)
        assert [rf.winding for rf in fams] == list(range(1, 41))
        assert fams[-1].circle.x0 == Fraction(1, 2 ** 40 - 1)
        assert brute_minimal_period(fams[-1].circle.x0, 2) == 40
        with pytest.raises(ValueError):
            skew.first_per_period(arnold_skew(2, 0.0), 0)


class TestHarmonicMerge:
    def test_equal_indices_summed_in_input_order(self):
        # a + b + c in float differs from a + (b + c) here: the order shows
        a, b, c = 0.1, 0.2, 0.3
        assert (a + b) + c != a + (b + c)
        F = SkewMap(2, ((0, 1, (a,), (c,)), (1, 2, (0.5,), (0.0,)), (0, 1, (b,), (b,)),
                        (0, 1, (c,), (a,))))
        assert F.harmonics[0][:2] == (0, 1) and F.harmonics[1][:2] == (1, 2)
        assert F.harmonics[0][2].coeffs == ((a + b) + c,)
        assert F.harmonics[0][3].coeffs == ((c + b) + a,)
        fam = CircleFamily(1, TPoly((0.0,)), ((2, (a,), (c,)), (1, (1.0,), (0.0,)),
                                              (2, (b,), (b,)), (2, (c,), (a,))))
        assert [j for j, _, _ in fam.harmonics] == [1, 2]
        assert fam.harmonics[1][1].coeffs == ((a + b) + c,)

    def test_fiber_stage_merges_abs_jy(self):
        a, b = 1e-3, 2e-3
        F = SkewMap(2, ((0, 1, (a,), (b,)), (0, 0, (a,), (0.0,)), (0, -1, (b,), (a,)),
                        (0, 2, (b,), (0.0,))))
        const, harm = F.fiber_stage(Fraction(0))
        assert const.coeffs == (0.0 + a,)
        # jy = -1 flips the sine coefficient: sin(-2 pi y) = -sin(2 pi y)
        assert [h[0] for h in harm] == [1, 2]
        assert harm[0][1].coeffs == (a + b,) and harm[0][2].coeffs == (b - a,)


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
        grid = rf.c3_sup(skew.C3_T_GRID, 8192)
        # the fiber is free of x and t: the circle family with its
        # coefficients has the same single stage, and no t margin
        (_, const, harm), = rf.stack
        direct = family_norm(CircleFamily(1, const, harm)).c3_g
        assert rf.c3_sup(skew.C3_T_GRID, DEFAULT_THETA_GRID) == direct
        assert grid == pytest.approx(direct, rel=1e-3)
        # one stage, one harmonic: the coefficient bound is the exact norm,
        # below every certified grid sup, and it decides the check
        sup, ok = a3_check(rf, 0.5)
        assert sup == rf.c3_bound() and ok
        assert amp * TAU ** 3 <= sup <= grid
        assert sup == pytest.approx(amp * TAU ** 3, rel=1e-2)

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
        assert restricted_norm(rf).c3_g == rf.c3_sup(skew.C3_T_GRID, skew.C3_Y_GRID)


def c3_sup_by_snapshots(fam, t_grid=skew.C3_T_GRID, y_grid=skew.C3_Y_GRID):
    """Oracle: the grid C3 sup of ``c3_sup``, as ``a3_check``'s fallback
    and ``family_norm`` take it, one ``snapshot(fam, t)`` at a time: lift - y
    - winding t as the sum of the stages' periodic parts, the exact chain
    rule, and margins from the snapshot's ``TrigPoly.deriv_bound``."""
    max_j = max((j for _, _, harm in fam.stack for j, _, _ in harm), default=0)
    y_grid = max(y_grid, 8 * max_j + 8, 16)
    ys = np.arange(y_grid) / y_grid
    sup = 0.0
    for t in np.linspace(0.0, 1.0, t_grid):
        snap = snapshot(fam, float(t))
        v, dev = ys, 0.0
        for c, p in snap.stages:
            dev = dev + p(v)
            v = v + c + p(v)
        _, d1, d2, d3 = deriv_tuple(snap, ys)
        margins = composed_deriv_bounds(
            [p.deriv_bound(k) for k in range(1, 5)] for _, p in snap.stages)
        sup = max(sup, *(float(np.max(np.abs(g))) + m / y_grid
                         for g, m in zip((dev, d1 - 1.0, d2, d3), margins)))
    return sup


def t_margin(fam):
    """Oracle: the t margin of ``family_norm``, from the coefficient bounds
    of d/dt of every theta-derivative up to order 3."""
    rate = 0.0
    for k in range(4):
        s = sum((TAU * j) ** k * (a.deriv().abs_bound() + b.deriv().abs_bound())
                for j, a, b in fam.harmonics)
        if k == 0:
            s += fam.const.deriv().abs_bound()
        rate = max(rate, s)
    return rate / (DEFAULT_T_GRID - 1)


def xdep_skew(m, rng):
    """A seeded skew map with x-dependent fibers and t-dependent coefficients."""
    harm = []
    for _ in range(3):
        jx, jy = int(rng.integers(0, 3)), int(rng.integers(0, 4))
        harm.append((jx, jy, TPoly(tuple(rng.normal(size=int(rng.integers(1, 3))) * 2e-3)),
                     TPoly(tuple(rng.normal(size=2) * 2e-3))))
    return SkewMap(m, tuple(harm))


# (make, n_max) of the skew maps whose circles the C3 tests check
C3_FIXTURES = {
    "theoremA": (lambda: arnold_skew(2, c3_scaled_amplitude(0.05)), 3),
    "skew-search": (lambda: SkewMap(2, ((0, 1, (0.0,), (1e-4,)), (1, 1, (2e-5,), (6e-5,)),
                                        (0, 2, (2.4e-5,), (-1e-5,)))), 4),
    "random-m2": (lambda: xdep_skew(2, np.random.default_rng(3)), 3),
    "random-m3": (lambda: xdep_skew(3, np.random.default_rng(4)), 2),
}


class TestC3Sup:
    """``c3_sup`` evaluates every t value at once; its sup must equal the
    snapshot-by-snapshot chain rule bit for bit, so the grid rows of
    ``circles.csv`` and ``eta.csv`` keep their bytes."""

    @pytest.mark.parametrize("make, n_max", C3_FIXTURES.values(), ids=C3_FIXTURES.keys())
    def test_equals_snapshot_chain_rule(self, make, n_max):
        F = make()
        for circle in periodic_circles(F.m, n_max):
            rf = restricted_family(F, circle)
            assert rf.c3_sup(skew.C3_T_GRID, skew.C3_Y_GRID) == c3_sup_by_snapshots(rf), circle

    def test_composed_bounds_dominate_the_chain_rule(self):
        ys = np.arange(1024) / 1024
        for F in (xdep_skew(2, np.random.default_rng(3)), arnold_skew(2, 0.05)):
            for circle in periodic_circles(F.m, 3):
                rf = restricted_family(F, circle)
                for t in (0.0, 0.4, 1.0):
                    snap = snapshot(rf, t)
                    stages = [[p.deriv_bound(k) for k in range(1, 5)] for _, p in snap.stages]
                    bounds = composed_deriv_bounds(stages)
                    _, d1, d2, d3 = deriv_tuple(snap, ys)
                    for g, bound in zip((d1 - 1.0, d2, d3), bounds):
                        assert np.max(np.abs(g)) <= bound * (1 + 1e-12)
                    if circle.n == 1:  # one stage: its own bounds, exactly
                        assert bounds == tuple(stages[0])

    @pytest.mark.parametrize("make", [
        lambda: arnold_family(0.1),
        lambda: sample_family(np.random.default_rng(5), [0.4])[0],
        lambda: sample_family(np.random.default_rng(8), [0.9])[0],
        # the constant binds, so the C0 row and its margin decide the norm
        lambda: CircleFamily(1, TPoly((0.3, 0.01)), ((1, TPoly((1e-4,)), TPoly((0.0, 2e-5))),)),
        lambda: CircleFamily(1, TPoly((0.0,)), ((1, TPoly((0.0,)), TPoly((0.15, -0.15))),
                                                (3, TPoly((0.002, -0.001)), TPoly((0.0,))))),
    ], ids=["arnold", "sample-0.4", "sample-0.9", "constant", "t-dependent"])
    def test_family_norm_equals_snapshot_chain_rule(self, make):
        fam = make()
        want = c3_sup_by_snapshots(fam, DEFAULT_T_GRID, DEFAULT_THETA_GRID) + t_margin(fam)
        assert family_norm(fam).c3_g == want


def dense_c3_sup(fam, t_grid=65, y_grid=2048):
    """Oracle: the max over a (t, y) grid of |lift - y - winding t|, |d1 -
    1|, |d2| and |d3|, by the chain rule on ``snapshot(fam, t)``, with no
    margins.  d1 - 1 is summed stage by stage, (d1 - 1) + p' d1, so that
    it does not lose the digits that 1 + p' rounds away."""
    ys = np.arange(y_grid) / y_grid
    sup = 0.0
    for t in np.linspace(0.0, 1.0, t_grid):
        v, dev, d1, e1, d2, d3 = ys, 0.0, 1.0, 0.0, 0.0, 0.0
        for c, p in snapshot(fam, float(t)).stages:
            p0, p1, p2, p3 = (p.deriv(k)(v) for k in range(4))
            e1 = e1 + p1 * d1
            d1, d2, d3 = ((1.0 + p1) * d1, (1.0 + p1) * d2 + p2 * d1 ** 2,
                          (1.0 + p1) * d3 + 3.0 * p2 * d1 * d2 + p3 * d1 ** 3)
            dev = dev + p0
            v = v + c + p0
        sup = max(sup, *(float(np.max(np.abs(g))) for g in (dev, e1, d2, d3)))
    return sup


def raw_c3_bound(fam):
    """``c3_bound`` without its rounding factor."""
    stages = [[_stage_bound(c, harm, k) for k in range(1, 5)] for _, c, harm in fam.stack]
    return max((fam.g_sup_bound(),) + composed_deriv_bounds(stages)[:3])


# derandomized, as the definition-file fuzz tests
FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)
COEFF = st.floats(-2e-3, 2e-3)
TERMS = st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3),
                           st.lists(COEFF, min_size=1, max_size=3),
                           st.lists(COEFF, min_size=1, max_size=3)), min_size=1, max_size=3)


class TestC3Bound:
    """``c3_bound`` holds for every t and y: it is never below a dense
    sample of the four orders, and ``a3_check`` uses it alone where it
    settles R."""

    @pytest.mark.parametrize("make, n_max", [
        *C3_FIXTURES.values(),
        # the constant binds: a bound without order 0 would be far below
        (lambda: SkewMap(2, ((0, 0, (0.3,), (0.0,)), (0, 1, (0.0,), (1e-4,)))), 2),
    ], ids=[*C3_FIXTURES.keys(), "constant"])
    def test_dominates_dense_samples(self, make, n_max):
        F = make()
        for circle in periodic_circles(F.m, n_max):
            rf = restricted_family(F, circle)
            assert rf.c3_bound() >= dense_c3_sup(rf), circle

    @FUZZ
    @given(st.sampled_from([2, 3]), TERMS)
    def test_dominates_dense_samples_fuzz(self, m, terms):
        F = SkewMap(m, tuple((jx, jy, TPoly(a), TPoly(b)) for jx, jy, a, b in terms))
        for circle in periodic_circles(m, 2):
            rf = restricted_family(F, circle)
            assert rf.c3_bound() >= dense_c3_sup(rf, t_grid=5, y_grid=256), circle

    def test_rounding_factor(self):
        # b sin(2 pi y), one stage: the coefficient bound is the exact norm
        # (2 pi)^3 b, reached at y = 0, and in floats it rounds below that
        import mpmath

        b = 1.3e-3
        rf = restricted_family(SkewMap(2, ((0, 1, (0.0,), (b,)),)), periodic_circles(2, 1)[0])
        with mpmath.workdps(40):
            tau = 2 * mpmath.pi
            exact = max(abs(tau ** 3 * b * mpmath.cos(tau * k / 64)) for k in range(64))
            assert raw_c3_bound(rf) < exact
            assert rf.c3_bound() >= exact
        assert rf.c3_bound() <= raw_c3_bound(rf) * (1 + 1e-13)

    @pytest.mark.parametrize("j, b, n", [(1, 1e307, 1), (1, 1e154, 2), (3 * 10 ** 307, 1e-3, 2)],
                             ids=["inf-times-0", "pow", "nan-after-inf"])
    def test_overflow_is_inf(self, j, b, n):
        # built without the diffeomorphism check, which such a fiber fails;
        # in the last case a second stage without harmonics turns the
        # overflowed derivative bounds into nan, and order 0 is small
        F = SkewMap(2, ((0, j, (0.0,), (b,)),))
        stage = F.fiber_stage(Fraction(0))
        stages = (stage, stage) if j == 1 else (stage, (TPoly((0.0,)), ()))
        rf = RestrictedFamily(periodic_circles(2, n)[-1], stages[:n])
        assert rf.c3_bound() == math.inf

    @pytest.mark.parametrize("make, n_max", C3_FIXTURES.values(), ids=C3_FIXTURES.keys())
    def test_a3_check_decides_by_bound_or_grid(self, make, n_max):
        F = make()
        for circle in periodic_circles(F.m, n_max):
            rf = restricted_family(F, circle)
            bound = rf.c3_bound()
            grid = rf.c3_sup(skew.C3_T_GRID, skew.C3_Y_GRID)
            if bound < 1.0:
                assert a3_check(rf, (1.0 + bound) / 2) == (bound, True)
            # where the bound does not settle R, the grid decides, bit for bit;
            # with several harmonics or stages it can pass a circle
            for R in (bound / 2, bound, min(bound, (bound + grid) / 2)):
                if 0.0 < R < 1.0:
                    assert a3_check(rf, R) == (grid, grid < R), (circle, R)


def first_failing_stage(fam):
    """Oracle: the first (t, stage) at which 1 + p_i' <= 0 on the stage's
    own DEFAULT_THETA_GRID points, scanning each ``snapshot(fam, t)`` of the
    DEFAULT_T_GRID values of t in turn, or None."""
    xs = np.arange(DEFAULT_THETA_GRID) / DEFAULT_THETA_GRID
    for t in np.linspace(0.0, 1.0, DEFAULT_T_GRID):
        for i, (_, p) in enumerate(snapshot(fam, float(t)).stages):
            if np.min(1.0 + p.deriv(1)(xs)) <= 0.0:
                return float(t), i + 1
    return None


class TestCheckDiffeo:
    def test_only_a_later_stage_fails(self):
        # the (1, 1) coefficient 0.12 + 0.06 t tips only the fiber over
        # x = 4/7 past 1 + p' > 0, the third stage of the circle at 1/7
        F = SkewMap(2, ((1, 1, (0.12, 0.06), (0.0,)), (0, 1, (0.0,), (0.05,))), label="late")
        circle = periodic_circles(2, 3)[3]
        assert circle.x0 == Fraction(1, 7)
        stages = tuple(F.fiber_stage(Fraction(k, 7)) for k in (1, 2, 4))
        rf = skew.RestrictedFamily(circle, stages, label="late|1/7")
        assert first_failing_stage(rf) == (0.1875, 3)
        for k in (1, 2):  # the earlier stages alone never fail
            alone = skew.RestrictedFamily(circle, (F.fiber_stage(Fraction(k, 7)),))
            assert first_failing_stage(alone) is None
        with pytest.raises(DegenerateFiber) as err:
            restricted_family(F, circle)
        assert str(err.value) == "stage 3 is not a diffeomorphism at t=0.1875 of 'late|1/7'"

    def test_bound_above_one_with_passing_scan(self):
        # |a| + |b| overstates the amplitude hypot(a, b) of a cos + b sin
        fam = CircleFamily(1, TPoly((0.0,)), ((1, TPoly((0.1, 0.02)), TPoly((0.1,))),))
        F = SkewMap(2, ((1, 1, (0.1,), (0.0,)), (0, 1, (0.0,), (0.1, 0.02))))
        rf = skew.RestrictedFamily(periodic_circles(2, 1)[0], (F.fiber_stage(Fraction(0)),))
        for stack in (fam, rf):
            assert stack.dtheta_lift_bound() >= 2.0  # so the scan runs
            assert first_failing_stage(stack) is None
            stack.check_diffeo()
        family_norm(fam)
        restricted_family(F, periodic_circles(2, 1)[0])


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


class TestDerivativeOracle:
    def test_chain_rule_matches_finite_differences(self):
        F = arnold_skew(2, 0.05)
        circles = periodic_circles(2, 4)
        for _ in range(40):
            circle = circles[int(RNG.integers(len(circles)))]
            rf = restricted_family(F, circle)
            t, y = float(RNG.uniform(0, 1)), float(RNG.uniform(0, 1))
            snap = snapshot(rf, t)
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
