import math

import numpy as np
import pytest
import sympy

from circledyn.circle_map import (
    CircleFamily,
    ComposedCircleMap,
    TPoly,
    TrigPoly,
    c3_norm,
    family_norm,
)
from circledyn.errors import DegenerateFamily
from circledyn.gallery import arnold_family, rigid_family
from test_skew import deriv_tuple

TAU = 2 * math.pi
RNG = np.random.default_rng(20240817)


def iterate_lift(f, t, theta, n: int):
    """n-fold composition of the lift of ``f`` at parameter t."""
    for _ in range(n):
        theta = f.lift(t, theta)
    return theta


def lift1(cm, y):
    """The composed lift of a ComposedCircleMap, stage by stage."""
    for c, p in cm.stages:
        y = y + c + p(y)
    return y


def sympy_sup_of_derivative(expr_amp, j, order, n_points=20001):
    """Oracle: sup of |d^k/dx^k (amp * sin(2 pi j x))| by symbolic
    differentiation and a dense scan."""
    x = sympy.symbols("x")
    expr = expr_amp * sympy.sin(2 * sympy.pi * j * x)
    d = sympy.diff(expr, x, order)
    f = sympy.lambdify(x, d, "numpy")
    xs = np.linspace(0, 1, n_points)
    return float(np.max(np.abs(f(xs))))


class TestTPoly:
    def test_eval_and_deriv(self):
        p = TPoly((1.0, -2.0, 3.0))  # 1 - 2t + 3t^2
        assert p(0.5) == 1.0 - 1.0 + 0.75
        assert p.deriv().coeffs == (-2.0, 6.0)
        assert p.abs_bound() == 6.0

    @pytest.mark.parametrize("deg", range(5))
    def test_call_is_polyval_bit_for_bit(self, deg):
        # signed zeros, overflow to inf and inf * 0 = nan all come out of
        # the same float operations, in the same order
        values = [0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, 0.37, -2.5]
        for coeffs in [(0.3, -0.0, 2.5, -1e-3, 7.0), (-0.0, 0.0, -0.0, -0.0, -0.0),
                       (0.0, -1.5, 0.0, 3.0, -0.0)]:
            c = coeffs[:deg + 1]
            p = TPoly(c)
            for t in values + [np.asarray(v) for v in values] + [np.array(values)]:
                with np.errstate(over="ignore", invalid="ignore"):
                    got, want = p(t), np.polynomial.polynomial.polyval(t, c)
                assert np.shape(got) == np.shape(want), (c, t)
                assert np.asarray(got, float).tobytes() == np.asarray(want).tobytes(), (c, t)

    def test_compose_affine(self):
        p = TPoly((0.0, 1.0, 1.0))  # t + t^2
        q = p.compose_affine(0.2, 0.4)  # p(0.2 + 0.4 s)
        for s in (0.0, 0.3, 1.0):
            assert q(s) == pytest.approx(p(0.2 + 0.4 * s), abs=1e-15)


class TestTrigPoly:
    def test_periodicity_is_structural(self):
        p = TrigPoly(0.3, ((1, 0.2, -0.1), (3, 0.0, 0.05)))
        xs = RNG.uniform(-2, 2, 50)
        assert np.allclose(p(xs + 1.0), p(xs), atol=1e-12)

    def test_exact_derivatives_match_symbolic(self):
        amp, j = 0.07, 2
        p = TrigPoly(0.0, ((j, 0.0, amp),))
        x = sympy.symbols("x")
        expr = amp * sympy.sin(2 * sympy.pi * j * x)
        for order in range(1, 5):
            f = sympy.lambdify(x, sympy.diff(expr, x, order), "numpy")
            xs = RNG.uniform(0, 1, 40)
            assert np.allclose(p.deriv(order)(xs), f(xs), rtol=1e-12, atol=1e-12)

    def test_coefficient_bound_dominates(self):
        p = TrigPoly(0.1, ((1, 0.3, -0.2), (2, 0.0, 0.15)))
        xs = np.linspace(0, 1, 4096, endpoint=False)
        for k in range(4):
            assert np.max(np.abs(p.deriv(k)(xs))) <= p.deriv_bound(k) + 1e-12


class TestC3Norm:
    def test_zero(self):
        assert c3_norm(TrigPoly()) == 0.0

    def test_single_harmonic_sine(self):
        # amp * sin(2 pi x) with amp = 0.1 / (2 pi): norm = 0.1 * (2 pi)^2
        amp = 0.1 / TAU
        p = TrigPoly(0.0, ((1, 0.0, amp),))
        expected = max(sympy_sup_of_derivative(amp, 1, k) for k in range(4))
        assert expected == pytest.approx(0.1 * TAU ** 2, rel=1e-9)
        got = c3_norm(p)
        assert got >= expected - 1e-12  # certified upper bound
        assert got == pytest.approx(expected, rel=1e-2)

    def test_second_harmonic(self):
        c = 0.003
        p = TrigPoly(0.0, ((2, 0.0, c),))
        expected = c * (4 * math.pi) ** 3
        assert max(
            sympy_sup_of_derivative(c, 2, k) for k in range(4)
        ) == pytest.approx(expected, rel=1e-9)
        assert c3_norm(p) == pytest.approx(expected, rel=1e-2)
        assert c3_norm(p) >= expected - 1e-12

    def test_triangle_inequality(self):
        for _ in range(10):
            p = TrigPoly(RNG.normal(), ((1, RNG.normal(), RNG.normal()),))
            q = TrigPoly(RNG.normal(), ((2, RNG.normal(), RNG.normal()),))
            assert c3_norm(p + q) <= c3_norm(p) + c3_norm(q) + 1e-12


class TestEvalLift:
    def test_rigid_rotation(self):
        assert rigid_family().lift(0.25, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_arnold_value(self):
        fam = arnold_family(0.1 / TAU)
        expected = 0.25 + (0.1 / TAU) * math.sin(math.pi / 2)
        assert fam.lift(0.0, 0.25) == pytest.approx(expected, abs=1e-15)

    def test_equivariance(self):
        fam = arnold_family(0.12)
        for _ in range(25):
            t, th = RNG.uniform(0, 1), RNG.uniform(-3, 3)
            assert fam.lift(t, th + 1.0) - fam.lift(t, th) == pytest.approx(1.0, abs=1e-12)


class TestIterateLift:
    def test_rigid_ten_steps(self):
        assert iterate_lift(rigid_family(), 0.3, 0.0, 10) == pytest.approx(3.0, abs=1e-12)

    def test_fixed_point_stays(self):
        fam = arnold_family(0.2 / TAU)
        for n in (1, 5, 40):
            assert iterate_lift(fam, 0.0, 0.0, n) == pytest.approx(0.0, abs=1e-13)

    def test_semigroup_law(self):
        fam = arnold_family(0.09)
        for _ in range(10):
            t, th = RNG.uniform(0, 1), RNG.uniform(0, 1)
            a, b = int(RNG.integers(1, 8)), int(RNG.integers(1, 8))
            whole = iterate_lift(fam, t, th, a + b)
            split = iterate_lift(fam, t, iterate_lift(fam, t, th, a), b)
            assert whole == pytest.approx(split, abs=1e-12)

    def test_monotone_in_theta(self):
        fam = arnold_family(0.14)
        t = 0.37
        ths = np.sort(RNG.uniform(0, 1, 30))
        vals = [iterate_lift(fam, t, th, 7) for th in ths]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_displacement_increases_in_t(self):
        fam = arnold_family(0.1)
        th, n = 0.3, 6
        ts = np.sort(RNG.uniform(0, 1, 20))
        vals = [iterate_lift(fam, t, th, n) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestFamilyNorm:
    def test_zero_family(self):
        fn = family_norm(rigid_family())
        assert fn.value == 0.0

    def test_constant_amplitude(self):
        amp = 0.05 / TAU ** 3
        fn = family_norm(arnold_family(amp))
        assert fn.c3_g == pytest.approx(0.05, rel=1e-2)
        assert fn.c0_dt == 0.0

    def test_t_linear_amplitude(self):
        amp = 0.05 / TAU ** 3
        fam = CircleFamily(1, TPoly((0.0,)), ((1, TPoly((0.0,)), TPoly((0.0, amp))),))
        fn = family_norm(fam)
        assert fn.c0_dt == pytest.approx(amp, rel=1e-12)
        assert fn.c3_g == pytest.approx(0.05, rel=1e-2)
        assert fn.value == fn.c3_g

    def test_degenerate_family_raises(self):
        with pytest.raises(DegenerateFamily):
            family_norm(arnold_family(0.2))  # 0.2 * 2 pi > 1


class TestComposedCircleMap:
    def test_equivariance_and_diffeo(self):
        stages = (
            (0.21, TrigPoly(0.0, ((1, 0.0, 0.05),))),
            (0.21, TrigPoly(0.01, ((2, 0.02, 0.0),))),
        )
        cm = ComposedCircleMap(stages)
        cm.check_diffeo()
        for _ in range(20):
            y = RNG.uniform(-2, 2)
            assert lift1(cm, y + 1.0) - lift1(cm, y) == pytest.approx(1.0, abs=1e-12)

    def test_deriv_tuple_matches_single_stage(self):
        p = TrigPoly(0.0, ((1, 0.0, 0.05),))
        cm = ComposedCircleMap(((0.3, p),))
        ys = RNG.uniform(0, 1, 16)
        v, d1, d2, d3 = deriv_tuple(cm, ys)
        assert np.allclose(v, ys + 0.3 + p(ys), atol=1e-14)
        assert np.allclose(d1, 1.0 + p.deriv(1)(ys), atol=1e-14)
        assert np.allclose(d2, p.deriv(2)(ys), atol=1e-14)
        assert np.allclose(d3, p.deriv(3)(ys), atol=1e-14)


class TestRenormalized:
    def test_affine_reparameterization(self):
        fam = arnold_family(0.07)
        sub = fam.renormalized(0.2, 0.6)
        assert sub.winding == pytest.approx(0.4)
        for _ in range(15):
            s, th = RNG.uniform(0, 1), RNG.uniform(0, 1)
            assert sub.lift(s, th) == pytest.approx(
                fam.lift(0.2 + 0.4 * s, th), abs=1e-13
            )
