import math

import mpmath
import numpy as np
import pytest
from scipy.special import zeta

from circledyn import diophantine
from circledyn.diophantine import (
    ANALYTIC_C_MAX,
    ZETA3,
    DioParams,
    dio_measure,
    dio_member,
    exact_measure,
)

GOLDEN = (math.sqrt(5) - 1) / 2
RNG = np.random.default_rng(1234)


def test_zeta3_constant():
    assert ZETA3 == pytest.approx(float(zeta(3)), rel=1e-15)


class TestMembership:
    def test_half_excluded_at_two(self):
        for C in (0.01, 0.5, 2.0):
            r = dio_member(0.5, DioParams(C, 100))
            assert not r.member_up_to_cutoff
            assert r.excluded_n == 2

    def test_zero_excluded_at_one(self):
        r = dio_member(0.0, DioParams(0.3, 10))
        assert r.excluded_n == 1

    def test_golden_member(self):
        # direct-scan oracle: min over n <= 10^4 of 2|sin(pi n x)| n^3 stays
        # far above C = 0.05 for the golden conjugate
        ns = np.arange(1, 10_001, dtype=float)
        oracle = np.min(2 * np.abs(np.sin(np.pi * ns * GOLDEN)) * ns ** 3)
        assert oracle > 0.05
        assert dio_member(GOLDEN, DioParams(0.05, 10_000)).member_up_to_cutoff

    def test_monotone_in_C(self):
        params_small = DioParams(0.02, 500)
        params_big = DioParams(0.4, 500)
        for x in RNG.uniform(0, 1, 60):
            if dio_member(float(x), params_big).member_up_to_cutoff is False:
                continue
            # member at large C implies member at small C
            assert dio_member(float(x), params_small).member_up_to_cutoff

    def test_monotone_in_cutoff(self):
        for x in RNG.uniform(0, 1, 60):
            a = dio_member(float(x), DioParams(0.1, 50))
            b = dio_member(float(x), DioParams(0.1, 500))
            if not a.member_up_to_cutoff:
                assert not b.member_up_to_cutoff
                assert b.excluded_n == a.excluded_n

    def test_symmetry(self):
        params = DioParams(0.15, 300)
        for x in RNG.uniform(0, 1, 40):
            a = dio_member(float(x), params)
            b = dio_member(1.0 - float(x), params)
            assert a.member_up_to_cutoff == b.member_up_to_cutoff

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DioParams(0.0, 10)
        with pytest.raises(ValueError):
            DioParams(2.5, 10)
        with pytest.raises(ValueError):
            DioParams(0.1, 0)
        with pytest.raises(ValueError):
            DioParams(0.1, diophantine.MAX_N_MAX + 1)
        DioParams(0.1, diophantine.MAX_N_MAX)


class TestMeasure:
    def test_union_bound_holds(self):
        m = dio_measure(DioParams(0.1, 1000, 100_000))
        assert m.analytic_lower == pytest.approx(1 - 0.1 * float(zeta(3)) / math.pi,
                                                 rel=1e-12)
        assert m.estimate >= m.analytic_lower - m.grid_error
        # the overlap slack makes the bound hold even without the grid term
        assert m.estimate >= m.analytic_lower

    def test_estimates_increase_toward_one(self):
        vals = [dio_measure(DioParams(c, 500, 40_000)).estimate
                for c in (0.2, 0.1, 0.05)]
        assert vals[0] < vals[1] < vals[2] <= 1.0

    def test_tiny_C_near_full_measure(self):
        m = dio_measure(DioParams(1e-9, 1000, 100_000))
        assert m.estimate == pytest.approx(1.0, abs=1e-3)

    def test_sandwich(self):
        for c in (0.3, 0.05):
            m = dio_measure(DioParams(c, 300, 20_000))
            assert m.analytic_lower - m.grid_error <= m.estimate <= 1.0

    @pytest.mark.parametrize("n_max", [1, 2, 7, 60, 1000])
    def test_analytic_lower_below_exact_measure(self, n_max):
        # proven for C <= 1 at every cutoff, empty above
        for C in [0.01, 0.05, 0.2] + list(np.linspace(0.4, 2.0, 17)):
            params = DioParams(float(C), n_max)
            lower = dio_measure(params).analytic_lower
            exact, err = exact_measure(params)
            if C <= ANALYTIC_C_MAX:
                assert lower == 1.0 - C * ZETA3 / math.pi
                assert exact - err >= lower
            else:
                assert lower is None

    def test_formula_fails_above_the_range(self):
        # the union bound C / (pi n^3) per level undercounts asin(y) / y
        assert exact_measure(DioParams(2.0, 1))[0] == 0.0 < 1.0 - 2.0 * ZETA3 / math.pi
        exact, err = exact_measure(DioParams(1.4, 60))
        assert exact + err < 1.0 - 1.4 * ZETA3 / math.pi


def dense_estimate(params):
    """Every midpoint tested at every level: the count of ``grid`` cell
    midpoints that ``grid_error`` refers to."""
    xs = (np.arange(params.grid) + 0.5) / params.grid
    mask = np.ones(xs.shape, dtype=bool)
    for n in range(1, params.n_max + 1):
        mask &= 2.0 * np.abs(np.sin(np.pi * n * xs)) >= params.C / n ** 3
        if not mask.any():
            break
    return float(np.mean(mask))


def _seeded_cases(count, seed=606):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        C = float(np.exp(rng.uniform(math.log(1e-11), math.log(2.0))))
        grid = int(rng.choice([rng.integers(1, 5000), rng.integers(5000, 100_000)]))
        out.append((C, int(rng.integers(1, 200)), grid))
    return out


COUNT_CASES = [
    (0.1, 60, 600_000),     # the benchmark's settings
    (0.05, 300, 100_000),   # midpoints on p/n at n = 64, 128, 192, 256
    (0.1, 130, 100_000),
    (0.3, 200, 2 ** 16),
    (0.02, 100, 2 ** 10),
    (0.1, 1000, 1000),
    (0.2, 3000, 20_000),
    (0.3, 300, 100),
    (1.0, 50, 17),
    (0.5, 40, 1),
    (2.0, 1000, 100_000),   # everything excluded at n = 1
    (2.0, 5, 1001),         # the midpoint 1/2 passes level 1
    (2.0, 1, 100_001),
    (2.0, 3, 2 ** 21),      # the intervals around 0/1 and 1/1 touch at 1/2
    (2.0, 2, 2 ** 21 + 1),  # ... with the midpoint 1/2 between them
    (2.0, 40, 4097 + 40 * 41),
    (2.0 - 2 ** -51, 2, 1_000_001),
    (1.9999999999999, 1, 2 ** 21 - 1),
    (1.999, 20, 50_000),
    (1e-10, 500, 100_000),
    (5e-12, 200, 2 ** 17),
] + _seeded_cases(36)


class TestCountedGrid:
    @pytest.mark.parametrize("C,n_max,grid", COUNT_CASES)
    def test_counted_equals_dense(self, C, n_max, grid):
        # inside [0, 1] the excluded set is the two ends [0, h_1) and
        # (1 - h_1, 1], where a midpoint count errs by at most half a cell
        # each, and at most n_max (n_max - 1) / 2 interior intervals (n - 1
        # more at level n), where it errs by at most one cell each; so a
        # count of the grid lies within grid_error of the exact measure
        params = DioParams(C, n_max, grid)
        m = dio_measure(params)
        assert abs(dense_estimate(params) - m.estimate) <= m.grid_error + m.exact_error

    def test_grid_beyond_memory(self):
        # ten billion cells: the measure tests no grid
        params = DioParams(0.1, 2, 10 ** 10)
        assert dio_measure(params).estimate == exact_measure(params)[0]


def union_oracle(C, n_max):
    """1 minus the union length of the failing intervals, merged in a loop."""
    iv = sorted(
        (max(p / n - h, 0.0), min(p / n + h, 1.0))
        for n in range(1, n_max + 1)
        for h in [math.asin(C / (2.0 * n ** 3)) / (math.pi * n)]
        for p in range(n + 1)
    )
    total, (lo, hi) = 0.0, iv[0]
    for a, b in iv[1:]:
        if a > hi:
            total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    return 1.0 - (total + hi - lo)


def mp_exact(C, n_max):
    """The same union at 40 digits."""
    with mpmath.workdps(40):
        C = mpmath.mpf(C)
        iv = sorted(
            (max(mpmath.mpf(p) / n - h, 0), min(mpmath.mpf(p) / n + h, 1))
            for n in range(1, n_max + 1)
            for h in [mpmath.asin(C / (2 * n ** 3)) / (mpmath.pi * n)]
            for p in range(n + 1)
        )
        total, (lo, hi) = mpmath.mpf(0), iv[0]
        for a, b in iv[1:]:
            if a > hi:
                total += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        return 1 - (total + hi - lo)


class TestExactMeasure:
    @pytest.mark.parametrize("C,n_max", [(0.1, 1), (0.3, 20), (1.5, 12), (2.0, 6),
                                         (2.0 - 2 ** -50, 6), (1e-9, 30), (0.05, 60)])
    def test_within_its_rounding_bound_of_40_digits(self, C, n_max):
        got, err = exact_measure(DioParams(C, n_max))
        assert abs(got - float(mp_exact(C, n_max))) <= err
        assert err < (1e-7 if C > 1.99 else 1e-10)

    def test_blocks_add_up(self, monkeypatch):
        whole, err = exact_measure(DioParams(0.2, 300))
        assert whole == pytest.approx(union_oracle(0.2, 300), abs=err)
        monkeypatch.setattr(diophantine, "_BLOCK", 997)
        blocked, err_blocked = exact_measure(DioParams(0.2, 300))
        assert abs(blocked - whole) <= err + err_blocked

    @pytest.mark.parametrize("C,n_max,grid", [
        (0.1, 1000, 100_000),  # criterion 4's settings
        (0.1, 60, 600_000),    # the benchmark's settings
        (2.0, 5, 1000),        # nothing passes level 1
    ])
    def test_estimate_tracks_exact_measure(self, C, n_max, grid):
        params = DioParams(C, n_max, grid)
        m = dio_measure(params)
        assert (m.estimate, m.exact_error) == exact_measure(params)
