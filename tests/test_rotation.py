import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest

from circledyn import circle_map, farey, rotation, windows
from circledyn.circle_map import CircleFamily, StageStack, TPoly
from circledyn.experiments import sample_family
from circledyn.gallery import arnold_family, arnold_skew, c3_scaled_amplitude, rigid_family
from circledyn.rotation import (
    CLASSIFY_N_ITER,
    IRRATIONAL_CANDIDATE,
    LOCKED,
    MIN_BLOCK,
    NOT_LOCKED,
    UNRESOLVED,
    classify,
    classify_batch,
    is_locked,
    rho_estimate,
)
from circledyn.skew import SkewMap, first_per_period, periodic_circles, restricted_family

GOLDEN = (math.sqrt(5) - 1) / 2
RNG = np.random.default_rng(31415)


def circle_dist(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


class TestRhoEstimate:
    def test_rigid_rotation_exact(self):
        res = rho_estimate(rigid_family(), GOLDEN, n_iter=10_000)
        assert abs(res.estimate - GOLDEN) <= res.error_bound
        assert abs(res.estimate - GOLDEN) <= 1e-4

    def test_attracting_fixed_point_drives_estimate_to_zero(self):
        # brute-force orbit oracle: under theta + (0.2 / 2 pi) cos(2 pi theta)
        # the orbit of 0 converges to the attracting fixed point at theta =
        # 1/4 (derivative 0.8), so displacement/n -> 0
        fam = CircleFamily(1, TPoly((0.0,)), ((1, TPoly((0.2 / (2 * math.pi),)), TPoly((0.0,))),))
        prev = None
        for n in (100, 1000, 10_000):
            res = rho_estimate(fam, 0.0, n_iter=n)
            assert res.displacement * n == pytest.approx(0.25, abs=1e-9)
            d = min(res.estimate, 1.0 - res.estimate)
            if prev is not None:
                assert d < prev
            prev = d
        assert prev < 1e-4

    def test_error_bound_halves(self):
        fam = arnold_family(0.05)
        a = rho_estimate(fam, 0.3, n_iter=500)
        b = rho_estimate(fam, 0.3, n_iter=1000)
        assert b.error_bound == pytest.approx(a.error_bound / 2)


class TestIsLocked:
    def test_arnold_fixed_point_at_zero(self):
        assert is_locked(arnold_family(0.1), 0.0, 0, 1).status == LOCKED

    def test_outside_closed_form_window(self):
        # fixed-point condition t + 0.1 sin(2 pi theta) = 0 solvable iff |t| <= 0.1
        chk = is_locked(arnold_family(0.1), 0.2, 0, 1)
        assert chk.status == NOT_LOCKED

    def test_rigid_irrational_never_locks(self):
        fam = rigid_family()
        for p, q in [(0, 1), (1, 2), (2, 3), (3, 7)]:
            assert is_locked(fam, GOLDEN, p, q).status == NOT_LOCKED

    def test_rejects_unreduced_fraction(self):
        with pytest.raises(ValueError):
            is_locked(rigid_family(), 0.5, 2, 4)

    def test_window_lock_has_a_sign_change(self):
        fam = arnold_family(0.1)
        thetas = np.arange(rotation.lock_grid_size(1)) / rotation.lock_grid_size(1)
        for t in (0.0, 0.05, 0.09):
            assert is_locked(fam, t, 0, 1).status == LOCKED
            # independent check: lift - id changes sign, so a fixed point
            # lies between two grid points
            d = fam.lift(t, thetas) - thetas
            assert d.min() < 0.0 < d.max()

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_is_unresolved(self, t):
        # D is nan on the whole grid (nan is no sign change), or for the
        # rigid family at +-inf infinite, with an infinite rounding bound
        for fam in (arnold_family(0.1), rigid_family(), three_stage_family()):
            for p, q in [(0, 1), (1, 2), (2, 5)]:
                assert is_locked(fam, t, p, q).status == UNRESOLVED, (fam.label, p, q)

    def test_lock_grid_capped(self):
        assert [rotation.lock_grid_size(q) for q in (1, 20, 21, 30, 31, 140)] == [
            4096, 4096, 8192, 8192, 16384, rotation.MAX_LOCK_GRID]
        for q in (141, 189, 10 ** 30):
            with pytest.raises(ValueError, match="q <= 140"):
                rotation.lock_grid_size(q)
        # the grid is chosen before any orbit is evaluated
        with pytest.raises(ValueError):
            is_locked(arnold_family(0.1), 0.45, 85, 189)


    def test_lipschitz_power_beyond_float_range(self):
        # L = 202.7 for these 8 stages at t = 0.3, so L^139 overflows a
        # float; the margin is then infinite and only a sign change decides
        F = SkewMap(2, ((0, 1, TPoly((0.0,)), TPoly((0.15,))),))
        rf = restricted_family(F, next(c for c in periodic_circles(2, 8) if c.n == 8))
        assert 139 * math.log10(rf.dtheta_lift_bound(0.3)) > 309
        for p in (1, 2, 40):
            assert is_locked(rf, 0.3, p, 139, grid=512).status != NOT_LOCKED


class TestClassify:
    def test_rigid_golden_is_irrational_candidate(self):
        res = classify(rigid_family(), GOLDEN, q_max=50)
        assert res.classification == IRRATIONAL_CANDIDATE

    def test_arnold_inside_window_locks_at_zero(self):
        res = classify(arnold_family(0.1), 0.05, q_max=30)
        assert res.classification == LOCKED
        assert (res.p, res.q) == (0, 1)

    def test_boundary_is_locked_or_unresolved(self):
        res = classify(arnold_family(0.1), 0.1, q_max=30)
        assert res.classification in (LOCKED, UNRESOLVED)

    def test_wrap_around_window_locks(self):
        # t = 0.95 sits in the lift-displacement-1 window; classification
        # reduces it to rotation number 0/1
        res = classify(arnold_family(0.1), 0.95, q_max=30)
        assert res.classification == LOCKED
        assert (res.p, res.q) == (0, 1)

    def test_rational_rigid_rotation_locks(self):
        res = classify(rigid_family(), 0.5, q_max=5)
        assert res.classification == LOCKED
        assert (res.p, res.q) == (1, 2)

    def test_final_bar_is_widened_by_the_drift(self):
        # the computed mean displacement may be off by the rounding drift
        # (4.55e-13 here), so 1/2 just outside the 1/n bar must still be tried
        fam, n = rigid_family(), 4096
        disp = 0.5 + 1.0 / n + 1e-13
        assert 1e-13 < rotation._drift(1.0, n, disp) < 1e-12
        assert is_locked(fam, 0.5, 1, 2).status == LOCKED
        res = rotation._decide(fam, 0.5, disp, n, 5, None)
        assert res.classification == LOCKED
        assert (res.p, res.q) == (1, 2)
        # the reported bar is the one searched, so it holds p/q
        assert res.error_bound == 1.0 / n + rotation._drift(1.0, n, disp)
        assert circle_dist(res.p / res.q, res.estimate) <= res.error_bound

    def test_consistency_with_estimate(self):
        fam = arnold_family(0.08)
        for t in RNG.uniform(0, 1, 12):
            res = classify(fam, float(t), q_max=20)
            if res.classification == LOCKED:
                assert circle_dist(res.p / res.q, res.estimate) <= res.error_bound


class TestDisplacementInequality:
    def test_random_maps_and_iterates(self):
        fam = arnold_family(0.12)
        for _ in range(15):
            t = float(RNG.uniform(0, 1))
            theta = float(RNG.uniform(0, 1))
            n = int(RNG.integers(1, 400))
            res = rho_estimate(fam, t, n_iter=2000)
            out = theta
            for _ in range(n):
                out = fam.lift(t, out)
            rho_n = res.displacement
            assert abs(out - theta - n * rho_n) <= 1.0 + n * res.error_bound

    def test_rho_squeeze_by_periodic_part(self):
        # |displacement - N t| <= sup |g_t| for winding-N families
        fam = arnold_family(0.09)
        for t in RNG.uniform(0, 1, 10):
            res = rho_estimate(fam, float(t), n_iter=3000)
            assert abs(res.displacement - t) <= 0.09 + 2 * res.error_bound


class TestClassifyBatch:
    def test_matches_scalar_path(self):
        fam = arnold_family(0.1)
        ts = [0.03, 0.25, 0.5, 0.97]
        batch = classify_batch(fam, ts, q_max=10, n_iter=2048)
        for t, got in zip(ts, batch):
            ref = classify(fam, t, q_max=10, n_iter=2048)
            assert got.classification == ref.classification
            assert got.estimate == pytest.approx(ref.estimate, abs=1e-12)

    @pytest.mark.parametrize("workers, sizes", [(1, [7]), (3, [3, 2, 2]), (9, [1] * 7)])
    @pytest.mark.usefixtures("small_blocks")
    def test_one_block_per_worker(self, workers, sizes):
        # a map_fn with a worker count gets one block per worker, never an
        # empty one; the plain map sweeps one block
        pool = BlockSizes(workers)
        fam, ts = arnold_family(0.1), np.linspace(0.0, 1.0, 7)
        assert classify_batch(fam, ts, q_max=6, map_fn=pool) == classify_batch(fam, ts, q_max=6)
        assert pool.sizes == sizes

    @pytest.mark.parametrize("workers, total, n_iter, blocks", [
        (2, 2 * MIN_BLOCK - 1, CLASSIFY_N_ITER, 1), (2, 2 * MIN_BLOCK, CLASSIFY_N_ITER, 2),
        (2, MIN_BLOCK, 2 * CLASSIFY_N_ITER - 1, 1), (2, MIN_BLOCK, 2 * CLASSIFY_N_ITER, 2),
        (4, 2 * MIN_BLOCK, CLASSIFY_N_ITER, 4)])
    def test_split_needs_two_min_blocks_of_work(self, workers, total, n_iter, blocks):
        # a sweep splits, one block per worker, once its values times its
        # steps reach two MIN_BLOCKs at CLASSIFY_N_ITER steps
        pool, ts = BlockSizes(workers), np.linspace(0.0, 1.0, total)
        counted = rotation.classify_groups([(arnold_family(0.1), ts)], q_max=3, n_iter=n_iter,
                                           map_fn=pool, retire=True,
                                           reduce=lambda part: sum(1 for _ in part))
        assert pool.sizes == [total // blocks] * blocks and counted == [pool.sizes]


def two_harmonic_family():
    return CircleFamily(1, TPoly((0.0, 0.01)), (
        (1, TPoly((0.02, 0.01)), TPoly((0.05,))),
        (3, TPoly((0.0,)), TPoly((0.005, 0.003))),
    ), label="two-harmonic")


def three_stage_family():
    F = SkewMap(2, (
        (0, 1, TPoly((0.0,)), TPoly((0.01,))),
        (1, 1, TPoly((0.0, 0.004)), TPoly((0.006,))),
    ))
    circle = next(c for c in periodic_circles(2, 3) if c.n == 3)
    return restricted_family(F, circle)


class TestSharedDisplacementPath:
    """``classify`` and ``classify_batch`` take the mean displacement from
    the same kernel, so a batch of one equals the scalar call bit for bit."""

    @pytest.mark.parametrize("make", [lambda: arnold_family(0.1), two_harmonic_family,
                                      three_stage_family],
                             ids=["arnold", "two-harmonic", "three-stage"])
    def test_batch_of_one_equals_scalar(self, make):
        fam = make()
        for t in (0.0, 0.05, 0.3, GOLDEN, 0.5, 0.95):
            one, batch = classify(fam, t), classify_batch(fam, [t])[0]
            for field in dataclasses.fields(one):
                assert getattr(one, field.name) == getattr(batch, field.name), (t, field.name)


def sampled_family():
    return sample_family(np.random.default_rng(5), [0.9])[0]


def near_checks(fam, ts, spread=0.02, q_max=30):
    """(t, p, q) for the reduced fractions near each t's mean
    displacement, so that every outcome occurs."""
    out = []
    for t in ts:
        d = float(rotation.displacement_batch(fam, t, n_iter=1024))
        for p, q in farey.fractions_in_interval(d - spread, d + spread, q_max)[:8]:
            out.append((float(t), p, q))
    return out


def full_grid_checks(fam, ts, spread=0.02, q_max=30):
    """``near_checks`` with the status of the full-grid rule."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rotation, "LOCK_COARSE_STRIDE", 1)
        return [(t, p, q, is_locked(fam, t, p, q).status)
                for t, p, q in near_checks(fam, ts, spread, q_max)]


def rigid_tol_family():
    """A rigid rotation offset by 1e-10: D is constant, 1e-10 for 0/1 at
    t = 0, so that check locks by ``LOCK_TOL`` alone."""
    return CircleFamily(1, TPoly((1e-10,)), (), label="rigid-1e-10")


def sign_scan(fam, t, p, q):
    """Oracle: the lock rule as a cyclic sign scan of D on the full grid,
    with D iterated by ``fam.lift``.  UNRESOLVED when D has a nan, LOCKED
    on a sign flip or a |D| <= ``LOCK_TOL``, and None otherwise (not
    locked or unresolved, as the margin decides)."""
    n = rotation.lock_grid_size(q)
    thetas = np.arange(n) / n
    with np.errstate(all="ignore"):
        y = thetas
        for _ in range(q):
            y = fam.lift(t, y)
        d = y - thetas - p
    if np.isnan(d).any():
        return UNRESOLVED
    sign = np.sign(d)
    if np.any(sign != np.roll(sign, -1)) or np.min(np.abs(d)) <= rotation.LOCK_TOL:
        return LOCKED
    return None


class TestSignScanOracle:
    """``is_locked`` decides from the grid extremes of D on one or two
    levels; it must lock exactly where the full-grid sign scan does, and
    leave a grid with a nan unresolved."""

    @pytest.mark.parametrize("make", [lambda: arnold_family(0.1), two_harmonic_family,
                                      three_stage_family, sampled_family, rigid_tol_family],
                             ids=["arnold", "two-harmonic", "three-stage", "sampled",
                                  "rigid-1e-10"])
    def test_status_equals_sign_scan(self, make):
        fam = make()
        ts = np.concatenate([np.random.default_rng(11).random(12), [0.0, 0.5]])
        checks = near_checks(fam, ts) + [(t, p, q) for t in (math.nan, math.inf, -math.inf)
                                         for p, q in [(0, 1), (1, 2)]]
        seen = set()
        for t, p, q in checks:
            want, got = sign_scan(fam, t, p, q), is_locked(fam, t, p, q).status
            seen.add(want)
            if want is None:
                assert got != LOCKED, (t, p, q)
            else:
                assert got == want, (t, p, q)
        assert seen == {LOCKED, UNRESOLVED, None}


class TestTwoLevelLockCheck:
    """``is_locked`` decides most checks on a sub-grid of theta; its status
    must equal that of the full-grid rule, which a stride of 1 restores."""

    @pytest.mark.parametrize("make", [lambda: arnold_family(0.1), two_harmonic_family,
                                      three_stage_family, sampled_family],
                             ids=["arnold", "two-harmonic", "three-stage", "sampled"])
    def test_status_equals_full_grid_rule(self, make):
        fam = make()
        # the random t mostly miss the narrow windows; t = 0 and 1/2 sit in some
        ts = np.concatenate([np.random.default_rng(11).random(12), [0.0, 0.5]])
        checks = full_grid_checks(fam, ts)
        assert {s for *_, s in checks} >= {LOCKED, NOT_LOCKED}
        for t, p, q, status in checks:
            assert is_locked(fam, t, p, q).status == status, (t, p, q)

    def test_dip_between_sub_grid_points_still_locks(self):
        # harmonic j = n/32 puts every sub-grid point on a crest of
        # t + a cos(2 pi j theta), where D = 1.5e-3 falls short of the
        # sub-grid margin B2 (s/n)^2 / 8 = 4.9e-3, so the check goes on to
        # the full grid, which sees the dip to D = -5e-4 between the
        # sub-grid points
        n = rotation.lock_grid_size(1)
        fam = CircleFamily(1, TPoly((0.0,)), ((n // 32, TPoly((1e-3,)), TPoly((0.0,))),))
        assert is_locked(fam, 5e-4, 0, 1).status == LOCKED
        thetas = np.arange(n) / n
        d = fam.lift(5e-4, thetas) - thetas
        assert d[::32].min() > 0.0 > d.min()  # the sign change is between sub-grid points

    def test_a_lock_takes_no_margin(self, monkeypatch):
        # B2 and rho serve only a grid clear of zero
        fam, taken, grids = arnold_family(0.1), [], []
        real_bound, real_disp = StageStack.iterate_d2_bound, rotation._q_disp

        def bound(self, t, q):
            taken.append(q)
            return real_bound(self, t, q)

        def disp(step, q, p, thetas):
            if np.size(thetas) == rotation.lock_grid_size(q):
                grids.append(q)
            return real_disp(step, q, p, thetas)

        monkeypatch.setattr(StageStack, "iterate_d2_bound", bound)
        monkeypatch.setattr(rotation, "_q_disp", disp)
        for t, p, q in [(0.0, 0, 1), (0.05, 0, 1), (0.5, 1, 2)]:
            assert is_locked(fam, t, p, q).status == LOCKED
        assert grids == [] and taken == []  # every lock was found on the sub-grid
        assert is_locked(fam, 0.3, 0, 1).status == NOT_LOCKED
        assert taken == [1]

    def test_most_checks_skip_the_full_grid(self, monkeypatch):
        fams = first_per_period(arnold_skew(2, c3_scaled_amplitude(0.05)), 3)
        calls, grids = [], []
        real_check, real_disp = rotation.is_locked, rotation._q_disp

        def check(fam, t, p, q, grid=None):
            calls.append(q)
            return real_check(fam, t, p, q, grid)

        def disp(step, q, p, thetas):
            if np.size(thetas) == rotation.lock_grid_size(q):
                grids.append(q)
            return real_disp(step, q, p, thetas)

        monkeypatch.setattr(rotation, "is_locked", check)
        monkeypatch.setattr(rotation, "_q_disp", disp)
        ts = np.random.default_rng(2024).random(300)
        for fam in fams:
            classify_batch(fam, ts)
        assert len(calls) >= 100
        assert len(grids) <= 0.25 * len(calls), (len(grids), len(calls))


    @pytest.mark.parametrize("make", [lambda: arnold_family(0.1), two_harmonic_family,
                                      three_stage_family, sampled_family],
                             ids=["arnold", "two-harmonic", "three-stage", "sampled"])
    def test_sub_grid_lock_takes_at_most_one_call_more(self, make, monkeypatch):
        # a lock evaluates D once per decision level: once on the full grid,
        # at most twice (sub-grid, then full grid) in two levels
        fam = make()
        ts = np.concatenate([np.random.default_rng(11).random(12), [0.0, 0.5]])
        locks = [c for c in full_grid_checks(fam, ts) if c[3] == LOCKED]
        assert locks
        real_q = rotation._q_disp
        calls = []

        def disp(*args):
            calls.append(1)
            return real_q(*args)

        monkeypatch.setattr(rotation, "_q_disp", disp)
        totals = []
        for stride in (rotation.LOCK_COARSE_STRIDE, 1):
            monkeypatch.setattr(rotation, "LOCK_COARSE_STRIDE", stride)
            calls.clear()
            for t, p, q, _ in locks:
                assert is_locked(fam, t, p, q).status == LOCKED
            totals.append(len(calls))
        assert totals[1] == len(locks)
        assert totals[0] <= totals[1] + len(locks), totals

    @pytest.mark.parametrize("make", [lambda: arnold_family(0.1), two_harmonic_family,
                                      three_stage_family, sampled_family],
                             ids=["arnold", "two-harmonic", "three-stage", "sampled"])
    def test_one_step_closure_per_decision_level(self, make, monkeypatch):
        # the sub-grid and the full grid of a check run at one t, so they
        # share one step_factory closure
        fam = make()
        ts = np.concatenate([np.random.default_rng(11).random(12), [0.0, 0.5]])
        checks = full_grid_checks(fam, ts)
        builds, levels = [], []
        real_factory = StageStack.step_factory
        real_decision = rotation._lock_decision

        def factory(self, t):
            builds.append(t)
            return real_factory(self, t)

        def decision(*args):
            levels.append(1)
            return real_decision(*args)

        monkeypatch.setattr(StageStack, "step_factory", factory)
        monkeypatch.setattr(rotation, "_lock_decision", decision)
        for t, p, q, _ in checks:
            builds.clear()
            levels.clear()
            is_locked(fam, t, p, q)
            assert 1 <= len(builds) <= len(levels), (t, p, q, len(builds), len(levels))


def exact_step(fam, t: float, y: float):
    """Oracle: one application of the lift in 60-digit arithmetic, with the
    float coefficients the kernel takes at t."""
    with mpmath.workdps(60):
        z = mpmath.mpf(y)
        for w, const, harm in fam.stack:
            acc = z + mpmath.mpf(float(w * t + const(t)))
            for j, a, b in harm:
                x = 2 * mpmath.pi * j * z
                acc += mpmath.mpf(float(a(t))) * mpmath.cos(x) + mpmath.mpf(float(b(t))) * mpmath.sin(x)
            z = acc
        return z


def step_bound(fam, t: float, y: float) -> float:
    """Rounding bound of one application at y: eps r (Y + 1) per stage
    application as derived in ``is_locked``, amplified by at most L by the
    later stages; Y = |y| + sum |drift| + L - 1 bounds every partial sum."""
    lip = fam.dtheta_lift_bound(t)
    y_max = abs(y) + sum(abs(float(w * t + c(t))) for w, c, _ in fam.stack) + lip - 1.0
    return rotation.EPS * lip * rotation._rounding_rate(fam, lip) * (y_max + 1.0)


def phased_arnold(amp=0.125, phase=0.3):
    """theta + t + amp sin 2 pi (theta + phase): both coefficients nonzero."""
    a, b = amp * math.sin(2 * math.pi * phase), amp * math.cos(2 * math.pi * phase)
    return CircleFamily(1, TPoly((0.0,)), ((1, TPoly((a,)), TPoly((b,))),))


def four_stage_family():
    F = SkewMap(2, (
        (0, 1, TPoly((0.0,)), TPoly((0.01,))),
        (1, 1, TPoly((0.0, 0.004)), TPoly((0.006,))),
        (2, 2, TPoly((0.002,)), TPoly((-0.001, 5e-4))),
    ))
    circle = next(c for c in periodic_circles(2, 4) if c.n == 4)
    return restricted_family(F, circle)


def near_pi_family(sign):
    """Two harmonics with b < 0 and |a| tiny: phi = atan2(a, b) sits within
    1e-16 of sign * pi, where its rounding is largest."""
    return CircleFamily(1, TPoly((0.0,)), (
        (1, TPoly((sign * 1e-17,)), TPoly((-0.15,))),
        (3, TPoly((-sign * 2e-18,)), TPoly((-0.01,))),
    ))


class TestPhaseKernel:
    """The stage kernel evaluates each harmonic as R sin(w y + phi); every
    step must stay within the rounding bound that ``is_locked`` and
    ``_decide`` use."""

    @pytest.mark.parametrize("make", [phased_arnold, two_harmonic_family, four_stage_family],
                             ids=["phased-arnold", "two-harmonic", "four-stage"])
    def test_orbit_steps_within_bound(self, make):
        fam = make()
        rng = np.random.default_rng(404)
        for t in rng.random(4):
            step = fam.step_factory(float(t))
            y = float(rng.uniform(0, 1))
            for k in range(40):
                if k == 20:
                    y += 4096.0  # lift values of a long orbit
                nxt = float(step(np.asarray(y)))
                gap = abs(mpmath.mpf(nxt) - exact_step(fam, float(t), y))
                assert gap <= step_bound(fam, float(t), y), (t, y)
                y = nxt

    @pytest.mark.parametrize("make", [phased_arnold, four_stage_family],
                             ids=["phased-arnold", "four-stage"])
    def test_array_t_steps_within_bound(self, make):
        fam = make()
        rng = np.random.default_rng(405)
        ts = np.concatenate([rng.random(24), rng.uniform(-50, 50, 8)])
        ys = rng.uniform(-3000, 3000, ts.size)
        step = fam.step_factory(ts)
        for _ in range(3):
            nxt = step(ys)
            for t, y, v in zip(ts, ys, nxt):
                gap = abs(mpmath.mpf(float(v)) - exact_step(fam, float(t), float(y)))
                assert gap <= step_bound(fam, float(t), float(y)), (t, y)
            ys = nxt

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["phi-near-pi", "phi-near-minus-pi"])
    def test_phase_near_pi_and_y_near_zero(self, sign):
        fam = near_pi_family(sign)
        _, _, harm = fam.stack[0]
        phi = np.arctan2(harm[0][1](0.0), harm[0][2](0.0))
        assert abs(abs(phi) - math.pi) < 1e-15 and np.sign(phi) == sign
        for t in (0.0, 1e-17, -1e-12):
            step = fam.step_factory(t)
            for y in (0.0, -0.0, 5e-324, 1e-300, -1e-17, 1e-9, -1e-9, 0.5 - 1e-16, 1.0):
                nxt = float(step(np.asarray(y)))
                gap = abs(mpmath.mpf(nxt) - exact_step(fam, t, y))
                assert gap <= step_bound(fam, t, y), (t, y)

    @pytest.mark.parametrize("make", [phased_arnold, two_harmonic_family, four_stage_family],
                             ids=["phased-arnold", "two-harmonic", "four-stage"])
    def test_float_orbit_equals_array_orbit(self, make):
        # a 0-d t and theta advance on Python floats with math.sin; each
        # orbit must equal its element of the array-path orbit bit for bit
        fam = make()
        rng = np.random.default_rng(406)
        ts = np.concatenate([rng.random(6), [0.0, 1.0],
                             rng.uniform(-1e7, 1e7, 4), [1e7, -1e7]])
        thetas = rng.uniform(-1.0, 1.0, ts.size)
        want = thetas
        step = fam.step_factory(ts)
        for _ in range(4096):
            want = step(want)
        for t, theta, w in zip(ts, thetas, want):
            step = fam.step_factory(float(t))
            y, ys = np.asarray(theta), np.full(2, theta)  # a float and an array orbit at t
            for _ in range(4096):
                y, ys = step(y), step(ys)
            assert type(y) is float, type(y)
            assert np.float64(y).tobytes() == w.tobytes(), (t, theta, y, w)
            assert ys.tobytes() == np.full(2, w).tobytes(), (t, theta)

    @pytest.mark.parametrize("make", [phased_arnold, two_harmonic_family, four_stage_family],
                             ids=["phased-arnold", "two-harmonic", "four-stage"])
    def test_float_orbit_overflows_quietly(self, make):
        # math.sin(+-inf) raises where numpy's sin gives nan; the float
        # path must end non-finite without an exception or a warning
        fam = make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e308, -1.797e308):
                step = fam.step_factory(t)
                y = 0.25
                for _ in range(4096):
                    y = step(y)
                assert not math.isfinite(y), (t, y)

    def test_rate_counts_the_phase_form_by_hand(self):
        # one stage with two harmonics: 3 additions; the argument w y + phi
        # costs 2 (L - 1); R and phi (1 ulp each, |phi| <= pi), the sum with
        # phi (pi / 2), sin (4) and the product (1 / 2) cost eps R each,
        # with R_1 + R_2 <= (L - 1) / 2 pi
        fam = CircleFamily(1, TPoly((0.0,)), ((1, TPoly((0.03,)), TPoly((-0.04,))),
                                              (2, TPoly((0.0,)), TPoly((0.01,)))))
        lip = 1.0 + 2 * math.pi * (0.07 + 2 * 0.01)
        assert fam.dtheta_lift_bound(0.5) == pytest.approx(lip, rel=1e-15)
        ulps = 1.0 + math.pi + math.pi / 2 + 4.0 + 0.5
        want = 3.0 + 2.0 * (lip - 1.0) + ulps * (lip - 1.0) / (2 * math.pi)
        assert rotation._rounding_rate(fam, lip) == pytest.approx(want, rel=1e-14)


class TestLargeParameter:
    def test_rounding_guard_leaves_unit_interval_alone(self, monkeypatch):
        fam = arnold_family(0.1)
        ts = np.linspace(0.0, 1.0, 41)
        guarded = classify_batch(fam, ts, q_max=10)
        monkeypatch.setattr(rotation, "EPS", 0.0)
        bare = classify_batch(fam, ts, q_max=10)
        # only the error bars, which carry the drift, differ
        assert all(r.error_bound == 1.0 / r.n_iter for r in bare)
        assert all(r.error_bound > 1.0 / r.n_iter for r in guarded)
        assert ([dataclasses.replace(r, error_bound=0.0) for r in bare]
                == [dataclasses.replace(r, error_bound=0.0) for r in guarded])

    def test_rounding_guard_bound_is_t_free_on_unit_interval(self, monkeypatch):
        # on [0, 1] the guard takes one t-free bound per batch; the other
        # bounds belong to the lock checks' margins, which every check that
        # does not lock takes, with its B2, and a lock only when its
        # sub-grid showed no sign change
        fam = three_stage_family()
        bounds, margins, checks = [], [], []
        real_bound, real_d2 = StageStack.dtheta_lift_bound, StageStack.iterate_d2_bound
        real_check = rotation.is_locked

        def bound(self, t=None):
            bounds.append(t)
            return real_bound(self, t)

        def d2(self, t, q):
            margins.append(t)
            return real_d2(self, t, q)

        def check(*args, **kwargs):
            checks.append(real_check(*args, **kwargs))
            return checks[-1]

        monkeypatch.setattr(StageStack, "dtheta_lift_bound", bound)
        monkeypatch.setattr(StageStack, "iterate_d2_bound", d2)
        monkeypatch.setattr(rotation, "is_locked", check)
        classify_batch(fam, np.linspace(0.0, 1.0, 41), q_max=10)
        assert bounds.count(None) == 1
        assert bounds[1:] == margins
        assert sum(c.status != LOCKED for c in checks) <= len(margins) <= len(checks)
        # a t outside [0, 1] keeps the bound at each t, so the guard fires
        bounds.clear()
        res = classify_batch(arnold_family(0.1), [0.5, 1e20])
        assert None not in bounds
        assert res[1].classification == UNRESOLVED


class BlockSizes:
    """A serial map_fn with a worker count that records the number of
    values in each block it maps."""

    def __init__(self, workers):
        self.workers, self.sizes = workers, []

    def __call__(self, fn, blocks):
        blocks = list(blocks)
        # a block is its pieces, (group, fam, ts, rate) each
        self.sizes.extend(sum(ts.size for _, _, ts, _ in b) for b in blocks)
        return map(fn, blocks)


class TwoBlocks:
    """A serial map_fn that asks for two worker blocks."""

    workers = 2

    def __call__(self, fn, items):
        return list(map(fn, items))


def retire_samples(fam, q_max, seed):
    """Seeded t in [0, 1], t within a few 1e-4 of the edges of the windows
    with q <= q_max (where lock checks are closest to undecided), and t near
    1e8, where the rounding guard fails at CLASSIFY_N_ITER iterates but
    holds at the first checkpoint."""
    rng = np.random.default_rng(seed)
    ws = windows.enumerate_windows(fam, q_max, tol=1e-6)
    edges = np.array([e for w in ws if w.width > 0 for e in (w.t_lo, w.t_hi)])
    near = np.clip(edges + rng.normal(0.0, 3e-4, edges.size), 0.0, 1.0)
    return np.concatenate([rng.random(150), near, 1e8 + rng.random(3)])


RETIRE_FAMILIES = {"arnold": lambda: arnold_family(0.13), "two-harmonic": two_harmonic_family,
                   "three-stage": three_stage_family, "sampled": sampled_family}


class TestRetiringSweep:
    """``classify_batch(retire=True)`` stops iterating a sample once its
    intersected error bar holds no candidate fraction."""

    def test_certified_window_samples_are_never_retired(self):
        # every t of a certified inner window [t_lo + r, t_hi - r] has
        # rho = p/q, which lies in every rigorous bar
        fam, q_max = arnold_family(0.1), 8
        ws = [w for w in windows.enumerate_windows(fam, q_max, tol=1e-7) if w.width > 0]
        ts = np.concatenate([np.linspace(w.t_lo + w.bracket_radius, w.t_hi - w.bracket_radius, 9)
                             for w in ws])
        full = classify_batch(fam, ts, q_max=q_max)
        ret = classify_batch(fam, ts, q_max=q_max, retire=True)
        assert all(r.n_iter == rotation.CLASSIFY_N_ITER for r in ret)
        assert ret == full
        assert sum(r.classification == LOCKED for r in ret) >= 0.9 * ts.size

    @pytest.mark.parametrize("name", sorted(RETIRE_FAMILIES))
    def test_classes_equal_the_full_sweep_but_unresolved(self, name):
        fam, q_max = RETIRE_FAMILIES[name](), 8
        ts = retire_samples(fam, 6, seed=sorted(RETIRE_FAMILIES).index(name))
        full = classify_batch(fam, ts, q_max=q_max)
        ret = classify_batch(fam, ts, q_max=q_max, retire=True)
        n_iter = rotation.CLASSIFY_N_ITER
        assert all(r.n_iter == n_iter for r in full)
        changed = retired = 0
        for t, a, b in zip(ts.tolist(), full, ret):
            if b.n_iter < n_iter:
                retired += 1
                assert b.n_iter in rotation.RETIRE_CHECKPOINTS
                assert b.classification == IRRATIONAL_CANDIDATE
                # the bar it was retired on, widened by the drift at t
                rate = rotation._rounding_rate(fam, fam.dtheta_lift_bound(t))
                drift = rotation._drift(rate, b.n_iter, b.displacement)
                assert b.error_bound == 1.0 / b.n_iter + drift
            else:  # a survivor's mean displacement is the full sweep's, bit for bit
                assert b.displacement == a.displacement
            if a.classification == LOCKED:
                assert b == a
            elif b.classification != a.classification:
                changed += 1
                assert (a.classification, b.classification) == (UNRESOLVED, IRRATIONAL_CANDIDATE)
        assert sum(a.classification == LOCKED for a in full) > 0
        assert sum(a.classification == UNRESOLVED for a in full) > changed
        assert retired > ts.size / 2
        if name == "arnold":  # t-free, so its guard holds at 1e8 and 256 iterates
            assert changed > 0

    @pytest.mark.parametrize("q_max", [1, 2, 5, 12, 30])
    def test_emptiness_agrees_with_fraction_search(self, q_max):
        rng = np.random.default_rng(q_max)
        mid = np.concatenate([rng.uniform(-3.0, 3.0, 300),
                              rng.integers(-3, 4, 200) + rng.normal(0.0, 2e-3, 200)])
        half = np.concatenate([rng.choice([1 / 256, 1 / 512, 1 / 1024, 1 / 2048], 400),
                               rng.uniform(-0.01, 0.2, 100)])
        lo, hi = mid - half, mid + half
        # bars that end exactly on a fraction, or on the next float past it
        fr = np.array([p / q for p, q in farey.farey_sequence(q_max)])
        at = rng.choice(fr, 100) + rng.integers(-2, 3, 100)
        lo = np.concatenate([lo, at, np.nextafter(at, np.inf), at - 1e-3, fr - 1e-3])
        hi = np.concatenate([hi, at + 1e-3, at + 1e-3, np.nextafter(at, -np.inf), fr])
        # just below an integer, lo - floor(lo) rounds to 1, and hi - floor(lo)
        # can too when hi < lo
        lo = np.concatenate([lo, [-1e-17, -1e-17, 2.0 - 1e-16]])
        hi = np.concatenate([hi, [-2e-17, -1e-17, 2.0 - 2e-16]])
        got = farey.holds_fraction(lo, hi, q_max)
        want = [bool(farey.fractions_in_interval(a, b, q_max)) for a, b in zip(lo, hi)]
        assert got.tolist() == want
        assert 0 < sum(want) < len(want)

    @pytest.mark.parametrize("name", ["arnold", "three-stage"])
    @pytest.mark.usefixtures("small_blocks")
    def test_two_blocks_equal_one(self, name):
        fam = RETIRE_FAMILIES[name]()
        ts = np.random.default_rng(7).random(200)
        serial = classify_batch(fam, ts, q_max=10, retire=True)
        assert classify_batch(fam, ts, q_max=10, retire=True, map_fn=TwoBlocks()) == serial
        assert any(r.n_iter < rotation.CLASSIFY_N_ITER for r in serial)


def merged_groups():
    """(family, t values) for one-stage families with 0 to 3 harmonics, the
    rigid one first, with their own sample sizes.

    The first four take seeded t in [0, 1], t near window edges and t near
    1e8, where the rigid family's rounding rate passes the guard at
    CLASSIFY_N_ITER iterates and the others' fail it.  The last has winding
    2^27 and t in [0, 1] only, so it takes the t-free rate, which fails the
    guard for t above about 0.4 where the rigid family's would pass."""
    fams = [rigid_family(), arnold_family(0.13),
            two_harmonic_family(), sampled_family()]
    groups = []
    for i, fam in enumerate(fams):
        rng = np.random.default_rng(40 + i)
        ws = windows.enumerate_windows(fam, 6, tol=1e-6)
        edges = np.array([e for w in ws if w.width > 0 for e in (w.t_lo, w.t_hi)])
        near = np.clip(edges + rng.normal(0.0, 3e-4, edges.size), 0.0, 1.0)
        groups.append((fam, np.concatenate([rng.random(30 + 7 * i), near, 1e8 + rng.random(3)])))
    fast = dataclasses.replace(arnold_family(0.13), winding=2 ** 27)
    return groups + [(fast, np.random.default_rng(44).random(40))]


@pytest.mark.usefixtures("small_blocks")
class TestMergedSweep:
    """``classify_groups`` sweeps several families at once; every value is
    classified as ``classify_batch`` classifies it on its own family."""

    @pytest.fixture(scope="class")
    def groups(self):
        return merged_groups()

    def per_family(self, groups, retire):
        return [classify_batch(fam, ts, q_max=6, retire=retire) for fam, ts in groups]

    @pytest.mark.parametrize("retire", [False, True])
    @pytest.mark.parametrize("map_fn", [map, TwoBlocks()], ids=["one-block", "two-blocks"])
    def test_equals_per_family_batch(self, groups, retire, map_fn):
        merged = rotation.classify_groups(groups, q_max=6, retire=retire, map_fn=map_fn)
        assert [[r for piece in pieces for r in piece] for pieces in merged] == \
            self.per_family(groups, retire)
        # the two blocks cut one family in two
        assert [len(pieces) for pieces in merged].count(2) == (map_fn is not map)

    def test_matrix_reaches_every_class(self, groups):
        for retire in (False, True):
            classes = {r.classification for res in self.per_family(groups, retire) for r in res}
            assert classes == {LOCKED, IRRATIONAL_CANDIDATE, UNRESOLVED}

    @pytest.mark.parametrize("retire", [False, True])
    def test_sweep_cap_cuts_blocks(self, groups, retire, monkeypatch):
        # blocks of at most 37 values, cut within families and across them
        monkeypatch.setattr(rotation, "SWEEP_PAIRS", 37)

        def tally(results):
            return [(r.classification, r.n_iter, r.displacement) for r in results]

        merged = rotation.classify_groups(groups, q_max=6, retire=retire, map_fn=TwoBlocks(),
                                          reduce=tally)
        for pieces, res in zip(merged, self.per_family(groups, retire)):
            assert [v for piece in pieces for v in piece] == tally(res)
            assert max(map(len, pieces)) <= 37
        assert sum(map(len, merged)) > 2 * len(groups)

    def test_padding_follows_the_real_harmonics(self, groups):
        parts = [(fam.phase_data(ts), ts.size) for fam, ts in groups]
        (drift, phased), = circle_map.merge_phases(parts)
        assert len(phased) == 3
        start = 0
        for ((own_drift, own), ), n in parts:
            at = slice(start, start + n)
            assert np.array_equal(drift[at], own_drift)
            for k, slot in enumerate(phased):
                want = own[k] if k < len(own) else (0.0, 0.0, 0.0)
                for got, value in zip(slot, want):
                    assert np.array_equal(got[at], np.broadcast_to(value, (n,)))
            start += n

    def test_blocks_merge_families_of_like_harmonic_counts(self):
        # cut in the callers' order, each block would mix 1 and 3 harmonics
        one = arnold_family(0.1)
        three = CircleFamily(1, TPoly((0.0,)), ((1, TPoly((0.02,)), TPoly((0.05,))),
                                                (2, TPoly((0.01,)), TPoly((0.0,))),
                                                (3, TPoly((0.0,)), TPoly((0.005,)))))
        ts = np.random.default_rng(5).random(20)
        groups = [(one, ts), (three, ts), (one, ts[:10]), (three, ts[10:])]
        seen = []

        class Pool:
            workers = 2

            def __call__(self, fn, blocks):
                blocks = list(blocks)
                seen.extend({len(fam.harmonics) for _, fam, _, _ in b} for b in blocks)
                return map(fn, blocks)

        merged = rotation.classify_groups(groups, q_max=6, map_fn=Pool())
        assert seen == [{1}, {3}]
        assert [[r for piece in pieces for r in piece] for pieces in merged] == \
            [classify_batch(fam, t, q_max=6) for fam, t in groups]

    def test_compressed_phases_are_the_subset_phases(self, groups):
        fam, ts = groups[3]
        keep = np.random.default_rng(3).random(ts.size) < 0.5
        step = circle_map.phase_step(circle_map.take_phases(fam.phase_data(ts), keep))
        theta = np.linspace(-1.0, 2.0, int(keep.sum()))
        assert np.array_equal(step(theta), fam.step_factory(ts[keep])(theta))

    def test_multi_stage_families(self):
        # one harmonic per stage, and two per stage, so the first is padded
        F = SkewMap(2, ((0, 1, TPoly((0.0,)), TPoly((0.02,))),
                        (1, 2, TPoly((0.003,)), TPoly((0.0, 0.002)))))
        groups = [(three_stage_family(), np.random.default_rng(1).random(40)),
                  (restricted_family(F, next(c for c in periodic_circles(2, 3) if c.n == 3)),
                   np.random.default_rng(2).random(30))]
        merged = rotation.classify_groups(groups, q_max=6, retire=True, map_fn=TwoBlocks())
        assert [[r for piece in pieces for r in piece] for pieces in merged] == \
            [classify_batch(fam, ts, q_max=6, retire=True) for fam, ts in groups]

    def test_unequal_stage_counts_raise(self):
        with pytest.raises(ValueError, match="same number of stages"):
            rotation.classify_groups([(arnold_family(0.1), [0.2]), (three_stage_family(), [0.2])])


def first_order_rule(fam, t, p, q, grid=None):
    """``is_locked`` before the second-order margin: the margin (1 + L^q) / n
    alone, without rounding, and on the sub-grid that margin + slack."""
    n = grid or rotation.lock_grid_size(q)
    step = fam.step_factory(t)
    lip = fam.dtheta_lift_bound(t)
    lip_q = lip ** q
    margin = (1.0 + lip_q) / n
    s = rotation.LOCK_COARSE_STRIDE
    if n % s == 0 and n // s >= rotation.LOCK_COARSE_MIN:
        y = 1.0 + q * (sum(abs(w * t + float(c(t))) for w, c, _ in fam.stack) + lip - 1.0)
        rho = 2.0 * rotation.EPS * (lip_q * q * rotation._rounding_rate(fam, lip) * (y + 1.0)
                                    + y + abs(p) + 1.0)
        slack = (lip_q - 1.0) * (s / n) / 2.0 + rho
        chk = rotation._lock_decision(step, p, q, n, s, lambda h: margin + slack)
        if chk.status != UNRESOLVED:
            return chk
    return rotation._lock_decision(step, p, q, n, 1, lambda h: margin)


def exact_d2(fam, t, q, theta):
    """Oracle: d^2/dtheta^2 of lift^q at theta in 50-digit arithmetic, by the
    chain rule along the orbit, with the float coefficients at t."""
    with mpmath.workdps(50):
        y, d1, d2 = mpmath.mpf(theta), mpmath.mpf(1), mpmath.mpf(0)
        for _ in range(q):
            for w, const, harm in fam.stack:
                acc, p1, p2 = y + mpmath.mpf(float(w * t + const(t))), 0, 0
                for j, a, b in harm:
                    a, b, k = mpmath.mpf(float(a(t))), mpmath.mpf(float(b(t))), 2 * mpmath.pi * j
                    c, s = mpmath.cos(k * y), mpmath.sin(k * y)
                    acc += a * c + b * s
                    p1 += k * (b * c - a * s)
                    p2 -= k * k * (a * c + b * s)
                y, d1, d2 = acc, (1 + p1) * d1, (1 + p1) * d2 + p2 * d1 ** 2
        return d2


def float_disp(fam, t, p, q, thetas):
    """D on an array of thetas in float64, in the cos/sin form rather than
    the kernel's phase form."""
    y = thetas
    for _ in range(q):
        for w, const, harm in fam.stack:
            acc = y + float(w * t + const(t))
            for j, a, b in harm:
                x = 2 * math.pi * j * y
                acc = acc + float(a(t)) * np.cos(x) + float(b(t)) * np.sin(x)
            y = acc
    return y - thetas - p


def exact_disp(fam, t, p, q, theta):
    z = mpmath.mpf(theta)
    for _ in range(q):
        z = exact_step(fam, t, z)
    return z - mpmath.mpf(theta) - p


def margin_checks():
    """About 50 seeded (family, t, p, q), q <= 30: Arnold families (q = 1
    first), sampled families and the 2-4-stage restrictions of an
    x-dependent skew map, each p/q near the mean displacement at t."""
    rng = np.random.default_rng(20261019)
    xdep = SkewMap(2, ((0, 1, TPoly((0.0,)), TPoly((0.004,))),
                       (1, 1, TPoly((0.0, 0.002)), TPoly((0.003,)))))
    fams = [arnold_family(a) for a in (0.159, *rng.uniform(0.02, 0.155, 5))]
    fams += [sample_family(rng, [r])[0] for r in rng.uniform(0.2, 0.95, 4)]
    fams += [restricted_family(xdep, c) for c in periodic_circles(2, 4)[1::3]]
    out = [(fams[0], 0.25, 0, 1), (fams[0], 0.1, 0, 1)]
    for fam in fams:
        # of the fractions within 0.05 of the mean displacement: the one of
        # least denominator, the closest one and one at random
        for pick in (lambda c: c[1], lambda c: abs(c[0] / c[1] - d), None):
            t = float(rng.random())
            d = float(rotation.displacement_batch(fam, t, n_iter=512))
            cands = farey.fractions_in_interval(d - 0.05, d + 0.05, 30)
            p, q = min(cands, key=pick) if pick else cands[int(rng.integers(len(cands)))]
            out.append((fam, t, p, q))
    return out


@pytest.mark.slow
class TestSecondOrderMargin:
    """``is_locked``'s second-order margin B2 h^2 / 8 + rho against an
    independent oracle."""

    def test_oracle(self):
        checks = margin_checks()
        assert 45 <= len(checks) <= 60
        ratios, moved, second, statuses = [], 0, 0, set()
        for fam, t, p, q in checks:
            # (a) B2 bounds |D''| on a 64-point theta grid, in 50 digits
            b2 = fam.iterate_d2_bound(t, q)
            d2 = max(abs(exact_d2(fam, t, q, i / 64)) for i in range(64))
            assert d2 <= b2, (fam.label, t, p, q)
            ratios.append(float(d2) / b2)
            for grid in (None, 512, 128):
                new, old = is_locked(fam, t, p, q, grid), first_order_rule(fam, t, p, q, grid)
                statuses.add(new.status)
                # (c) only unresolved moves, to not locked
                if old.status == UNRESOLVED and new.status == NOT_LOCKED:
                    moved += 1
                else:
                    assert new == old, (fam.label, t, p, q, grid)
                if new.status != NOT_LOCKED or old.status == NOT_LOCKED:
                    continue
                # (b) decided by the second-order margin alone: no sign change
                # on a grid 16 times finer; values near zero are taken in
                # 60 digits, and the float values agree with them elsewhere
                second += 1
                n = 16 * (grid or rotation.lock_grid_size(q))
                thetas = np.arange(n) / n
                disp = float_disp(fam, t, p, q, thetas)
                near = np.argsort(np.abs(disp))[:8]
                for i in near:
                    exact = exact_disp(fam, t, p, q, thetas[i])
                    assert abs(float(exact) - disp[i]) <= 1e-10
                    disp[i] = float(exact) if abs(disp[i]) < 1e-6 else disp[i]
                assert np.all(np.sign(disp) == np.sign(disp[0])), (fam.label, t, p, q, grid)
        assert statuses == {LOCKED, NOT_LOCKED, UNRESOLVED} or statuses == {LOCKED, NOT_LOCKED}
        assert moved >= 5 and second == moved
        # the bound is tight on some check: B2 / 8 falls below |D''| there
        assert max(ratios) > 1 / 8
