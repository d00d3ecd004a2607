import dataclasses
import math

import numpy as np
import pytest

from circledyn.circle_map import CircleFamily, TPoly
from circledyn.errors import EmptyBin
from circledyn.gallery import arnold_family, rigid_family
from circledyn.rotation import (
    IRRATIONAL_CANDIDATE,
    LOCKED,
    NOT_LOCKED,
    UNRESOLVED,
    circle_dist,
    classify,
    classify_batch,
    equidistribution_test,
    is_locked,
    rho_estimate,
)
from circledyn.skew import SkewMap, periodic_circles, restricted_family

GOLDEN = (math.sqrt(5) - 1) / 2
RNG = np.random.default_rng(31415)


class TestRhoEstimate:
    def test_rigid_rotation_exact(self):
        res = rho_estimate(rigid_family(), GOLDEN, n_iter=10_000)
        assert abs(res.estimate - GOLDEN) <= res.error_bound
        assert abs(res.estimate - GOLDEN) <= 1e-4

    def test_attracting_fixed_point_drives_estimate_to_zero(self):
        # brute-force orbit oracle: the orbit of 0.25 converges to the
        # attracting fixed point at theta = 0.5, so displacement/n -> 0
        fam = arnold_family(0.2 / (2 * math.pi))
        prev = None
        for n in (100, 1000, 10_000):
            res = rho_estimate(fam, 0.0, theta0=0.25, n_iter=n)
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
        chk = is_locked(arnold_family(0.1), 0.0, 0, 1)
        assert chk.status == LOCKED
        assert chk.witness is not None

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

    def test_witness_certifies(self):
        fam = arnold_family(0.1)
        for t in (0.0, 0.05, 0.09):
            chk = is_locked(fam, t, 0, 1)
            assert chk.status == LOCKED
            # independent check of the witness: |lift(theta*) - theta*| small
            d = fam.lift(t, chk.witness) - chk.witness
            assert abs(d) <= 1e-8


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


class TestEquidistribution:
    def test_golden_rotation_visits_every_bin(self):
        d = equidistribution_test(rigid_family(), GOLDEN, n_iter=100_000, bins=100)
        assert d <= 0.01

    def test_locked_map_raises_empty_bin(self):
        with pytest.raises(EmptyBin):
            equidistribution_test(arnold_family(0.1), 0.05, n_iter=5000, bins=50)

    def test_rational_rotation_raises_for_three_bins(self):
        with pytest.raises(EmptyBin):
            equidistribution_test(rigid_family(), 0.5, n_iter=1000, bins=3)
