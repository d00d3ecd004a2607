import numpy as np
import pytest

from circledyn.errors import HypothesisViolation
from circledyn.experiments import (
    eta_curve,
    intersection_measure,
    make_rng,
    norm_value,
    renormalization_check,
    sample_family,
)
from circledyn.gallery import arnold_skew, c3_scaled_amplitude
from circledyn.skew import first_per_period

AMP = c3_scaled_amplitude(0.05)


def restricted_list(amp, n_max):
    return first_per_period(arnold_skew(2, amp), n_max)


class TestIntersectionMeasure:
    def test_zero_fiber_measure_zero(self):
        fams = restricted_list(0.0, 3)
        res = intersection_measure(fams, 300, q_max=10, seed=5)
        assert all(v == 0.0 for v in res.mu_locked)
        assert res.windings_increasing

    def test_monotone_nonincreasing(self):
        fams = restricted_list(AMP, 4)
        res = intersection_measure(fams, 800, q_max=20, seed=6)
        assert all(b <= a for a, b in zip(res.mu_locked, res.mu_locked[1:]))
        assert all(b <= a for a, b in zip(res.mu_pessimistic, res.mu_pessimistic[1:]))

    def test_pessimistic_dominates(self):
        fams = restricted_list(AMP, 3)
        res = intersection_measure(fams, 500, q_max=20, seed=7)
        for lo, hi in zip(res.mu_locked, res.mu_pessimistic):
            assert hi >= lo

    def test_hypothesis_violation_on_fat_norm(self):
        fams = restricted_list(0.05, 2)  # raw amplitude: C3 norm ~ 12
        with pytest.raises(HypothesisViolation):
            intersection_measure(fams, 10, q_max=5, seed=8)

    def test_seed_determinism(self):
        fams = restricted_list(AMP, 3)
        a = intersection_measure(fams, 400, q_max=20, seed=9)
        b = intersection_measure(fams, 400, q_max=20, seed=9)
        assert a.mu_locked == b.mu_locked
        assert a.mu_pessimistic == b.mu_pessimistic
        c = intersection_measure(fams, 400, q_max=20, seed=10)
        assert a.mu_locked != c.mu_locked or a.mu_pessimistic != c.mu_pessimistic


class TestEtaCurve:
    def test_r_zero_is_zero(self):
        ec = eta_curve([0.0], 3, q_max=10, seed=11, mc_samples=200)
        assert ec.eta == (0.0,)

    def test_nondecreasing_after_cleanup(self):
        ec = eta_curve([0.02, 0.1, 0.3], 3, q_max=15, seed=12, mc_samples=400)
        assert all(b >= a for a, b in zip(ec.eta, ec.eta[1:]))

    def test_small_norm_small_eta(self):
        ec = eta_curve([0.01], 4, q_max=30, seed=13, mc_samples=400)
        assert ec.eta[0] < 0.1

    def test_sample_family_hits_requested_norm(self):
        for i, r in enumerate((0.05, 0.3, 0.8)):
            fam = sample_family(make_rng(14, i), r)
            assert norm_value(fam) == pytest.approx(r, rel=1e-6)

    def test_determinism(self):
        a = eta_curve([0.1], 3, q_max=10, seed=15, mc_samples=200)
        b = eta_curve([0.1], 3, q_max=10, seed=15, mc_samples=200)
        assert a.eta == b.eta and a.eta_raw == b.eta_raw


class TestRenormalizationCheck:
    def test_zero_fiber_first_family_wins(self):
        fams = restricted_list(0.0, 3)
        res = renormalization_check(fams, (0.2, 0.2 + 1 / 3), q_max=10, seed=16,
                                    eta_hat=0.05, mc_samples=200)
        assert res.n_found == 1
        assert res.ratio == 0.0

    def test_interval_away_from_common_window(self):
        fams = restricted_list(AMP, 4)
        res = renormalization_check(fams, (0.2, 0.2 + 1 / 3), q_max=20, seed=17,
                                    eta_hat=0.05, mc_samples=300)
        assert res.n_found is not None
        assert res.ratio < 0.05

    def test_not_found_reports_best_ratio(self):
        fams = restricted_list(AMP, 2)
        res = renormalization_check(fams, (0.0, 0.01), q_max=5, seed=18,
                                    eta_hat=0.0, mc_samples=100)
        assert res.n_found is None
        assert res.ratio >= 0.0

    def test_halved_interval_still_beats_eta(self):
        fams = restricted_list(AMP, 4)
        res = renormalization_check(fams, (0.2, 0.2 + 1 / 6), q_max=20, seed=19,
                                    eta_hat=0.05, mc_samples=300)
        assert res.n_found is not None
        assert res.ratio < 0.05
