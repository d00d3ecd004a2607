import math

import numpy as np
import pytest

from circledyn import rotation
from circledyn.circle_map import StageStack, TPoly
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
from circledyn.skew import SkewMap, first_per_period

AMP = c3_scaled_amplitude(0.05)
XAMP = c3_scaled_amplitude(0.075)
# x-dependent fibers: harmonics (jx, jy) = (0, 1) and (1, 1), so the
# restricted families over circles of one period differ
XDEP_SKEW = SkewMap(2, ((0, 1, TPoly((0.0,)), TPoly((XAMP,))),
                        (1, 1, TPoly((0.0,)), TPoly((XAMP,)))), label="xdep")
NESTED_MAPS = {"arnold": arnold_skew(2, AMP), "xdep": XDEP_SKEW}
# at 300 samples and q_max 20, under the first-order lock margin alone
# (TestNestedIntersection), seed 4 leaves both locked and unresolved samples
# to families 2-4 of either map; seed 2 leaves none to families 3-4
NESTED_SEEDS = (4, 2)
NESTED_SAMPLES, NESTED_QMAX = 300, 20


def restricted_list(amp, n_max):
    return first_per_period(arnold_skew(2, amp), n_max)


class TwoBlocks:
    """A serial map_fn that asks for two worker blocks."""

    workers = 2

    def __call__(self, fn, items):
        return list(map(fn, items))


@pytest.fixture(scope="module")
def flat_reference():
    """Per (map, seed): the families, the shared samples, and each family's
    locked and unresolved indicators and orbit iterates from classifying
    every sample with the retiring sweep that intersection_measure uses."""
    cache = {}

    def get(name, seed):
        if (name, seed) not in cache:
            fams = first_per_period(NESTED_MAPS[name], 4)
            ts = make_rng(seed).random(NESTED_SAMPLES)
            inds = []
            for fam in fams:
                res = rotation.classify_batch(fam, ts, q_max=NESTED_QMAX, retire=True)
                cls = [r.classification for r in res]
                inds.append((np.array([c == rotation.LOCKED for c in cls]),
                             np.array([c == rotation.UNRESOLVED for c in cls]),
                             np.array([r.n_iter for r in res])))
            cache[name, seed] = fams, ts, inds
        return cache[name, seed]

    return get


def flat_accumulation(inds):
    """The intersection over every family's full classification: mu_locked,
    mu_pessimistic, and the pessimistic mask before each family."""
    locked_all = np.ones(inds[0][0].size, dtype=bool)
    pess_all = locked_all.copy()
    mu_locked, mu_pess, before = [], [], []
    for locked, unresolved, _ in inds:
        before.append(pess_all.copy())
        locked_all &= locked
        pess_all &= locked | unresolved
        mu_locked.append(float(np.mean(locked_all)))
        mu_pess.append(float(np.mean(pess_all)))
    return tuple(mu_locked), tuple(mu_pess), before


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
        # at fiber C3 0.3 the locking windows hold a sample at seed 9 and
        # none at seed 10
        fams = restricted_list(c3_scaled_amplitude(0.3), 3)
        a = intersection_measure(fams, 400, q_max=20, seed=9)
        b = intersection_measure(fams, 400, q_max=20, seed=9)
        assert a.mu_locked == b.mu_locked
        assert a.mu_pessimistic == b.mu_pessimistic
        c = intersection_measure(fams, 400, q_max=20, seed=10)
        assert a.mu_locked != c.mu_locked or a.mu_pessimistic != c.mu_pessimistic


class TestNestedIntersection:
    @pytest.fixture(autouse=True)
    def first_order_margin(self, monkeypatch):
        """Lock checks on the first-order margin alone, as when B2 overflows.
        With the second-order margin these maps leave no sample unresolved
        (none of 3,000 per family even at fiber C3 0.2), and the nesting
        must also be checked on unresolved survivors."""
        monkeypatch.setattr(StageStack, "iterate_d2_bound", lambda self, t, q: math.inf)

    @pytest.mark.parametrize("map_fn", [map, TwoBlocks()], ids=["map", "two-blocks"])
    @pytest.mark.parametrize("seed", NESTED_SEEDS)
    @pytest.mark.parametrize("name", sorted(NESTED_MAPS))
    def test_equals_flat_classification(self, name, seed, map_fn, flat_reference):
        fams, _, inds = flat_reference(name, seed)
        mu_locked, mu_pess, before = flat_accumulation(inds)
        res = intersection_measure(fams, NESTED_SAMPLES, q_max=NESTED_QMAX, seed=seed,
                                   map_fn=map_fn)
        assert res.mu_locked == mu_locked
        assert res.mu_pessimistic == mu_pess
        assert res.classified == tuple(int(b.sum()) for b in before)
        assert res.iterates == tuple(int(n_iter[b].sum()) for (_, _, n_iter), b
                                     in zip(inds, before))

    def test_reference_reaches_every_case(self, flat_reference):
        # the oracle must see survivors that are locked, survivors that are
        # unresolved, and families left with no survivor
        for name in NESTED_MAPS:
            _, _, inds = flat_reference(name, 4)
            _, _, before = flat_accumulation(inds)
            for (locked, unresolved, _), b in zip(inds[1:], before[1:]):
                assert (b & locked).any() and (b & unresolved).any()
            _, _, before = flat_accumulation(flat_reference(name, 2)[2])
            assert not before[-1].any()

    @pytest.mark.parametrize("seed", NESTED_SEEDS)
    @pytest.mark.parametrize("name", sorted(NESTED_MAPS))
    def test_each_family_gets_only_the_survivors(self, name, seed, flat_reference,
                                                 monkeypatch):
        fams, ts, inds = flat_reference(name, seed)
        _, _, before = flat_accumulation(inds)
        calls = []
        real = rotation.classify_batch

        def spy(fam, values, **kw):
            calls.append((fam, np.array(values)))
            return real(fam, values, **kw)

        monkeypatch.setattr(rotation, "classify_batch", spy)
        res = intersection_measure(fams, NESTED_SAMPLES, q_max=NESTED_QMAX, seed=seed)
        expected = [(fam, ts[b]) for fam, b in zip(fams, before) if b.any()]
        assert len(calls) == len(expected)
        for (fam, got), (want_fam, want) in zip(calls, expected):
            assert fam is want_fam
            assert np.array_equal(got, want)
        for k, b in enumerate(before):
            if not b.any():
                assert res.mu_locked[k] == 0.0 and res.mu_pessimistic[k] == 0.0


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
