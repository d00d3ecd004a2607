
import numpy as np
import pytest

from circledyn import experiments, rotation
from circledyn.circle_map import StageStack, TPoly, family_norm
from circledyn.errors import HypothesisViolation
from circledyn.experiments import (
    eta_curve,
    intersection_measure,
    make_rng,
    norm_value,
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
# at 300 samples and q_max 20, under a lock margin 1e5 times the real one
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
    def loose_margin(self, monkeypatch):
        """Lock checks on a margin 1e5 times looser than the real one.  With
        the real margin these maps leave no sample unresolved (none of
        3,000 per family even at fiber C3 0.2), and the nesting must also
        be checked on unresolved survivors."""
        real = StageStack.iterate_d2_bound
        monkeypatch.setattr(StageStack, "iterate_d2_bound",
                            lambda self, t, q: 1e5 * real(self, t, q))

    @pytest.mark.parametrize("map_fn", [map, TwoBlocks()], ids=["map", "two-blocks"])
    @pytest.mark.parametrize("seed", NESTED_SEEDS)
    @pytest.mark.usefixtures("small_blocks")
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
        rs = (0.0, 0.05, 0.3, 0.8)
        for i in range(3):
            fams = sample_family(make_rng(14, i), rs)
            assert len(fams) == len(rs)
            for fam, r in zip(fams, rs):
                assert norm_value(fam) == pytest.approx(r, rel=1e-6, abs=1e-15)

    def test_slot_families_are_one_profile_scaled(self):
        # one draw per slot: the levels share the harmonic indices, and the
        # coefficients of levels i and j are in the ratio r_i / r_j
        rs = (0.05, 0.3, 0.8)
        for i in range(5):
            fams = sample_family(make_rng(16, i), rs)
            base = [(j, a.coeffs, b.coeffs) for j, a, b in fams[0].harmonics]
            for fam, r in zip(fams[1:], rs[1:]):
                assert [j for j, _, _ in fam.harmonics] == [j for j, _, _ in base]
                assert fam.const.coeffs == (0.0,) and fam.winding == 1
                for (_, a, b), (_, a0, b0) in zip(fam.harmonics, base):
                    assert a.coeffs == pytest.approx([c * r / rs[0] for c in a0], rel=1e-12)
                    assert b.coeffs == pytest.approx([c * r / rs[0] for c in b0], rel=1e-12)

    def test_one_norm_per_slot(self, monkeypatch):
        calls = []

        def counted(fam, check=True):
            calls.append(fam)
            return family_norm(fam, check)

        monkeypatch.setattr(experiments, "family_norm", counted)
        ec = eta_curve([0.05, 0.1, 0.2, 0.4], 3, q_max=10, seed=18, mc_samples=20)
        assert len(calls) == 3
        assert len(ec.eta) == 4 and all(len(level) == 3 for level in ec.iterates)

    def test_no_level_or_slot_is_an_error(self):
        with pytest.raises(ValueError, match="r_grid"):
            eta_curve([], 3, q_max=10, seed=18, mc_samples=20)
        with pytest.raises(ValueError, match="sample_families_per_r"):
            eta_curve([0.1], 0, q_max=10, seed=18, mc_samples=20)

    @pytest.mark.parametrize("map_fn", [map, TwoBlocks()], ids=["serial", "two-blocks"])
    @pytest.mark.usefixtures("small_blocks")
    def test_merged_sweep_equals_per_family_sweeps(self, map_fn):
        # each sampled family classified on its own, as eta_curve did before
        # it merged them; two blocks cut the 9 x 150 values in two.  At norm
        # 0.9 and seed 16, a family of the top level locks 3 of the samples
        rs, per_r, seed = [0.0, 0.05, 0.9], 3, 16
        ts = make_rng(seed, 0).random(150)
        slots = [sample_family(make_rng(seed, 1, 0, fi), rs) for fi in range(per_r)]
        raw, iterates = [], []
        for ri in range(len(rs)):
            fracs = []
            for slot in slots:
                res = rotation.classify_batch(slot[ri], ts, q_max=10, retire=True)
                fracs.append(float(np.mean([x.classification == rotation.LOCKED for x in res])))
                iterates.append(sum(x.n_iter for x in res))
            raw.append(max(fracs))
        ec = eta_curve(rs, per_r, q_max=10, seed=seed, mc_samples=150, map_fn=map_fn)
        assert ec.eta_raw == tuple(raw) and ec.eta_raw[-1] > 0.0
        assert [n for level in ec.iterates for n in level] == iterates

    def test_determinism(self):
        a = eta_curve([0.1], 3, q_max=10, seed=15, mc_samples=200)
        b = eta_curve([0.1], 3, q_max=10, seed=15, mc_samples=200)
        assert a.eta == b.eta and a.eta_raw == b.eta_raw
