import functools
import math
import re

import numpy as np
import pytest

from circledyn import rotation, windows
from circledyn.circle_map import CircleFamily, TPoly
from circledyn.errors import CircledynError, DegenerateFamily, NoLockInBracket
from circledyn.gallery import arnold_family, rigid_family
from circledyn.rotation import LOCKED, NOT_LOCKED, UNRESOLVED, is_locked
from circledyn.windows import (
    enumerate_windows,
    locked_measure,
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
        fam = arnold_family(0.1)
        thetas = np.arange(2048) / 2048
        for q, p in [(1, 0), (2, 1), (3, 1)]:
            ts = np.sort(RNG.uniform(0, 1, 8))
            disps = [rotation._lift_q_displacement(fam, float(t), q, p, thetas) for t in ts]
            los = [float(np.min(d)) for d in disps]
            his = [float(np.max(d)) for d in disps]
            assert all(a < b for a, b in zip(los, los[1:]))
            assert all(a < b for a, b in zip(his, his[1:]))


def plain_edge_root(fam, p, q, edge, t_seed, radius0, tol, thetas, disp_at):
    """The edge solver as it was before the branch predictor and before
    the edges of a window shared their evaluations: geometric expansion,
    then bisection that evaluates B at every midpoint.  A generator, as
    ``windows._edge_root`` is, that asks for no prediction."""
    yield from ()

    def B(t):
        disp = rotation._lift_q_displacement(fam, t, q, p, thetas)
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
    """List that records the (p, q, t) of each full-grid B evaluation (a
    scalar t over the whole theta grid) once ``m`` has patched the
    displacement."""
    calls = []
    real = rotation._lift_q_displacement

    def counting(fam, t, q, p, thetas):
        if np.ndim(t) == 0 and np.size(thetas) == rotation.lock_grid_size(q):
            calls.append((p, q, float(t)))
        return real(fam, t, q, p, thetas)

    m.setattr(rotation, "_lift_q_displacement", counting)
    return calls


def edge_windows(monkeypatch, fam, q_max, tol, edge_root=None, predict=None):
    """Windows of every p/q with q <= q_max, and the (p, q, t) of the
    full-grid B evaluations they took."""
    with monkeypatch.context() as m:
        calls = count_grid_evals(m)
        if edge_root is not None:
            m.setattr(windows, "_edge_root", edge_root)
        if predict is not None:
            m.setattr(windows, "_predict_roots", predict)
        out = [window_for_rational(fam, p, q, tol)
               for p, q in windows.lift_rationals(q_max, fam.winding)]
    return out, calls


def as_bits(ws):
    return [(w.p, w.q, w.t_lo, w.t_hi, w.width, w.bracket_radius) for w in ws]


EDGE_FAMILIES = {
    "arnold": (arnold_family(0.1), 8),
    "two-harmonic-phased": (CircleFamily(1, TPoly((0.0,)), (
        (1, TPoly((0.03,)), TPoly((0.1,))), (2, TPoly((0.02,)), TPoly((-0.01,))))), 6),
    "winding-2-t-dependent": (CircleFamily(2, TPoly((0.01, 0.02)), (
        (1, TPoly((0.0, 0.02)), TPoly((0.05, 0.01))),)), 4),
    "rigid": (rigid_family(), 5),
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
        new, new_calls = edge_windows(monkeypatch, fam, q_max, tol)
        old, old_calls = edge_windows(monkeypatch, fam, q_max, tol, edge_root=plain_edge_root)
        assert as_bits(new) == as_bits(old)
        if name == "uncertified":
            # the same t are evaluated, each once per window: plain bisection
            # evaluates seed +- r in both edges, at least
            shared = len(old_calls) - len(set(old_calls))
            assert shared >= 2 * len(new)
            assert set(new_calls) == set(old_calls)
            assert len(new_calls) == len(old_calls) - shared
        if name == "rigid":
            assert all(w.width == 0.0 for w in new)

    @pytest.mark.parametrize("name", sorted(EDGE_FAMILIES))
    def test_no_full_grid_t_evaluated_twice(self, monkeypatch, name):
        fam, q_max = EDGE_FAMILIES[name]
        _, calls = edge_windows(monkeypatch, fam, q_max, 1e-9)
        assert len(calls) == len(set(calls))

    @pytest.mark.parametrize("wrong", ["nan", "lower-end", "upper-end"])
    def test_wrong_prediction_costs_only_evaluations(self, monkeypatch, wrong):
        def predict(fam, requests, tol):
            return [({"nan": math.nan, "lower-end": u, "upper-end": v}[wrong], None)
                    for p, q, edge, thetas, u, v in requests]

        fam = arnold_family(0.1)
        good, good_calls = edge_windows(monkeypatch, fam, 5, 1e-8)
        bad, bad_calls = edge_windows(monkeypatch, fam, 5, 1e-8, predict=predict)
        old, _ = edge_windows(monkeypatch, fam, 5, 1e-8, edge_root=plain_edge_root)
        assert as_bits(bad) == as_bits(good) == as_bits(old)
        assert len(bad_calls) >= len(good_calls)

    def test_evaluation_budget(self, monkeypatch):
        calls = count_grid_evals(monkeypatch)
        ws = enumerate_windows(arnold_family(0.1), 8, tol=1e-7)
        per_edge = len(calls) / (2 * len(ws))
        assert per_edge <= 6.0, f"{per_edge:.2f} full-grid evaluations per edge"


@pytest.fixture(scope="module")
def two_worker_pool():
    from circledyn.cli import _Pool

    with _Pool(2) as pool:
        yield pool


class TestLockstep:
    """``enumerate_windows`` solves the windows of a chunk together: their
    edge predictions run in lockstep, and a cell end is evaluated on the
    whole grid only for a sign that a few branches cannot settle."""

    @pytest.mark.parametrize("name", sorted(EDGE_FAMILIES))
    def test_equals_per_pair_solver_and_plain_bisection(self, monkeypatch, name,
                                                        two_worker_pool):
        fam, q_max = EDGE_FAMILIES[name]
        per_pair, _ = edge_windows(monkeypatch, fam, q_max, 1e-9)
        plain, _ = edge_windows(monkeypatch, fam, q_max, 1e-9, edge_root=plain_edge_root)
        serial = enumerate_windows(fam, q_max, tol=1e-9)
        pooled = enumerate_windows(fam, q_max, tol=1e-9, map_fn=two_worker_pool)
        assert as_bits(serial) == as_bits(pooled) == as_bits(per_pair) == as_bits(plain)

    def test_lockstep_batches_equal_one_batch(self, monkeypatch):
        fam, q_max = EDGE_FAMILIES["winding-2-t-dependent"]
        whole = enumerate_windows(fam, q_max, tol=1e-9)
        monkeypatch.setattr(windows, "LOCKSTEP_POINTS", 3 * rotation.lock_grid_size(q_max))
        assert as_bits(enumerate_windows(fam, q_max, tol=1e-9)) == as_bits(whole)

    def test_predictor_kernel_calls_do_not_grow_with_windows(self, monkeypatch):
        kernel, rounds = [], []
        real_kernel, real_predict = windows._branch_disp, windows._predict_roots

        def counting_kernel(*args):
            kernel.append(args[0])
            return real_kernel(*args)

        def counting_predict(fam, requests, tol):
            rounds.append(len(requests))
            return real_predict(fam, requests, tol)

        monkeypatch.setattr(windows, "_branch_disp", counting_kernel)
        monkeypatch.setattr(windows, "_predict_roots", counting_predict)
        ws = enumerate_windows(arnold_family(0.1), 8)
        # every edge of the 22 windows in one lockstep round: two Illinois
        # passes of at most PREDICT_STEPS steps, and the calls that start them
        assert rounds == [2 * len(ws)]
        assert len(kernel) <= 2 * windows.PREDICT_STEPS + 2

    def test_at_most_four_full_grid_evaluations_per_window(self, monkeypatch):
        calls = count_grid_evals(monkeypatch)
        ws = enumerate_windows(arnold_family(0.1), 8)
        per_window = {(w.p, w.q): 0 for w in ws}
        for p, q, _ in calls:
            per_window[(p, q)] += 1
        assert max(per_window.values()) <= 4, per_window

    @pytest.mark.parametrize("name", sorted(EDGE_FAMILIES))
    def test_branch_values_equal_the_full_grid(self, monkeypatch, name):
        fam, q_max = EDGE_FAMILIES[name]
        subsets = []
        real = rotation._lift_q_displacement

        def recording(f, t, q, p, thetas):
            if np.ndim(t) == 0 and np.size(thetas) < rotation.lock_grid_size(q):
                subsets.append((t, q, p, np.array(thetas)))
            return real(f, t, q, p, thetas)

        monkeypatch.setattr(rotation, "_lift_q_displacement", recording)
        enumerate_windows(fam, q_max, tol=1e-9)
        monkeypatch.undo()
        if name != "uncertified":  # no prediction without monotonicity
            assert subsets
        for t, q, p, thetas in subsets:
            n = rotation.lock_grid_size(q)
            idx = np.rint(thetas * n).astype(int)
            assert np.array_equal(idx / n, thetas)
            full = rotation._lift_q_displacement(fam, t, q, p, np.arange(n) / n)
            part = rotation._lift_q_displacement(fam, t, q, p, thetas)
            assert full[idx].tobytes() == part.tobytes()

    @pytest.mark.parametrize("wrong", ["none", "one-far-branch", "every-branch"])
    def test_wrong_branches_cost_only_evaluations(self, monkeypatch, wrong):
        real = windows._predict_roots

        def predict(fam, requests, tol):
            out = []
            for (est, _), (p, q, edge, thetas, *_) in zip(real(fam, requests, tol), requests):
                far = np.array([0 if edge == "hi" else thetas.size // 2])
                out.append((est, {"none": np.array([], dtype=int), "one-far-branch": far,
                                  "every-branch": np.arange(thetas.size)}[wrong]))
            return out

        fam = arnold_family(0.1)
        good, good_calls = edge_windows(monkeypatch, fam, 5, 1e-8)
        bad, bad_calls = edge_windows(monkeypatch, fam, 5, 1e-8, predict=predict)
        old, _ = edge_windows(monkeypatch, fam, 5, 1e-8, edge_root=plain_edge_root)
        assert as_bits(bad) == as_bits(good) == as_bits(old)
        assert len(bad_calls) >= len(good_calls)

    @pytest.mark.parametrize("const, radius", [(1e12, 6e-5), (1e300, 1e283)])
    def test_edge_that_cannot_reach_tol_raises(self, const, radius):
        fam = CircleFamily(1, TPoly((const,)), ((1, TPoly((0.0,)), TPoly((0.1,))),))
        with pytest.raises(CircledynError, match="0/1 window") as exc:
            window_for_rational(fam, 0, 1, tol=1e-6)
        found = re.search(r"radius of (\S+) after .* above tol 1e-06$", str(exc.value))
        assert found and float(found.group(1)) > radius


class TestPredictorCover:
    """On near-rigid families the coarse survivors' neighbourhoods span most
    of the grid, and the fine pass runs on the survivors alone."""

    def test_near_rigid_branch_budget(self, monkeypatch):
        fam = arnold_family(1.0).scaled(0.005)
        real = windows._branch_disp

        def branches_and_windows(cover):
            count = []

            def counting(f, t, q, p, theta):
                count.append(theta.size)
                return real(f, t, q, p, theta)

            with monkeypatch.context() as m:
                m.setattr(windows, "_branch_disp", counting)
                m.setattr(windows, "PREDICT_COVER", cover)
                ws = enumerate_windows(fam, 12)
            return sum(count), ws

        capped, ws = branches_and_windows(windows.PREDICT_COVER)
        uncapped, old = branches_and_windows(1.0)
        points = sum(rotation.lock_grid_size(w.q) for w in ws)
        # 0.5 and 5.4 grids' worth of branches per window
        assert capped <= 2 * points < uncapped
        assert as_bits(ws) == as_bits(old)


def mc_ts(seed, samples):
    """The t samples of ``locked_measure(..., seed=seed)``."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return rng.random(samples)


def check_window_decisions(fam, q_max, samples, seed, tol=1e-7):
    """Every sample that the windows decide locks in a full retiring sweep,
    and ``locked_measure`` counts the full sweep's classes.  Returns the
    number decided."""
    ws = enumerate_windows(fam, q_max, tol=tol)
    ts = mc_ts(seed, samples)
    decided = windows._window_locked(fam, ts, ws, q_max, rotation.CLASSIFY_N_ITER)
    full = [r.classification for r in
            rotation.classify_batch(fam, ts, q_max=q_max, retire=True)]
    assert all(full[i] == LOCKED for i in np.flatnonzero(decided))
    lm = locked_measure(fam, q_max, samples, seed=seed, windows=ws)
    assert lm.decided == np.count_nonzero(decided)
    assert (lm.mc, lm.unresolved_frac) == (full.count(LOCKED) / samples,
                                           full.count(UNRESOLVED) / samples)
    return lm.decided


class TestWindowDecisions:
    """``locked_measure`` locks the samples inside certified inner windows
    without their orbits; every such sample is one the sweep would lock."""

    @pytest.mark.parametrize("name", sorted(EDGE_FAMILIES))
    def test_counts_equal_the_full_sweep(self, name):
        fam, q_max = EDGE_FAMILIES[name]
        decided = check_window_decisions(fam, q_max, 2000, seed=5)
        # no positive width (rigid), or no certified monotonicity
        assert (decided == 0) == (name in ("rigid", "uncertified"))

    @pytest.mark.slow
    @pytest.mark.parametrize("amp", [0.02, 0.05, 0.1, 0.15])
    def test_counts_equal_the_full_sweep_at_criterion_3(self, amp):
        assert check_window_decisions(arnold_family(amp), 30, 2000, seed=7, tol=1e-6) > 0

    def test_only_the_certified_inner_window_decides(self):
        fam = arnold_family(0.1)
        ws = [w for w in enumerate_windows(fam, 5, tol=1e-6) if w.width > 0.0]
        inside, edges = [], []
        for w in ws:
            r = w.bracket_radius
            lo, hi = w.t_lo + r, w.t_hi - r
            for k in (-1, 0, 1):  # arnold_family is free of t
                inside.append(0.5 * (lo + hi) + k)
                edges += [w.t_lo + r / 2 + k, w.t_hi - r / 2 + k,
                          np.nextafter(lo, math.inf) + k, np.nextafter(hi, -math.inf) + k]
        decide = functools.partial(windows._window_locked, fam, windows=ws, q_max=5,
                                   n_iter=rotation.CLASSIFY_N_ITER)
        assert decide(np.array(inside)).all()
        assert not decide(np.array(edges)).any()

    def test_t_dependent_family_is_not_wrapped(self):
        fam, q_max = EDGE_FAMILIES["winding-2-t-dependent"]
        ws = [w for w in enumerate_windows(fam, q_max, tol=1e-7) if w.width > 0.0]
        mids = np.array([w.midpoint for w in ws])
        shifted = np.concatenate([mids - 1.0, mids + 1.0])
        shifted = shifted[(shifted >= 0.0) & (shifted < 1.0)]
        assert shifted.size
        decide = functools.partial(windows._window_locked, fam, windows=ws, q_max=q_max,
                                   n_iter=rotation.CLASSIFY_N_ITER)
        assert decide(mids).all()
        assert not decide(shifted).any()

    def test_rounding_and_drift_guards(self):
        # the 0/1 window near t = -1e6 keeps too few bits for LOCK_TOL; that
        # of 400000/1 passes it, but 10^5 iterates there fail _decide's guard
        far = CircleFamily(1, TPoly((1e6,)), ((1, TPoly((0.0,)), TPoly((0.01,))),))
        w = window_for_rational(far, 0, 1, tol=1e-6)
        assert not windows._window_locked(far, [w.midpoint], [w], 1, 4096).any()
        fam = arnold_family(0.01)
        w = window_for_rational(fam, 400_000, 1, tol=1e-6)
        assert windows._window_locked(fam, [w.midpoint], [w], 1, 4096).all()
        assert not windows._window_locked(fam, [w.midpoint], [w], 1, 100_000).any()


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

    def test_t_dependent_lower_is_clipped_to_the_unit_interval(self):
        # theta + t + 0.15 (1 - t) sin 2 pi theta: the 0/1 window reaches
        # below t = 0, where no sample is drawn, and the 8/8 window near
        # t = 1 is never enumerated
        fam = CircleFamily(1, TPoly((0.0,)), ((1, TPoly((0.0,)), TPoly((0.15, -0.15))),))
        ws = enumerate_windows(fam, 8, tol=1e-7)
        assert ws[0].t_lo < 0.0
        lm = locked_measure(fam, 8, 20_000, tol=1e-7, seed=3, windows=ws)
        se = math.sqrt(lm.mc * (1 - lm.mc) / 20_000)
        assert lm.lower <= lm.mc + lm.unresolved_frac + 3 * se

    def test_t_free_lower_is_the_width_sum(self):
        fam = arnold_family(0.1)
        ws = enumerate_windows(fam, 6, tol=1e-7)
        assert ws[0].t_lo < 0.0  # the 0/1 window straddles t = 0
        lm = locked_measure(fam, 6, 10, tol=1e-7, windows=ws)
        assert lm.lower == sum(w.width for w in ws)


class TestTongueDiagram:
    """The tongues subcommand's rows: the windows of a unit profile scaled by
    each amplitude."""

    def test_zero_amplitude_row_is_points(self):
        profile = arnold_family(1.0)  # unit sine profile
        ws = enumerate_windows(profile.scaled(0.0), 3, tol=1e-8)
        assert all(w.width == 0.0 for w in ws)

    def test_tongues_widen_with_amplitude(self):
        profile = arnold_family(1.0)
        rows = [enumerate_windows(profile.scaled(d), 3, tol=1e-7) for d in (0.02, 0.06, 0.1)]
        for column in zip(*rows):
            widths = [w.width for w in column]
            assert all(b >= a - 2e-7 for a, b in zip(widths, widths[1:]))

    def test_degenerate_amplitude_propagates(self):
        with pytest.raises(DegenerateFamily):
            enumerate_windows(arnold_family(1.0).scaled(0.2), 2)
