"""Mode-locking windows, their certified boundaries, and measure estimates.

For a reduced p/q the displacement extrema

    B_minus(t) = min_theta lift_t^q(theta) - theta - p
    B_plus(t)  = max_theta lift_t^q(theta) - theta - p

are strictly increasing in t (t-regularity), and the locking window is
exactly { t : B_minus(t) <= 0 <= B_plus(t) }.  Bisecting B_plus = 0 and
B_minus = 0 therefore brackets both edges with certified radii, which a
plateau scan of rho(t) cannot do.

The bisection is still what brackets each edge, with the same radii.  A
branch predictor only decides which of its midpoints need evaluating:
each grid point's displacement D(theta_i, t) is a smooth increasing
branch, so the root of B_plus is the least branch root and that of
B_minus the greatest.  Illinois regula falsi on a few hundred branches
at once locates it; the two ends of the final bisection cell holding it
are evaluated first, and where monotonicity is certified every other
midpoint takes its sign from the tightest evaluated bracket.  One grid
point settles B_plus(t) > 0 or B_minus(t) <= 0, so the cell end that
should have that sign is evaluated on the predicted branches alone, and
on the whole grid only when they do not settle it.  The first bracket
ends, seed -+ r, take their signs from one step's bound, as r is chosen to
allow.  A window then costs about two full-grid evaluations of B, where
plain bisection takes about twenty per edge, and the windows are
bit-identical to plain bisection's.

The windows of a batch are solved together: every edge's solver runs up
to its prediction, and the predictions of all of them run in lockstep,
one kernel call per Illinois step for every live branch of every edge
(entries sorted by q, each read at its own q in one pass of max-q
steps).  Bracket expansion, cell ends and the final bisection stay per
edge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import farey, rotation
from .circle_map import EPS, phase_step, take_phases
from .errors import CircledynError, NoLockInBracket

MAX_BISECT = 64
# edge predictor: rounds per edge, branch stride of its first pass,
# Illinois step cap per pass, and its stopping bracket as a fraction of tol
PREDICT_ROUNDS = 3
PREDICT_STRIDE = 32
PREDICT_STEPS = 40
PREDICT_TOL = 1.0 / 64.0
# largest share of a grid that the fine pass takes around the coarse
# survivors; beyond it, as on near-rigid families, whose branches hold their
# roots close together, it runs on the survivors alone
PREDICT_COVER = 0.25
# most theta-grid points of the windows solved in one lockstep batch: the
# predictor's live arrays grow with them, to a peak of 3.5 MB for 46
# windows of 4096 points
LOCKSTEP_POINTS = 2 ** 18


@dataclass(frozen=True)
class Window:
    """Mode-locked parameter interval for lift displacement p over period q.

    ``p`` is the integer lift numerator: for winding-N families it ranges
    over [0, q*N) and the rotation number mod 1 is (p mod q)/q.  A width of
    0.0 flags a window narrower than the requested tolerance (kept so the
    Farey enumeration stays gap-free).
    """

    p: int
    q: int
    t_lo: float
    t_hi: float
    width: float
    bracket_radius: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.t_lo + self.t_hi)


@dataclass(frozen=True)
class LockedMeasure:
    """Measure data for the locked parameter set at a given search depth:
    ``lower``, the window widths t_hi - t_lo summed (each clipped to [0, 1]
    unless the family is 1-periodic in t), a Monte Carlo locked fraction,
    and the separately tracked unresolved fraction.  ``lower`` exceeds the
    certified inner measure, the widths of [t_lo + r, t_hi - r], by the sum
    of 2r over the positive-width windows (r the bracket radius): 7.0e-5 on
    ``arnold_family(0.1)`` at q <= 12.  ``iterates`` counts the orbit
    iterates of the Monte Carlo sweep, and ``decided`` the samples that the
    windows locked without one."""

    lower: float
    mc: float
    unresolved_frac: float
    iterates: int
    decided: int


def _bisect(u, v, tol, positive):
    """The edge bisection: halve [u, v] by ``positive(mid)`` (B(mid) > 0)
    until its half-width is <= tol."""
    for _ in range(MAX_BISECT):
        if (v - u) / 2.0 <= tol:
            break
        mid = 0.5 * (u + v)
        if positive(mid):
            v = mid
        else:
            u = mid
    return u, v


def _branch_disp(fam, t, q, p, theta):
    """D(theta, t) = lift_t^q(theta) - theta - p for arrays of entries, each
    with its own t, q, p and theta, given in ascending q: one pass of max-q
    steps of the array kernel, in which each entry is read at its own q and
    then leaves the later steps."""
    out = np.empty(theta.size)
    data, y, done = fam.phase_data(t), theta, 0
    step = phase_step(data)
    for end in np.searchsorted(q, np.arange(1, q[-1] + 1), side="right").tolist():
        y = step(y)
        if end > done:
            k = end - done
            out[done:end] = y[:k] - theta[done:end] - p[done:end]
            y, data, done = y[k:], take_phases(data, slice(k, None)), end
            step = phase_step(data)
    return out


def _starts(g):
    """Where each edge's run of entries starts in the grouped ``g``."""
    return np.flatnonzero(np.diff(g, prepend=-1))


def _illinois(fam, edges, g, idx, a, b, fa, fb, width):
    """Illinois regula falsi on the branches D(theta, t) of several edges at
    once.  Entry i is branch ``idx[i]`` of edge ``g[i]``, bracketed by
    [a, b] with values ``fa`` <= 0 < ``fb``; ``edges`` holds the q, p, grid
    size and lo flag of each edge.  The entries are grouped by edge and the
    edges ordered by q, so each step evaluates every open bracket in one
    kernel call.

    A branch is dropped once its bracket cannot hold its edge's least root
    (lo edge) or greatest (hi edge).  Returns the surviving entries' g, idx,
    a and b.
    """
    q, p, n, lo = edges
    side = np.zeros(idx.size)  # +1 / -1: the last step moved b / a
    for _ in range(PREDICT_STEPS):
        starts = _starts(g)
        sizes = np.diff(starts, append=g.size)
        least_b = np.repeat(np.minimum.reduceat(b, starts), sizes)
        most_a = np.repeat(np.maximum.reduceat(a, starts), sizes)
        keep = ~np.where(lo[g], a > least_b, b < most_a)
        g, idx, a, b, fa, fb, side = (x[keep] for x in (g, idx, a, b, fa, fb, side))
        o = np.flatnonzero(b - a > width)
        if not o.size:
            break
        c = np.clip(b[o] - fb[o] * (b[o] - a[o]) / (fb[o] - fa[o]), a[o], b[o])
        go = g[o]
        fc = _branch_disp(fam, c, q[go], p[go], idx[o] / n[go])
        pos = fc > 0.0
        up, down = o[pos], o[~pos]
        # Illinois: halve the value at the end that stays put twice running
        fa[up[side[up] > 0.0]] *= 0.5
        fb[down[side[down] < 0.0]] *= 0.5
        b[up], fb[up], side[up] = c[pos], fc[pos], 1.0
        a[down], fa[down], side[down] = c[~pos], fc[~pos], -1.0
        b[o[fc == 0.0]] = c[fc == 0.0]  # an exact root closes its bracket
    return g, idx, a, b


def _predict_roots(fam, requests, tol):
    """Estimates of the B roots of several edges from their branches
    D(theta_i, t), found in lockstep.  ``requests`` are (p, q, edge, thetas,
    u, v) as :func:`_edge_root` yields them, [u, v] the edge's bracket.
    Returns per request the estimate and the indices of the branches that
    may hold the root.

    Every branch is increasing in t, so the root of B_plus (lo edge) is the
    least branch root and that of B_minus (hi edge) the greatest; the
    branches that can hold it are those with D(v) > 0 (lo edge) or
    D(u) <= 0 (hi edge).  Illinois regula falsi first runs on every
    PREDICT_STRIDE-th branch.  The fine neighbours of its survivors then
    start from brackets split at the survivors' best end, or the survivors
    alone where their neighbours span more than ``PREDICT_COVER`` of the
    grid; an edge with few such branches on the stride runs on all of them
    instead.  Each pass runs the branches of every edge in lockstep
    (:func:`_illinois`), and the branch values at u, v and the split are
    one kernel call each, so no grid array outlives its evaluation.
    """
    order = sorted(range(len(requests)), key=lambda k: requests[k][1])
    reqs = [requests[k] for k in order]
    q = np.array([r[1] for r in reqs])
    p = np.array([r[0] for r in reqs], dtype=float)
    n = np.array([r[3].size for r in reqs])
    lo = np.array([r[2] == "lo" for r in reqs])
    u = np.array([r[4] for r in reqs])
    v = np.array([r[5] for r in reqs])
    edges = (q, p, n, lo)
    width = tol * PREDICT_TOL

    def at(g, idx, ts):
        """D of the branches ``idx`` of the grouped edges ``g`` at each
        per-edge t of ``ts``, in one kernel call."""
        gg = np.tile(g, len(ts))
        o = np.argsort(gg, kind="stable")
        go = gg[o]
        out = np.empty(gg.size)
        out[o] = _branch_disp(fam, np.concatenate([t[g] for t in ts])[o], q[go], p[go],
                              np.tile(idx, len(ts))[o] / n[go])
        return np.split(out, len(ts))

    g = np.repeat(np.arange(len(reqs)), -(-n // PREDICT_STRIDE))
    idx = np.concatenate([np.arange(0, m, PREDICT_STRIDE) for m in n.tolist()])
    du, dv = at(g, idx, (u, v))
    coarse = np.where(lo[g], dv > 0.0, du <= 0.0)
    wide = np.bincount(g[coarse], minlength=len(reqs)) > 2
    coarse &= wide[g]
    best = np.full(len(reqs), math.nan)  # the split of each wide edge
    fine = [None if w else np.arange(m) for w, m in zip(wide.tolist(), n.tolist())]
    if coarse.any():
        g, idx, a, b = _illinois(fam, edges, g[coarse], idx[coarse], u[g[coarse]],
                                 v[g[coarse]], du[coarse], dv[coarse], width)
        starts = _starts(g)
        ks = g[starts]
        best[ks] = np.where(lo[ks], np.minimum.reduceat(b, starts), np.maximum.reduceat(a, starts))
        reach = np.arange(-PREDICT_STRIDE, PREDICT_STRIDE + 1)
        for k, survivors in zip(ks.tolist(), np.split(idx, starts[1:])):
            near = np.zeros(n[k], dtype=bool)
            near[(survivors[:, None] + reach) % n[k]] = True
            fine[k] = np.flatnonzero(near) if near.mean() <= PREDICT_COVER else survivors
    g = np.repeat(np.arange(len(reqs)), [i.size for i in fine])
    idx = np.concatenate(fine)
    du, dv, dt = at(g, idx, (u, v, best))
    keep = np.where(lo[g], dv > 0.0, du <= 0.0)
    g, idx, du, dv, dt = (x[keep] for x in (g, idx, du, dv, dt))
    t = best[g]
    below, above = wide[g] & ~(dt > 0.0), wide[g] & (dt > 0.0)
    g, idx, a, b = _illinois(fam, edges, g, idx, np.where(below, t, u[g]), np.where(above, t, v[g]),
                             np.where(below, dt, du), np.where(above, dt, dv), width)
    starts = _starts(g)
    ks = g[starts]
    est = np.where(lo[ks], np.minimum.reduceat(a, starts) + np.minimum.reduceat(b, starts),
                   np.maximum.reduceat(a, starts) + np.maximum.reduceat(b, starts)) * 0.5
    out = [(math.nan, None)] * len(requests)
    for k, e, survivors in zip(ks.tolist(), est.tolist(), np.split(idx, starts[1:])):
        out[order[k]] = (e, survivors)
    return out


def _step_sign(fam, t, q, p):
    """The sign of D(theta, t) = lift_t^q(theta) - theta - p on [0, 1) that
    one step's bound certifies, -1 or 1, else 0; the kernel's float D has
    it too.  On ``phase_data(t)``, the kernel's floats, D lies within q
    sum_i (drift_i +- sum_j R_ij) - p, and a sign must clear the rounding
    of D (``rotation._lock_rounding``) and the bound's own: each R within
    an ulp of its hypot, an ulp per summed term.  An inf or nan clears
    nothing."""
    data = fam.phase_data(t)
    drift = [d for d, _ in data]
    amp = [sum(r for _, _, r in phased) for _, phased in data]
    terms, moved = len(data) + sum(len(phased) for _, phased in data), sum(map(abs, drift))
    slack = ((terms + 4) * EPS * (q * (moved + sum(amp)) + abs(p))
             + rotation._lock_rounding(fam, q, p, fam.dtheta_lift_bound(t), moved))
    if q * sum(d + a for d, a in zip(drift, amp)) - p < -slack:
        return -1
    return 1 if q * sum(d - a for d, a in zip(drift, amp)) - p > slack else 0


def _edge_root(fam, p, q, edge, t_seed, radius0, tol, thetas, extremes):
    """Root of B_plus (edge='lo') or B_minus (edge='hi'), bracketed by
    geometric expansion around t_seed and then bisected to radius <= tol.
    ``extremes(t)`` is the max and the min of the displacement D(thetas,
    t), B_plus and B_minus, and ``extremes(t, idx)`` those of its values at
    the indices ``idx``, or of the whole grid where t was evaluated there.

    A generator: each round of prediction yields the request (p, q, edge,
    thetas, u, v) of :func:`_predict_roots` and is sent its answer, an
    estimate and the branches that may hold the root (or None).  Returns
    the root and its bracket radius; raises CircledynError when the radius
    cannot reach tol.

    A bracket end whose sign :func:`_step_sign` certifies, the sign its
    evaluation would give, is not evaluated.

    B is strictly increasing in t when the t-derivative bound is below the
    winding.  The bisection then evaluates B only at midpoints strictly
    inside the tightest evaluated bracket; any other midpoint's sign
    follows from monotonicity.  Evaluating first the two ends of the final
    cell that holds the predicted root usually leaves no midpoint to
    evaluate.  B_plus(t) > 0 and B_minus(t) <= 0 are settled by one grid
    point, so the cell end that should have that sign is first evaluated
    on the predicted branches alone, and on the whole grid only when they
    do not settle it.  The result equals plain bisection's bit for bit
    whatever the prediction, which only decides what is evaluated.
    """
    lo = edge == "lo"

    def B(t, idx=None):
        return extremes(t, idx)[0 if lo else 1]

    def end(t, sign):  # B at a bracket end, or the sign the step bound certifies
        return sign if _step_sign(fam, t, q, p) == sign else B(t)

    r = max(radius0, 4.0 * tol)
    u, v = t_seed - r, t_seed + r
    fu, fv = end(u, -1.0), end(v, 1.0)
    for _ in range(64):
        if fu < 0.0:
            break
        r *= 2.0
        u = t_seed - r
        fu = end(u, -1.0)
    for _ in range(64):
        if fv > 0.0:
            break
        r *= 2.0
        v = t_seed + r
        fv = end(v, 1.0)
    if fu >= 0.0 or fv <= 0.0:
        raise NoLockInBracket(
            f"could not bracket the {edge} edge of the {p}/{q} window near t={t_seed:g}"
        )

    monotone = fam.dt_sup_bound() < fam.winding
    ends = [u, v]  # tightest known bracket: B <= 0 at ends[0], B > 0 at ends[1]

    def positive(t, branches=None):
        if monotone and not ends[0] < t < ends[1]:
            return t >= ends[1]
        if branches is not None and branches.size:
            val = B(t, branches)
            if lo and val > 0.0:
                ends[1] = t
                return True
            if not lo and val <= 0.0:
                ends[0] = t
                return False
        val = B(t)
        ends[1 if val > 0.0 else 0] = t
        return val > 0.0

    for _ in range(PREDICT_ROUNDS if monotone else 0):
        est, branches = yield (p, q, edge, thetas, *ends)
        cell = _bisect(u, v, tol, lambda mid: mid > est)
        positive(cell[0], None if lo else branches)
        positive(cell[1], branches if lo else None)
        if tuple(ends) == cell:
            break
    u, v = _bisect(u, v, tol, positive)
    if (v - u) / 2.0 > tol:
        raise CircledynError(
            f"the {edge} edge of the {p}/{q} window near t={0.5 * (u + v):.6g} keeps a bracket "
            f"radius of {(v - u) / 2.0:.3g} after {MAX_BISECT} bisections, above tol {tol:g}"
        )
    return 0.5 * (u + v), 0.5 * (v - u)


def _edge_solvers(fam, p, q, tol, thetas):
    """The lo and hi edge solvers of the p/q window.  Both edges start from
    t = s +- r, s = p / (q N) the rigid rotation's, and expand along s +- r
    2^k, and B_plus and B_minus are the max and the min of one displacement
    array D(theta_i, t).  So the edges share their evaluations: each t is
    evaluated on the whole grid once per window, and only its extremes are
    kept.  With r >= sup |lift - theta - N t| / N + 4 tol, one step's bound
    usually certifies seed -+ r, a margin of about 4 q N tol."""
    radius0 = fam.g_sup_bound() / fam.winding + 4.0 * tol
    evals = {}

    def extremes(t, idx=None):
        if t in evals:
            return evals[t]
        whole = idx is None or idx.size == thetas.size
        disp = rotation._lift_q_displacement(fam, t, q, p, thetas if whole else thetas[idx])
        out = float(np.max(disp)), float(np.min(disp))
        if whole:
            evals[t] = out
        return out

    return [_edge_root(fam, p, q, edge, p / (q * fam.winding), radius0, tol, thetas, extremes)
            for edge in ("lo", "hi")]


def _solve(solvers, fam, tol):
    """Run edge solvers (generators of :func:`_edge_root`) to their results,
    answering each round of their requests with one lockstep call of
    :func:`_predict_roots`."""
    results, requests = [None] * len(solvers), {}

    def advance(k, answer):
        try:
            requests[k] = solvers[k].send(answer)
        except StopIteration as stop:
            results[k] = stop.value

    for k in range(len(solvers)):
        advance(k, None)
    while requests:
        keys = list(requests)
        answers = _predict_roots(fam, [requests.pop(k) for k in keys], tol)
        for k, answer in zip(keys, answers):
            advance(k, answer)
    return results


@rotation._quiet
def _solve_windows(fam, tol, grid, pairs) -> list:
    """The windows of ``pairs``, reduced (p, q), in order, solved together:
    their edge predictions run in lockstep (:func:`_solve`).  Each window's
    grid is ``grid`` or ``rotation.lock_grid_size(q)``.  Windows narrower
    than tol collapse to width-0 markers.  An orbit that overflows ends in
    inf or nan quietly, and its edge in an error.  Module level, so that a
    process pool can pickle it with its arguments."""
    sizes = [grid or rotation.lock_grid_size(q) for _, q in pairs]
    grids = {n: np.arange(n) / n for n in set(sizes)}
    edges = _solve([solver for (p, q), n in zip(pairs, sizes)
                    for solver in _edge_solvers(fam, p, q, tol, grids[n])], fam, tol)
    out = []
    for (p, q), (t_lo, r_lo), (t_hi, r_hi) in zip(pairs, edges[::2], edges[1::2]):
        radius = max(r_lo, r_hi)
        width = t_hi - t_lo
        # each edge is known to +-tol, so width <= 2 tol is
        # indistinguishable from a point (small factor absorbs
        # bisection rounding)
        if width <= 2.0 * tol * (1.0 + 1e-6):
            mid = 0.5 * (t_lo + t_hi)
            out.append(Window(p, q, mid, mid, 0.0, radius))
        else:
            out.append(Window(p, q, t_lo, t_hi, width, radius))
    return out


def window_for_rational(fam, p: int, q: int, tol: float = 1e-6) -> Window:
    """Locate the locking window for lift displacement p over period q.
    This is :func:`enumerate_windows`'s batch solver on one pair, so the
    window equals its p/q window there bit for bit."""
    return _solve_windows(fam, tol, None, [(p, q)])[0]


def lift_rationals(q_max: int, winding: int) -> list:
    """Reduced (p, q) lift pairs whose windows live in t in [0, 1):
    p/q sweeps [0, winding), ordered by rotation value (Farey order)."""
    out = []
    for p0, q in farey.farey_sequence(q_max):
        for k in range(winding):
            out.append((p0 + k * q, q))
    out.sort(key=lambda f: f[0] / f[1])
    return out


def enumerate_windows(fam, q_max: int, tol: float = 1e-6,
                      grid: int | None = None, map_fn=map) -> list:
    """One window per reduced rational with q <= q_max, in Farey order.

    The Farey-ordered rationals are cut once into contiguous batches, and
    ``map_fn`` maps the batch solver over them.  There is one run of
    batches per worker of ``map_fn``, its ``workers`` attribute (one for a
    ``map_fn`` without it, such as the plain ``map``), each run holding an
    equal share of the rationals; a run is cut further wherever a batch
    would pass ``LOCKSTEP_POINTS`` grid points.  A batch's windows are
    solved with their edge predictions in lockstep.  Every window equals
    :func:`window_for_rational`'s, so the results do not depend on the cut.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    fam.check_diffeo()
    pairs = lift_rationals(q_max, fam.winding)
    runs = max(1, min(getattr(map_fn, "workers", 1), len(pairs)))
    batches = []
    for k in range(runs):
        points = LOCKSTEP_POINTS  # a run starts a new batch
        for p, q in pairs[k * len(pairs) // runs:(k + 1) * len(pairs) // runs]:
            size = grid or rotation.lock_grid_size(q)
            if points + size > LOCKSTEP_POINTS:
                batches.append([])
                points = 0
            batches[-1].append((p, q))
            points += size
    return [w for ws in map_fn(functools.partial(_solve_windows, fam, tol, grid), batches)
            for w in ws]


def _t_free(fam) -> bool:
    """Whether every coefficient of ``fam`` is free of t, so that f_{t+1} =
    f_t + N, N the winding."""
    return all(len(c.coeffs) == 1 for _, const, harm in fam.stack
               for c in (const,) + tuple(x for _, a, b in harm for x in (a, b)))


def _window_locked(fam, ts, windows, q_max: int, n_iter: int, grid=None):
    """Mask of the ``ts`` that ``classify_batch(fam, ts, q_max, n_iter,
    retire=True)`` provably locks, read off ``windows``, which must be
    ``enumerate_windows(fam, q_max, grid=grid)``'s: the t strictly inside
    the certified inner window [t_lo + r, t_hi - r] of a positive-width
    window, or of its shift by -1 or 1 when every coefficient is free of t.

    Why the sweep locks such a t at p/q (p + k q N for a shift by k): B
    increases in t where ``dt_sup_bound() < winding``, and the edge solver
    found B_plus > 0 on the lock grid at some t <= t_lo + r and B_minus <= 0
    at some t >= t_hi - r, by evaluation or by the step bound's certificate
    of the same float sign.  So on that grid max D > -rho and min D <
    rho at t, rho the rounding of D at two points
    (``rotation._lock_rounding``), no coarse grid clears the margin, and
    ``is_locked`` locks where rho <= ``LOCK_TOL``.  p/q lies in every error
    bar of the sweep, so ``_decide`` tries it and locks, at p/q or a
    cheaper fraction, unless its rounding guard fails.

    rho and the guard are bounded once per window and shift, from |t| at
    its far end, the t-free derivative bound and |disp| <= |p|/q + 2 /
    ``n_iter``; a window that fails either decides nothing, as does one
    reaching beyond [-1, 1] when coefficients depend on t, where the t-free
    bounds end.  Each inner end moves inward by a few ulps, for the
    rounding of the ends, of a shift and of the stage drifts w t + c.  With
    a ``grid``, or without certified monotonicity, no t is decided.
    """
    ts = np.asarray(ts, dtype=float)
    ends = []
    if grid is None and fam.dt_sup_bound() < fam.winding:
        t_free = _t_free(fam)
        lip = fam.dtheta_lift_bound()
        rate = rotation._rounding_rate(fam, lip)
        consts = sum(c.abs_bound() for _, c, _ in fam.stack)
        for w in windows:
            r = w.bracket_radius
            reach = max(abs(w.t_lo), abs(w.t_hi)) + r
            if w.width <= 0.0 or w.q > q_max or not (t_free or reach <= 1.0):
                continue
            for k in (-1, 0, 1) if t_free else (0,):
                far, p = reach + abs(k), w.p + k * w.q * fam.winding
                rho = rotation._lock_rounding(fam, w.q, max(abs(w.p), abs(p)), lip,
                                              fam.winding * far + consts)
                guard = rotation._drift(rate, n_iter, abs(p) / w.q + 2.0 / n_iter)
                if rho <= rotation.LOCK_TOL and guard < 1.0 / n_iter:
                    pad = 8.0 * EPS * (far + 1.0 + consts)
                    ends.append((w.t_lo + r + k + pad, w.t_hi - r + k - pad))
    if not ends:
        return np.zeros(ts.shape, dtype=bool)
    lo, hi = np.array(sorted(ends)).T
    i = np.searchsorted(lo, ts) - 1  # the inner window that starts last below t
    return (i >= 0) & (ts < hi[i])


def locked_measure(fam, q_max: int, mc_samples: int, tol: float = 1e-6,
                   seed: int = 0, windows: list | None = None,
                   n_iter: int = rotation.CLASSIFY_N_ITER, grid=None) -> LockedMeasure:
    """Window-width plus Monte Carlo measure of the locked parameter set.

    ``lower`` sums the window widths t_hi - t_lo; it exceeds the certified
    inner measure by the sum of 2r (see :class:`LockedMeasure`).  ``mc`` is
    the fraction of seeded uniform t samples that classify locked, with
    unresolved samples counted separately.  A sample inside a certified
    inner window is locked without its orbit (:func:`_window_locked`);
    the others are classified by a retiring sweep of at most ``n_iter``
    iterates (``classify_batch`` with ``retire``): a sample whose error bar
    holds no candidate at one of ``rotation.RETIRE_CHECKPOINTS`` is an
    irrational candidate from then on.  ``windows`` defaults to
    ``enumerate_windows(fam, q_max, tol, grid)``, and ``grid`` must be the
    one they were solved on.

    The windows of p in [0, q N) tile [0, 1) only when f_{t+1} = f_t + N,
    N the winding: when every coefficient is free of t.  Otherwise a
    window can reach below t = 0, and the one at p = q N is never
    enumerated, so the widths are clipped to [0, 1].
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    if windows is None:
        windows = enumerate_windows(fam, q_max, tol=tol, grid=grid)
    if _t_free(fam):
        lower = sum(w.width for w in windows)
    else:
        lower = sum(max(0.0, min(w.t_hi, 1.0) - max(w.t_lo, 0.0)) for w in windows)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    ts = rng.random(mc_samples)
    decided = _window_locked(fam, ts, windows, q_max, n_iter, grid)
    rest = ts[~decided]
    results = (rotation.classify_batch(fam, rest, q_max=q_max, n_iter=n_iter, retire=True)
               if rest.size else [])
    n_decided = int(np.count_nonzero(decided))
    locked = n_decided + sum(r.classification == rotation.LOCKED for r in results)
    unres = sum(r.classification == rotation.UNRESOLVED for r in results)
    return LockedMeasure(lower, locked / mc_samples, unres / mc_samples,
                         sum(r.n_iter for r in results), n_decided)
