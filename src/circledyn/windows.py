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
midpoint takes its sign from the tightest evaluated bracket.  An edge
then costs about four full-grid evaluations of B instead of twenty, and
the windows are bit-identical to plain bisection's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import farey, rotation
from .errors import NoLockInBracket

MAX_BISECT = 64
# edge predictor: rounds per edge, branch stride of its first pass,
# Illinois step cap per pass, and its stopping bracket as a fraction of tol
PREDICT_ROUNDS = 3
PREDICT_STRIDE = 32
PREDICT_STEPS = 40
PREDICT_TOL = 1.0 / 64.0


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
    a certified lower bound on the measure of the locked t in [0, 1] (the
    window widths, clipped to [0, 1] unless the family is 1-periodic in
    t), a Monte Carlo locked fraction, and the separately tracked
    unresolved fraction.  ``iterates`` counts the orbit iterates of the
    Monte Carlo sweep."""

    lower: float
    mc: float
    unresolved_frac: float
    iterates: int


@dataclass(frozen=True)
class TongueDiagram:
    deltas: tuple
    windows: tuple  # tuple of tuples of Window, aligned with deltas
    label: str = ""
    q_max: int = 0
    tol: float = 0.0


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


def _illinois(fam, p, q, edge, thetas, idx, a, b, fa, fb, width):
    """Illinois regula falsi on the branches D(thetas[idx], t), from the
    brackets [a, b] with values ``fa`` <= 0 < ``fb``, all in one array call
    per step.

    A branch is dropped once its bracket cannot hold the least root (lo
    edge) or the greatest (hi edge).  Returns the surviving indices and
    their brackets.
    """
    side = np.zeros(idx.size)  # +1 / -1: the last step moved b / a
    for _ in range(PREDICT_STEPS):
        drop = a > b.min() if edge == "lo" else b < a.max()
        idx, a, b, fa, fb, side = (x[~drop] for x in (idx, a, b, fa, fb, side))
        o = np.flatnonzero(b - a > width)
        if not o.size:
            break
        c = np.clip(b[o] - fb[o] * (b[o] - a[o]) / (fb[o] - fa[o]), a[o], b[o])
        fc = rotation._lift_q_displacement(fam, c, q, p, thetas[idx[o]])
        pos = fc > 0.0
        up, down = o[pos], o[~pos]
        # Illinois: halve the value at the end that stays put twice running
        fa[up[side[up] > 0.0]] *= 0.5
        fb[down[side[down] < 0.0]] *= 0.5
        b[up], fb[up], side[up] = c[pos], fc[pos], 1.0
        a[down], fa[down], side[down] = c[~pos], fc[~pos], -1.0
        b[o[fc == 0.0]] = c[fc == 0.0]  # an exact root closes its bracket
    return idx, a, b


def _predict_root(fam, p, q, edge, thetas, u, du, v, dv, tol, disp_at):
    """Estimate of the B root inside [u, v] from the branches D(theta_i, t),
    given the displacement arrays ``du``, ``dv`` at u and v.  A pass over
    every branch at one t is a B evaluation, taken by ``disp_at``.

    Every branch is increasing in t, so the root of B_plus (lo edge) is the
    least branch root and that of B_minus (hi edge) the greatest.  A large
    branch set is first run on every PREDICT_STRIDE-th branch.  The fine
    neighbours of the survivors then start from brackets split at the
    survivors' best end.
    """
    in_branch = dv > 0.0 if edge == "lo" else du <= 0.0
    idx = np.flatnonzero(in_branch)
    a, b, fa, fb = np.full(idx.size, u), np.full(idx.size, v), du[idx], dv[idx]
    if idx.size > 2 * PREDICT_STRIDE:
        s = slice(None, None, PREDICT_STRIDE)
        idx, a, b = _illinois(fam, p, q, edge, thetas, idx[s], a[s], b[s], fa[s], fb[s],
                              tol * PREDICT_TOL)
        t = b.min() if edge == "lo" else a.max()
        near = np.zeros_like(in_branch)
        near[(idx[:, None] + np.arange(-PREDICT_STRIDE, PREDICT_STRIDE + 1)) % thetas.size] = True
        idx = np.flatnonzero(near & in_branch)
        if idx.size == thetas.size:
            ft = disp_at(t)
        else:
            ft = rotation._lift_q_displacement(fam, t, q, p, thetas[idx])
        pos = ft > 0.0
        a, fa = np.where(pos, u, t), np.where(pos, du[idx], ft)
        b, fb = np.where(pos, t, v), np.where(pos, ft, dv[idx])
    _, a, b = _illinois(fam, p, q, edge, thetas, idx, a, b, fa, fb, tol * PREDICT_TOL)
    if edge == "lo":
        return 0.5 * (a.min() + b.min())
    return 0.5 * (a.max() + b.max())


def _edge_root(fam, p, q, edge, t_seed, radius0, tol, thetas, disp_at):
    """Root of B_plus (edge='lo') or B_minus (edge='hi'), bracketed by
    geometric expansion around t_seed and then bisected to radius <= tol.
    ``disp_at(t)`` is the displacement array D(thetas, t) of which B is
    the max (lo edge) or the min (hi edge).

    B is strictly increasing in t when the t-derivative bound is below the
    winding.  The bisection then evaluates B only at midpoints strictly
    inside the tightest evaluated bracket; any other midpoint's sign
    follows from monotonicity.  Evaluating first the two ends of the final
    cell that holds the predicted root usually leaves no midpoint to
    evaluate.  The result equals plain bisection's bit for bit whatever
    the prediction, which only decides what is evaluated.
    """
    def extremum(t):
        disp = disp_at(t)
        return float(np.max(disp) if edge == "lo" else np.min(disp)), disp

    r = max(radius0, 4.0 * tol)
    u, v = t_seed - r, t_seed + r
    (fu, du), (fv, dv) = extremum(u), extremum(v)
    for _ in range(64):
        if fu < 0.0:
            break
        r *= 2.0
        u = t_seed - r
        fu, du = extremum(u)
    for _ in range(64):
        if fv > 0.0:
            break
        r *= 2.0
        v = t_seed + r
        fv, dv = extremum(v)
    if fu >= 0.0 or fv <= 0.0:
        raise NoLockInBracket(
            f"could not bracket the {edge} edge of the {p}/{q} window near t={t_seed:g}"
        )

    monotone = fam.dt_sup_bound() < fam.winding
    # tightest evaluated bracket, with its displacement arrays: B <= 0 at
    # ends[0], B > 0 at ends[1]
    ends = [(u, du), (v, dv)]

    def positive(t):
        if monotone and not ends[0][0] < t < ends[1][0]:
            return t >= ends[1][0]
        val, disp = extremum(t)
        ends[1 if val > 0.0 else 0] = (t, disp)
        return val > 0.0

    for _ in range(PREDICT_ROUNDS if monotone else 0):
        est = _predict_root(fam, p, q, edge, thetas, *ends[0], *ends[1], tol, disp_at)
        cell = _bisect(u, v, tol, lambda mid: mid > est)
        for t in cell:
            positive(t)
        if (ends[0][0], ends[1][0]) == cell:
            break
    u, v = _bisect(u, v, tol, positive)
    return 0.5 * (u + v), 0.5 * (v - u)


def window_for_rational(fam, p: int, q: int, tol: float = 1e-6,
                        grid: int | None = None, t_seed: float | None = None) -> Window:
    """Locate the locking window for lift displacement p over period q.

    The seed defaults to the rigid-rotation prediction p / (q * winding);
    expansion of the bisection bracket absorbs the periodic-part offset.
    Windows narrower than tol collapse to width-0 markers.

    Both edges start from t = seed +- r and expand along seed +- r 2^k, and
    B_plus and B_minus are the max and the min of one displacement array
    D(theta_i, t).  So the edges share the arrays they evaluate: each t is
    evaluated once per window.  The arrays are dropped with the window.
    """
    grid = grid or rotation.lock_grid_size(q)
    n = fam.winding
    seed = t_seed if t_seed is not None else p / (q * n)
    radius0 = fam.g_sup_bound() / n + 4.0 * tol
    thetas = np.arange(grid) / grid
    evals = {}

    def disp_at(t):
        if t not in evals:
            evals[t] = rotation._lift_q_displacement(fam, t, q, p, thetas)
        return evals[t]

    t_lo, r_lo = _edge_root(fam, p, q, "lo", seed, radius0, tol, thetas, disp_at)
    t_hi, r_hi = _edge_root(fam, p, q, "hi", seed, radius0, tol, thetas, disp_at)
    radius = max(r_lo, r_hi)
    width = t_hi - t_lo
    # each edge is known to +-tol, so width <= 2 tol is indistinguishable
    # from a point (small factor absorbs bisection rounding)
    if width <= 2.0 * tol * (1.0 + 1e-6):
        mid = 0.5 * (t_lo + t_hi)
        return Window(p, q, mid, mid, 0.0, radius)
    return Window(p, q, t_lo, t_hi, width, radius)


def window_boundaries(fam, p: int, q: int, t_bracket, tol: float = 1e-6) -> Window:
    """Certified window through a seed found inside ``t_bracket``.

    Scans 17 points of the bracket for a parameter certifying the lock
    (midpoint outward); raises NoLockInBracket when none certifies.  The
    returned interval is the full connected window containing the seed,
    with both edges bisected to bracket radius <= tol.
    """
    if math.gcd(abs(p), q) != 1:
        raise ValueError("p/q must be reduced")
    a, b = float(t_bracket[0]), float(t_bracket[1])
    if b < a:
        raise ValueError("empty bracket")
    seed = None
    probes = np.linspace(a, b, 17)
    for t in sorted(probes, key=lambda x: abs(x - 0.5 * (a + b))):
        if rotation.is_locked(fam, float(t), p, q).status == rotation.LOCKED:
            seed = float(t)
            break
    if seed is None:
        raise NoLockInBracket(f"no parameter in [{a:g}, {b:g}] certifies lock {p}/{q}")
    return window_for_rational(fam, p, q, tol=tol, t_seed=seed)


def lift_rationals(q_max: int, winding: int) -> list:
    """Reduced (p, q) lift pairs whose windows live in t in [0, 1):
    p/q sweeps [0, winding), ordered by rotation value (Farey order)."""
    out = []
    for p0, q in farey.farey_sequence(q_max):
        for k in range(winding):
            out.append((p0 + k * q, q))
    out.sort(key=lambda f: f[0] / f[1])
    return out


def _window_at(fam, tol, grid, pq) -> Window:
    # module level, so that a process pool can pickle it with its arguments
    return window_for_rational(fam, pq[0], pq[1], tol, grid)


def enumerate_windows(fam, q_max: int, tol: float = 1e-6,
                      grid: int | None = None, map_fn=map) -> list:
    """One window per reduced rational with q <= q_max, in Farey order.

    ``map_fn`` lets a caller substitute a worker pool (such as a process
    pool's ``map``); results are emitted in deterministic Farey order
    regardless of completion order.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    fam.check_diffeo()
    pairs = lift_rationals(q_max, fam.winding)
    return list(map_fn(functools.partial(_window_at, fam, tol, grid), pairs))


def locked_measure(fam, q_max: int, mc_samples: int, tol: float = 1e-6,
                   seed: int = 0, windows: list | None = None,
                   n_iter: int = rotation.CLASSIFY_N_ITER) -> LockedMeasure:
    """Certified-below plus Monte Carlo measure of the locked parameter set.

    ``lower`` sums certified window widths (semi-computable from below at
    finite q_max); ``mc`` is the fraction of seeded uniform t samples that
    classify locked, with unresolved samples counted separately.  The
    samples are classified by a retiring sweep of at most ``n_iter``
    iterates (``classify_batch`` with ``retire``): a sample whose error bar
    holds no candidate at one of ``rotation.RETIRE_CHECKPOINTS`` is an
    irrational candidate from then on.

    The windows of p in [0, q N) tile [0, 1) only when f_{t+1} = f_t + N,
    N the winding: when every coefficient is free of t.  Otherwise a
    window can reach below t = 0, and the one at p = q N is never
    enumerated, so the widths are clipped to [0, 1] and the sum stays a
    lower bound.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    if windows is None:
        windows = enumerate_windows(fam, q_max, tol=tol)
    periodic = all(len(c.coeffs) == 1 for _, const, harm in fam.stack
                   for c in (const,) + tuple(x for _, a, b in harm for x in (a, b)))
    if periodic:
        lower = sum(w.width for w in windows)
    else:
        lower = sum(max(0.0, min(w.t_hi, 1.0) - max(w.t_lo, 0.0)) for w in windows)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    ts = rng.random(mc_samples)
    results = rotation.classify_batch(fam, ts, q_max=q_max, n_iter=n_iter, retire=True)
    locked = sum(r.classification == rotation.LOCKED for r in results)
    unres = sum(r.classification == rotation.UNRESOLVED for r in results)
    return LockedMeasure(lower, locked / mc_samples, unres / mc_samples,
                         sum(r.n_iter for r in results))


def tongue_diagram(profile, deltas, q_max: int, tol: float = 1e-6,
                   grid: int | None = None, map_fn=map) -> TongueDiagram:
    """Windows of ``profile`` scaled by each amplitude in ``deltas``.

    The profile family supplies the unit periodic part; amplitude delta
    multiplies it.  DegenerateFamily propagates for amplitudes beyond the
    diffeomorphism range.
    """
    deltas = tuple(float(d) for d in deltas)
    per_delta = []
    for d in deltas:
        fam = profile.scaled(d)
        per_delta.append(tuple(enumerate_windows(fam, q_max, tol=tol, grid=grid,
                                                 map_fn=map_fn)))
    return TongueDiagram(deltas, tuple(per_delta), profile.label, q_max, tol)

