"""Rotation-number estimation and locked / irrational-candidate classification.

The rotation number of a circle homeomorphism lift satisfies the classical
displacement inequality  |lift^n(theta) - theta - n * rho| < 1  for every
theta and n, so the orbit average lift^n(0) / n carries the rigorous error
bar 1/n, plus the rounding drift of the orbit.  Rational locks are decided
by the sign of the periodic displacement function on a grid, never by
floating-point equality of rho.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import farey
from .circle_map import EPS, TAU, merge_phases, phase_step, take_phases

LOCKED = "locked"
NOT_LOCKED = "not_locked"
IRRATIONAL_CANDIDATE = "irrational_candidate"
UNRESOLVED = "unresolved"

# |D| within LOCK_TOL of zero at a grid point locks even without a sign
# change: a tolerance, not a certificate, which lets rigid rotations at
# rational t lock
LOCK_TOL = 1e-9
# is_locked's first pass: every LOCK_COARSE_STRIDE-th grid point, used when
# that leaves at least LOCK_COARSE_MIN points
LOCK_COARSE_STRIDE = 32
LOCK_COARSE_MIN = 16
# Rounding of one harmonic R sin(w y + phi) of the stage kernel beyond its
# argument's w y part, in units of eps R (see is_locked): R from hypot (1
# ulp), phi from atan2 (1 ulp, |phi| <= pi), the sum w y + phi (half an ulp
# of pi), sin (4 ulp) and the product R sin (half an ulp)
PHASE_ULPS = 1.0 + math.pi + 0.5 * math.pi + 4.0 + 0.5
# Largest theta grid of a lock check.  A check holds about five float64
# arrays of the grid's size at once: the thetas, the orbit and the stage
# sum and scratch of _q_disp's step, and the displacement.  At
# 2^24 points that is 670 MB; beyond it memory, not resolution, would limit
# a run.  MAX_LOCK_Q is the largest q whose grid fits.
MAX_LOCK_GRID = 2 ** 24
MAX_LOCK_Q = 140
DEFAULT_N_ITER = 10_000
CLASSIFY_N_ITER = 4096
# iterate counts at which a retiring sweep (classify_batch(retire=True))
# stops to retire the samples whose error bars hold no candidate fraction
RETIRE_CHECKPOINTS = (256, 512, 1024, 2048)
# Most values one sweep, or block of classify_groups, holds, so that a
# sweep needs at most about 7 MB (some 0.4 kB per value: its
# RotationResults and a few float64 arrays).  Merging
# families pays where numpy's per-call cost dominates a step: few values,
# as after retirement.  Larger sweeps would not: 4 families of 2^16 values
# each ran 22% slower merged into sweeps of 2^18 than one at a time, and
# within 5% in sweeps of 2^14 (numpy 2.4.6, 2-core VM).
SWEEP_PAIRS = 2 ** 14
# classify_groups splits a sweep across workers only if it holds the work
# of two blocks of MIN_BLOCK values at CLASSIFY_N_ITER steps.  A 4096-step
# sweep of few values is bound by numpy's per-call cost, which each extra
# block repeats, and a cold pool's forks come on top.  Fresh `theoremA
# --workers 2` calls whose sweeps split into two blocks of B values, against
# `--workers 1`, median paired wall-time ratio (2-core VM): B = 256 1.02,
# 512 0.88 and 1.04 on two inputs, 1024 0.81 and 0.80 (10 of 11 and 9 of 9
# pairs won).
MIN_BLOCK = 1024


@dataclass(frozen=True)
class RotationResult:
    """Rotation-number estimate with a rigorous error bar.

    ``estimate`` is the orbit average reduced mod 1; ``displacement`` keeps
    the un-reduced average, which classification needs to pick integer
    numerators for winding > 1 families.  ``p``/``q`` are set (reduced,
    0 <= p < q or (0, 1)) only when classification is ``locked``.
    """

    estimate: float
    error_bound: float
    n_iter: int
    classification: str = UNRESOLVED
    p: int | None = None
    q: int | None = None
    displacement: float = 0.0


@dataclass(frozen=True)
class LockCheck:
    status: str  # LOCKED / NOT_LOCKED / UNRESOLVED


def lock_grid_size(q: int) -> int:
    """Theta-grid resolution policy: 4096 for q <= 20, doubled per
    additional 10 in q, up to ``MAX_LOCK_GRID`` (q <= ``MAX_LOCK_Q``); a
    larger q raises ValueError."""
    if q > MAX_LOCK_Q:
        raise ValueError(f"q = {q} needs a lock grid above {MAX_LOCK_GRID} points; "
                         f"q <= {MAX_LOCK_Q} stays within it")
    return 4096 << max(0, -((20 - q) // 10))  # ceil((q - 20) / 10) doublings


def _quiet(fn):
    """Run ``fn`` with numpy's overflow and invalid-value warnings off.  An
    orbit or coefficient that overflows ends in inf or nan, which the
    callers decide as unresolved."""
    @functools.wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)

    return quiet


@_quiet
def displacement_batch(fam, ts, n_iter: int = CLASSIFY_N_ITER):
    """Mean lift displacement per iterate of the orbit of 0, for an array of
    parameters (or a single one, as a 0-d array)."""
    ts = np.asarray(ts, dtype=float)
    step = fam.step_factory(ts)
    theta = np.zeros_like(ts)
    for _ in range(n_iter):
        theta = step(theta)
    return theta / n_iter


def rho_estimate(fam, t, n_iter: int = DEFAULT_N_ITER) -> RotationResult:
    """Estimate rho(f_t) = lim lift^n(0) / n.

    Returns the estimate mod 1, unresolved, with error bound 1/n from the
    displacement inequality: the rounding of the orbit is left out.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    disp = float(displacement_batch(fam, t, n_iter=n_iter))
    return RotationResult(
        estimate=disp % 1.0,
        error_bound=1.0 / n_iter,
        n_iter=n_iter,
        displacement=disp,
    )


def _q_disp(step, q: int, p: int, thetas):
    """D(theta) = lift^q(theta) - theta - p on an array of thetas, which
    the steps leave unchanged, with ``step`` one application of the lift (a
    ``step_factory`` closure)."""
    out = thetas
    for _ in range(q):
        out = step(out)
    return out - thetas - p


def _lift_q_displacement(fam, t, q: int, p: int, thetas):
    return _q_disp(fam.step_factory(t), q, p, np.asarray(thetas, dtype=float))


def _rounding_rate(fam, lip: float) -> float:
    """r of :func:`is_locked` and :func:`_decide` for a lift whose
    derivative bound is ``lip`` = L: one rounded addition per stage and per
    harmonic, plus (2 + PHASE_ULPS / 2 pi) (L - 1) for the harmonics."""
    return (sum(len(harm) + 1 for _, _, harm in fam.stack)
            + (2.0 + PHASE_ULPS / TAU) * (lip - 1.0))


def _lock_rounding(fam, q: int, p: int, lip: float, drift: float) -> float:
    """rho of :func:`is_locked`, the rounding of D at two points, for a lift
    whose derivative bound is ``lip`` = L and whose stage drifts sum to at
    most ``drift`` in absolute value."""
    try:
        lip_q = lip ** q
    except OverflowError:  # an infinite rho clears nothing
        lip_q = math.inf
    y = 1.0 + q * (drift + lip - 1.0)
    return 2.0 * EPS * (lip_q * q * _rounding_rate(fam, lip) * (y + 1.0) + y + abs(p) + 1.0)


def _lock_decision(step, p: int, q: int, n: int, stride: int, margin) -> LockCheck:
    """The decision rule on D sampled at theta = i / n for every
    ``stride``-th i, with ``step`` the lift at the checked t, from the grid
    extremes lo = min D and hi = max D: lo <= ``LOCK_TOL`` and hi >=
    -``LOCK_TOL`` locks (a sign change, or a value within the tolerance),
    D clear of zero everywhere by more than ``margin(h)``, h = stride / n
    the grid spacing, is not locked, and anything else, a nan included, is
    unresolved; the margin is taken only then."""
    disp = _q_disp(step, q, p, np.arange(0, n, stride) / n)
    lo, hi = float(np.min(disp)), float(np.max(disp))  # nan if any D is nan
    if lo <= LOCK_TOL and hi >= -LOCK_TOL:
        return LockCheck(LOCKED)
    if max(lo, -hi) > margin(stride / n):
        return LockCheck(NOT_LOCKED)
    return LockCheck(UNRESOLVED)


@_quiet
def is_locked(fam, t, p: int, q: int, grid: int | None = None) -> LockCheck:
    """Test whether f_t has a q-periodic orbit with lift displacement p.

    Works on D(theta) = lift^q(theta) - theta - p over the grid of n
    points theta_i = i / n, with L = ``dtheta_lift_bound(t)``:

    * min D <= 0 <= max D, a sign change, certifies a periodic point,
      hence rho = p/q exactly;
    * min D <= ``LOCK_TOL`` and max D >= -``LOCK_TOL`` also locks: a grid
      value within the tolerance of zero with no sign change is a
      tolerance, not a certificate, and it is what lets rigid rotations
      at rational t lock;
    * min D > margin or max D < -margin certifies no periodic point;
    * anything else is unresolved, the honest outcome near window edges,
      and so is a grid with a nan on it (an orbit that overflowed, or a
      t of nan or +-inf).

    The margin bounds how far D can dip below its grid values between
    them, plus the rounding rho of D (below):

        margin = B2 (h + eps)^2 / 8 + rho,

    with B2 = ``iterate_d2_bound(t, q)`` >= sup |D''| and h the width of a
    grid cell.  D is 1-periodic and C^2, so on a cell it stays above the
    chord between its ends less B2 h^2 / 8, hence above the smaller end
    value less that.  The eps covers a grid n that is not a power of two,
    whose points i / n are rounded by up to eps / 2.  B2 and rho are taken
    only once a grid shows no lock, so a lock never computes them.

    The rule is applied in two levels.  When ``LOCK_COARSE_STRIDE`` = s
    divides n and leaves at least ``LOCK_COARSE_MIN`` points, it first runs
    on the sub-grid theta_i, i = 0, s, 2s, ..., the same floats as the full
    grid's, with h = s / n.  A lock there is one on the full grid too, so
    it locks at once, and a sub-grid clear of the margin
    certifies by itself.  Otherwise the full grid decides, with h = 1 / n.
    A check the sub-grid leaves to the full grid gets the full grid's
    status; one it decides as not locked may be left unresolved by the full
    grid alone, when D dips between sub-grid points to within the full
    grid's margin of zero.

    Here

        rho = 2 eps (L^q q r (Y + 1) + Y + |p| + 1),
        r   = sum over stages of (harmonics + 1)
              + (2 + PHASE_ULPS / 2 pi) (L - 1),
        Y   = 1 + q (sum over stages of |w t + c(t)| + L - 1),

    eps = 2^-52 and PHASE_ULPS = 1 + pi + pi/2 + 4 + 1/2.  ``rho`` covers
    the rounding of D at two points; Y bounds every lift value along the q
    iterates.  The kernel evaluates a_j cos(2 pi j y) + b_j sin(2 pi j y) as
    R sin(w y + phi), with R = hypot(a_j, b_j), phi = atan2(a_j, b_j) and
    w = 2 pi j in floats, which are all within eps of their exact values in
    relative terms (hypot and atan2 good to 1 ulp).  The argument is then
    off by at most eps (2 (2 pi j) |y| + 3 pi / 2): eps 2 pi j |y| from w,
    eps/2 2 pi j |y| from the product w y, eps/2 (2 pi j |y| + pi) from the
    sum with |phi| <= pi, and eps pi from phi.  With R off by eps R, sin
    good to 4 ulp (numpy's on arrays, libm's ``math.sin`` on the float
    orbit of one t's rho estimate) and the product
    R sin rounded, harmonic j is off by at most eps R (2 (2 pi j) |y| +
    PHASE_ULPS), and R <= |a_j| + |b_j|.  Summed over the harmonics, with
    j >= 1, that is at most eps (2 s_i |y| + PHASE_ULPS s_i / 2 pi), where
    s_i = 2 pi sum_j j (|a_j| + |b_j|) bounds the y-derivative of stage i's
    harmonics; the stage's H_i + 1 additions round by at most eps (Y + 1)
    each, and sum s_i <= L - 1.  So one application of the lift rounds by
    at most eps r (Y + 1); later stages amplify that by at most L^q (the
    composed derivative lies between prod (1 - s_i)^q and prod (1 +
    s_i)^q = L^q), and the final subtractions add eps (Y + |p| + 1).

    The margin itself is rounded, too.  B2 is ``composed_deriv_bounds``
    (the chain rule to second order) of the per-stage coefficient bounds at
    t, formed from nonnegative floats by sums and products.  The stage
    bounds of order 1 and 2 that it uses are off by at most (H + 5) eps in
    relative terms (H harmonics, 2 pi and its powers included), and each of
    the q S composed stages adds at most 3 (H + 7) eps to the relative
    error of the second derivative's bound.  ``iterate_d2_bound`` widens B2
    by 4 q S (H + 7) eps, which leaves at least 7 eps, less the half ulp of
    that product, over B2's own rounding.  The term B2 (h + eps)^2 / 8 adds
    at most 3 eps: eps / 2 each from the quotient h and the sum h + eps,
    doubled by the square, and from the square and the product (the
    division by 8 is exact).  The final sum with rho rounds each part by
    eps / 2: the B2 part within the same spare, and rho's part, with rho's
    own few operations, far inside the half of rho that a not-locked
    decision leaves unused, since it needs the rounding of D at one point
    only.  So the float margin is at least the exact one.

    The coefficients a_j, b_j, c and the drift w t + c(t) are the float
    values at t that the kernel takes; the decision is about that map.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if math.gcd(abs(p), q) != 1:
        raise ValueError("p/q must be reduced")
    n = grid or lock_grid_size(q)
    step = fam.step_factory(t)
    bounds = []  # (B2, rho), taken by the first grid with no lock

    def margin(h):
        if not bounds:
            drift = sum(abs(w * t + float(c(t))) for w, c, _ in fam.stack)
            bounds.extend((fam.iterate_d2_bound(t, q),
                           _lock_rounding(fam, q, p, fam.dtheta_lift_bound(t), drift)))
        b2, rho = bounds
        return b2 * (h + EPS) ** 2 / 8.0 + rho

    s = LOCK_COARSE_STRIDE
    if n % s == 0 and n // s >= LOCK_COARSE_MIN:
        chk = _lock_decision(step, p, q, n, s, margin)
        if chk.status != UNRESOLVED:
            return chk
    return _lock_decision(step, p, q, n, 1, margin)


def _drift(rate, n: int, disp):
    """Bound eps r (Y + 1), Y = n |disp| + 1, on the rounding drift of the
    mean displacement ``disp`` after n iterates (see :func:`_decide`); for
    floats or arrays."""
    return EPS * rate * (n * abs(disp) + 2.0)


@_quiet
def _decide(fam, t, disp: float, n_iter: int, q_max: int, rate: float | None,
            bar=(-math.inf, math.inf)) -> RotationResult:
    """Try every candidate p/q within the 1/n_iter error bar of the mean
    displacement ``disp``, widened by its rounding drift, and within ``bar``
    (the intersected error bars of a retiring sweep's checkpoints),
    cheapest denominator first.  The first that ``is_locked`` locks is the
    result's p/q; there is no witness theta, only the lock check's status.
    The result's error bound is the widened bar, 1/n_iter plus the drift.

    Each iterate of the orbit rounds by about eps r Y, where Y = n_iter
    |disp| + 1 bounds the lift values and, as derived in :func:`is_locked`
    for the phase-form kernel R sin(w y + phi),

        r = sum over stages of (harmonics + 1) + (2 + PHASE_ULPS / 2 pi) (L - 1):

    one rounded addition per stage and per harmonic, twice the argument
    error eps 2 pi j |y| (from w, the product w y and the sum with phi),
    and eps R PHASE_ULPS for R, phi, the sum, sin and the product, with
    sum_j R_j <= (L - 1) / 2 pi (``rate``, or at t when it is None).  The
    mean displacement then drifts by up to eps r (Y + 1) (``_drift``).
    Where that reaches the error bar (large |t|, where the lift values keep
    few fractional bits), or the orbit overflowed, nothing is tested and
    the result is unresolved.
    """
    if rate is None:
        rate = _rounding_rate(fam, fam.dtheta_lift_bound(t))
    drift = _drift(rate, n_iter, disp)
    unresolved = not drift < 1.0 / n_iter
    err = 1.0 / n_iter + drift
    lo, hi = max(disp - err, bar[0]), min(disp + err, bar[1])
    for p, q in [] if unresolved else farey.fractions_in_interval(lo, hi, q_max):
        chk = is_locked(fam, t, p, q)
        if chk.status == LOCKED:
            pr, qr = (p % q, q) if q > 1 else (0, 1)
            return RotationResult(disp % 1.0, err, n_iter, LOCKED, pr, qr, disp)
        if chk.status == UNRESOLVED:
            unresolved = True
    cls = UNRESOLVED if unresolved else IRRATIONAL_CANDIDATE
    return RotationResult(disp % 1.0, err, n_iter, cls, displacement=disp)


def classify(fam, t, q_max: int = 30, n_iter: int = CLASSIFY_N_ITER) -> RotationResult:
    """Classify f_t as locked at some p/q (q <= q_max), irrational candidate,
    or unresolved.

    Candidate rationals are the reduced fractions within the rho error bar,
    sliced from a table of Farey fractions and tried cheapest denominator
    first.  ``irrational_candidate`` means every candidate certified
    not-locked; it is deliberately weaker than conjugacy to an irrational
    rotation, which no finite computation can certify.
    """
    base = rho_estimate(fam, t, n_iter=n_iter)
    # the t-free bound holds for every t in [0, 1]
    rate = _rounding_rate(fam, fam.dtheta_lift_bound()) if 0.0 <= t <= 1.0 else None
    return _decide(fam, t, base.displacement, n_iter, q_max, rate)


@_quiet
def _sweep(pieces, q_max: int, n_iter: int, retire: bool):
    """One vectorized sweep over ``pieces``, (fam, ts, rate) triples, with
    the stacks' phase data merged by ``merge_phases``: the results of all
    values in order.  The survivors of a retiring sweep stay compressed in
    ``live``, with their intersected bars in ``lo``, ``hi``, and the phase
    data is compressed with them after each checkpoint that retired some."""
    starts = list(itertools.accumulate((t.size for _, t, _ in pieces), initial=0))
    size = starts[-1]
    rates = np.concatenate([
        np.full(t.size, rate) if rate is not None else
        np.array([_rounding_rate(fam, fam.dtheta_lift_bound(float(v))) for v in t])
        for fam, t, rate in pieces])
    data = merge_phases([(fam.phase_data(t), t.size) for fam, t, _ in pieces])
    step = phase_step(data)
    out = [None] * size
    live = np.arange(size)
    lo, hi = np.full(size, -math.inf), np.full(size, math.inf)
    theta, done = np.zeros(size), 0
    for n in [c for c in RETIRE_CHECKPOINTS if retire and c < n_iter]:
        for _ in range(n - done):
            theta = step(theta)
        done = n
        disp = theta / n
        drift = _drift(rates[live], n, disp)
        ok = drift < 1.0 / n  # _decide's rounding guard at n
        k = live[ok]
        lo[k] = np.maximum(lo[k], disp[ok] - (1.0 / n + drift[ok]))
        hi[k] = np.minimum(hi[k], disp[ok] + (1.0 / n + drift[ok]))
        empty = np.zeros(live.size, dtype=bool)
        empty[ok] = ~farey.holds_fraction(lo[k], hi[k], q_max)
        if not empty.any():
            continue
        for i, d, e in zip(live[empty].tolist(), disp[empty].tolist(), drift[empty].tolist()):
            out[i] = RotationResult(d % 1.0, 1.0 / n + e, n, IRRATIONAL_CANDIDATE,
                                    displacement=d)
        live, theta = live[~empty], theta[~empty]
        if not live.size:
            return out
        data = take_phases(data, ~empty)
        step = phase_step(data)
    for _ in range(n_iter - done):
        theta = step(theta)
    owners = np.searchsorted(starts, live, side="right") - 1  # the piece of each survivor
    for i, k, d in zip(live.tolist(), owners.tolist(), (theta / n_iter).tolist()):
        fam, t, _ = pieces[k]
        out[i] = _decide(fam, float(t[i - starts[k]]), d, n_iter, q_max, float(rates[i]),
                         (float(lo[i]), float(hi[i])))
    return out


def _classify_block(q_max: int, n_iter: int, retire: bool, reduce, pieces):
    """``classify_groups`` on one block, in one sweep: ``pieces`` are the
    (group index, fam, ts, rate) of the groups' values in the block.
    Returns (group index, value) for each piece, where the value is the
    list of its results, or ``reduce`` of an iterator over them."""
    results = iter(_sweep([piece[1:] for piece in pieces], q_max, n_iter, retire))
    out = []
    for g, _, ts, _ in pieces:
        part = itertools.islice(results, ts.size)
        out.append((g, list(part) if reduce is None else reduce(part)))
    return out


def classify_groups(groups, q_max: int = 30, n_iter: int = CLASSIFY_N_ITER, map_fn=map,
                    retire: bool = False, reduce=None):
    """Classify several families, each on its own parameter values, in
    merged sweeps.  ``groups`` are (fam, ts) pairs, every fam with the same
    number of stages.  Each value is classified as ``classify_batch(fam,
    ts)`` would classify it, field for field: the merged phase data runs
    every value through its own family's float operations (``merge_phases``),
    and the rate of ``_decide`` comes from its own group.

    The values of all groups are concatenated with the groups in order of
    their families' harmonic counts per stage, so that a block merges
    families of like counts and ``merge_phases`` pads few of them.  They go
    out in blocks of equal size, one per worker of ``map_fn`` (its
    ``workers`` attribute, see ``classify_batch``) if the sweep holds the
    work of two ``MIN_BLOCK``-value blocks at ``CLASSIFY_N_ITER`` steps
    (values times ``n_iter``, a cap when retiring), else one, and more
    where a block would exceed ``SWEEP_PAIRS`` values; each block is one
    sweep.  Returns per group, in the order of ``groups``, the values of
    its pieces (its values within one block), in order: each piece's list
    of results, or ``reduce`` of an iterator over them, applied where the
    sweep ran, so that a caller that only counts gets counts back from the
    workers.
    """
    groups = [(fam, np.asarray(ts, dtype=float)) for fam, ts in groups]
    if len({len(fam.stack) for fam, _ in groups}) > 1:
        raise ValueError("classify_groups needs families with the same number of stages")
    # the t-free rate holds for every t in [0, 1]
    groups = [(fam, ts, _rounding_rate(fam, fam.dtheta_lift_bound())
               if np.all((ts >= 0.0) & (ts <= 1.0)) else None) for fam, ts in groups]
    total = sum(ts.size for _, ts, _ in groups)
    split = total * n_iter >= 2 * MIN_BLOCK * CLASSIFY_N_ITER
    blocks = max(1, min(getattr(map_fn, "workers", 1), total) if split else 1,
                 -(-total // SWEEP_PAIRS))
    each, extra = divmod(total, blocks)  # block sizes as np.array_split's
    cuts = [k * each + min(k, extra) for k in range(blocks + 1)]
    order = sorted(range(len(groups)), key=lambda g: [len(h) for _, _, h in groups[g][0].stack])
    ends = list(itertools.accumulate((groups[g][1].size for g in order), initial=0))
    # each block's task carries only its own slices of the groups' values
    tasks = [[(g, fam, ts[max(a, lo) - lo:min(b, hi) - lo], rate)
              for g, lo, hi in zip(order, ends, ends[1:])
              for fam, ts, rate in [groups[g]]
              if max(a, lo) < min(b, hi)]
             for a, b in zip(cuts, cuts[1:])]
    task = functools.partial(_classify_block, q_max, n_iter, retire, reduce)
    out = [[] for _ in groups]
    for block in map_fn(task, tasks):
        for g, value in block:
            out[g].append(value)
    return out


def classify_batch(fam, ts, q_max: int = 30, n_iter: int = CLASSIFY_N_ITER, map_fn=map,
                   retire: bool = False):
    """Classify many parameter values; the rho sweep is vectorized and the
    (rare) lock checks run per sample.  Returns a list of RotationResult.
    This is ``classify_groups`` with one group.

    ``retire`` stops the sweep at each of ``RETIRE_CHECKPOINTS`` below
    ``n_iter``.  The displacement inequality puts rho in the bar d_n +- 1/n
    at every n; widened by the rounding drift (``_drift``, where
    ``_decide``'s guard holds at n) and intersected with the earlier bars,
    it is rigorous, so a sample whose bar holds no p/q with q <= q_max is
    final: an ``irrational_candidate`` with ``n_iter`` = n and error bound
    1/n + drift, which leaves the sweep.  The others run on to ``n_iter``,
    where ``_decide`` tries only the candidates inside their intersected
    bar.  A locked p/q lies in every bar, so locks keep their (p, q), and a
    survivor's mean displacement is bit for bit the full sweep's.  The only
    class that can change is ``unresolved`` (a candidate that the full
    sweep left undecided, or a failed rounding guard at ``n_iter``), to
    ``irrational_candidate``.  Callers that only count classes opt in;
    ``n_iter`` is then a cap.

    ``map_fn`` lets a caller substitute a worker pool.  The values go out
    in one block per worker, the pool's ``workers`` attribute (one block
    for a ``map_fn`` without it, such as the plain ``map``), but a sweep
    with less work than two blocks of ``MIN_BLOCK`` values at
    ``CLASSIFY_N_ITER`` steps is one block.  Every value is classified as
    it would be alone, so the results do not depend on the blocks.
    """
    pieces = classify_groups([(fam, ts)], q_max, n_iter, map_fn, retire)[0]
    return [r for piece in pieces for r in piece]
