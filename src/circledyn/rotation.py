"""Rotation-number estimation and locked / irrational-candidate classification.

The rotation number of a circle homeomorphism lift satisfies the classical
displacement inequality  |lift^n(theta) - theta - n * rho| < 1  for every
theta and n, so the orbit average (lift^n(theta0) - theta0) / n carries the
rigorous error bar 1/n.  Rational locks are certified by sign changes of the
periodic displacement function, never by floating-point equality of rho.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import farey
from .circle_map import EPS, TAU

LOCKED = "locked"
NOT_LOCKED = "not_locked"
IRRATIONAL_CANDIDATE = "irrational_candidate"
UNRESOLVED = "unresolved"

WITNESS_TOL = 1e-9
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
    witness: float | None = None
    displacement: float = 0.0


@dataclass(frozen=True)
class LockCheck:
    status: str  # LOCKED / NOT_LOCKED / UNRESOLVED
    witness: float | None = None


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
def displacement_batch(fam, ts, theta0: float = 0.0, n_iter: int = CLASSIFY_N_ITER):
    """Mean lift displacement per iterate for an array of parameters (or a
    single one, as a 0-d array)."""
    ts = np.asarray(ts, dtype=float)
    step = fam.step_factory(ts)
    theta = np.full_like(ts, theta0)
    for _ in range(n_iter):
        theta = step(theta)
    return (theta - theta0) / n_iter


def rho_estimate(fam, t, theta0: float = 0.0, n_iter: int = DEFAULT_N_ITER) -> RotationResult:
    """Estimate rho(f_t) = lim (lift^n(theta0) - theta0) / n.

    Returns the estimate mod 1 with error bound 1/n (displacement
    inequality); classification is left unresolved.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    disp = float(displacement_batch(fam, t, theta0=theta0, n_iter=n_iter))
    return RotationResult(
        estimate=disp % 1.0,
        error_bound=1.0 / n_iter,
        n_iter=n_iter,
        displacement=disp,
    )


def _q_disp(step, q: int, p: int, thetas):
    """D(theta) = lift^q(theta) - theta - p, with ``step`` one application
    of the lift (a ``step_factory`` closure); a float or an array of
    thetas, which the steps leave unchanged."""
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


def _lock_decision(step, p: int, q: int, n: int, stride: int, margins) -> LockCheck:
    """The decision rule on D sampled at theta = i / n for every
    ``stride``-th i, with ``step`` the lift at the checked t: a sign change
    or |D| <= ``WITNESS_TOL`` locks, D clear of zero everywhere by one of
    ``margins`` is not locked, and anything else is unresolved.  The
    margins are taken in order, each only when the ones before it failed,
    so an iterator can put off a costly one.  A lock's witness is bisected
    from the first 1/n cell with a sign change; on a sub-grid, that cell is
    found among the fine points inside the first sub-grid cell with one,
    evaluated in one call."""
    thetas = np.arange(0, n, stride) / n
    disp = _q_disp(step, q, p, thetas)
    i_min = int(np.argmin(np.abs(disp)))
    if abs(disp[i_min]) <= WITNESS_TOL:
        return LockCheck(LOCKED, float(thetas[i_min] % 1.0))

    sign = np.sign(disp)
    flips = np.nonzero(sign != np.roll(sign, -1))[0]
    if flips.size:
        i = int(flips[0])
        k, f_lo = i * stride, disp[i]
        if stride > 1:
            inner = _q_disp(step, q, p, np.arange(k + 1, k + stride) / n)
            vals = np.concatenate(([f_lo], inner, [disp[(i + 1) % disp.size]]))
            j = int(np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0][0])
            k, f_lo = k + j, vals[j]
        lo = k / n
        hi = lo + 1.0 / n
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            f_mid = _q_disp(step, q, p, mid)
            if abs(f_mid) <= WITNESS_TOL:
                return LockCheck(LOCKED, mid % 1.0)
            if (f_mid > 0) == (f_lo > 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return LockCheck(LOCKED, (0.5 * (lo + hi)) % 1.0)

    clear = max(float(np.min(disp)), -float(np.max(disp)))  # nan clears nothing
    if any(clear > m for m in margins):
        return LockCheck(NOT_LOCKED, None)
    return LockCheck(UNRESOLVED, None)


@_quiet
def is_locked(fam, t, p: int, q: int, grid: int | None = None) -> LockCheck:
    """Test whether f_t has a q-periodic orbit with lift displacement p.

    Works on D(theta) = lift^q(theta) - theta - p over the grid of n
    points theta_i = i / n, with L = ``dtheta_lift_bound(t)``:

    * a sign change (or |D| below ``WITNESS_TOL``) certifies a periodic
      point, hence rho = p/q exactly; the witness theta* is returned;
    * min D > margin or max D < -margin certifies no periodic point;
    * anything else is unresolved, the honest outcome near window edges.

    The margin is the smaller of two certified bounds on how far D can
    dip below its grid values between them, each plus the rounding rho of
    D (below); the test tries the first-order one first and forms the
    second only when that fails:

    * first order, (1 + L^q) / n + rho: |D'| <= L^q - 1, since the
      composed derivative lies between prod (1 - s_i)^q and prod (1 +
      s_i)^q = L^q, where s_i = 2 pi sum_j j (|a_j| + |b_j|) bounds the
      y-derivative of stage i's harmonics, and 1 - prod (1 - s_i)^q <=
      prod (1 + s_i)^q - 1;
    * second order, B2 (h + eps)^2 / 8 + rho, with B2 =
      ``iterate_d2_bound(t, q)`` >= sup |D''| and h = 1 / n the cell
      width: D is 1-periodic and C^2, so on a cell it stays above the
      chord between its ends less B2 h^2 / 8, hence above the smaller end
      value less that.  The eps covers a grid n that is not a power of
      two, whose points i / n are rounded by up to eps / 2.

    B2 is ``composed_deriv_bounds`` (the chain rule to second order) of
    the per-stage coefficient bounds at t.  It is formed from nonnegative
    floats by sums and products; the stage bounds of order 1 and 2 that
    it uses are off by at most (H + 5) eps in relative terms (H harmonics,
    2 pi and its powers included), and each of the q S composed stages
    adds at most 3 (H + 7) eps to the relative error of the second
    derivative's bound, so the factor 1 + 4 q S (H + 7) eps that
    ``iterate_d2_bound`` applies covers B2's own rounding.  The
    first-order margin is tried first because it needs no B2, and B2 is
    formed at most once per check.

    The rule is applied in two levels.  When ``LOCK_COARSE_STRIDE`` = s
    divides n and leaves at least ``LOCK_COARSE_MIN`` points, it first runs
    on the sub-grid theta_i, i = 0, s, 2s, ..., the same floats as the full
    grid's.  A sign change or a zero there is one on the full grid too, so
    it locks at once.  It is not locked when D clears zero there by the
    smaller of the first-order margin + slack and the second-order margin
    with h = s / n, where

        slack = (L^q - 1) (s / n) / 2 + rho,
        rho   = 2 eps (L^q q r (Y + 1) + Y + |p| + 1),
        r     = sum over stages of (harmonics + 1)
                + (2 + PHASE_ULPS / 2 pi) (L - 1),
        Y     = 1 + q (sum over stages of |w t + c(t)| + L - 1),

    eps = 2^-52 and PHASE_ULPS = 1 + pi + pi/2 + 4 + 1/2.  Every full-grid
    point lies within s / (2n) of a sub-grid point, so clearing the
    first-order margin + slack there means the full grid clears the
    first-order margin; the second-order margin certifies by itself.
    Otherwise the full grid decides.  A check the sub-grid leaves to the
    full grid gets the full grid's status; one it decides as not locked
    may be left unresolved by the full grid alone, when D dips between
    sub-grid points to within the full grid's margin of zero.

    ``rho`` covers the rounding of D at two points; Y bounds every lift
    value along the q iterates.  The kernel evaluates a_j cos(2 pi j y) +
    b_j sin(2 pi j y) as R sin(w y + phi), with R = hypot(a_j, b_j), phi =
    atan2(a_j, b_j) and w = 2 pi j in floats, which are all within eps of
    their exact values in relative terms (hypot and atan2 good to 1 ulp).
    The argument is then off by at most eps (2 (2 pi j) |y| + 3 pi / 2):
    eps 2 pi j |y| from w, eps/2 2 pi j |y| from the product w y, eps/2
    (2 pi j |y| + pi) from the sum with |phi| <= pi, and eps pi from phi.
    With R off by eps R, sin good to 4 ulp (numpy's on arrays, libm's
    ``math.sin`` on the float orbit of one t's rho estimate or of a
    bisection step) and the product R sin rounded, harmonic j is off by
    at most eps R (2 (2 pi j) |y| + PHASE_ULPS), and R <= |a_j| + |b_j|.
    Summed over the harmonics, with j >= 1, that is at most eps (2 s_i |y|
    + PHASE_ULPS s_i / 2 pi); the stage's H_i + 1 additions round by at
    most eps (Y + 1) each, and sum s_i <= L - 1.  So one application
    of the lift rounds by at most eps r (Y + 1); later stages amplify that
    by at most L^q, and the final subtractions add eps (Y + |p| + 1).  A
    not-locked decision needs the rounding at one point only; the other
    half of rho, at least 2 eps (L^q + 1), covers the rounding of the
    margins themselves: a margin that decides is at most the first-order
    one (+ slack), below (1 + L^q) (1 / n + 1 / 32) + 2 rho, and its few
    operations round by less than that for n >= 4.

    The coefficients a_j, b_j, c and the drift w t + c(t) are the float
    values at t that the kernel takes; the decision is about that map.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if math.gcd(abs(p), q) != 1:
        raise ValueError("p/q must be reduced")
    n = grid or lock_grid_size(q)
    step = fam.step_factory(t)
    lip = fam.dtheta_lift_bound(t)
    try:
        lip_q = lip ** q
    except OverflowError:  # an infinite margin clears nothing
        lip_q = math.inf
    rate = _rounding_rate(fam, lip)
    y = 1.0 + q * (sum(abs(w * t + float(c(t))) for w, c, _ in fam.stack) + lip - 1.0)
    rho = 2.0 * EPS * (lip_q * q * rate * (y + 1.0) + y + abs(p) + 1.0)
    margin = (1.0 + lip_q) / n + rho
    b2 = functools.cache(lambda: fam.iterate_d2_bound(t, q))

    def margins(first, h):
        yield first
        yield b2() * (h + EPS) ** 2 / 8.0 + rho

    s = LOCK_COARSE_STRIDE
    if n % s == 0 and n // s >= LOCK_COARSE_MIN:
        slack = (lip_q - 1.0) * (s / n) / 2.0 + rho
        chk = _lock_decision(step, p, q, n, s, margins(margin + slack, s / n))
        if chk.status != UNRESOLVED:
            return chk
    return _lock_decision(step, p, q, n, 1, margins(margin, 1.0 / n))


def _drift(rate, n: int, disp):
    """Bound eps r (Y + 1), Y = n |disp| + 1, on the rounding drift of the
    mean displacement ``disp`` after n iterates (see :func:`_decide`); for
    floats or arrays."""
    return EPS * rate * (n * abs(disp) + 2.0)


@_quiet
def _decide(fam, t, disp: float, n_iter: int, q_max: int, rate: float | None,
            bar=(-math.inf, math.inf)) -> RotationResult:
    """Try every candidate p/q within the 1/n_iter error bar of the mean
    displacement ``disp``, and within ``bar`` (the intersected error bars
    of a retiring sweep's checkpoints), cheapest denominator first.

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
    err = 1.0 / n_iter
    if rate is None:
        rate = _rounding_rate(fam, fam.dtheta_lift_bound(t))
    unresolved = not _drift(rate, n_iter, disp) < err
    lo, hi = max(disp - err, bar[0]), min(disp + err, bar[1])
    for p, q in [] if unresolved else farey.fractions_in_interval(lo, hi, q_max):
        chk = is_locked(fam, t, p, q)
        if chk.status == LOCKED:
            pr, qr = (p % q, q) if q > 1 else (0, 1)
            return RotationResult(disp % 1.0, err, n_iter, LOCKED, pr, qr,
                                  chk.witness, disp)
        if chk.status == UNRESOLVED:
            unresolved = True
    cls = UNRESOLVED if unresolved else IRRATIONAL_CANDIDATE
    return RotationResult(disp % 1.0, err, n_iter, cls, displacement=disp)


def classify(fam, t, q_max: int = 30, n_iter: int = CLASSIFY_N_ITER) -> RotationResult:
    """Classify f_t as locked at some p/q (q <= q_max), irrational candidate,
    or unresolved.

    Candidate rationals are the reduced fractions within the rho error bar,
    enumerated by Stern-Brocot descent and tried cheapest denominator first.
    ``irrational_candidate`` means every candidate certified not-locked; it
    is deliberately weaker than conjugacy to an irrational rotation, which
    no finite computation can certify.
    """
    base = rho_estimate(fam, t, n_iter=n_iter)
    # the t-free bound holds for every t in [0, 1]
    rate = _rounding_rate(fam, fam.dtheta_lift_bound()) if 0.0 <= t <= 1.0 else None
    return _decide(fam, t, base.displacement, n_iter, q_max, rate)


@_quiet
def _classify_block(fam, q_max: int, n_iter: int, rate, retire: bool, ts):
    """``classify_batch`` on one block of values.  The survivors of a
    retiring sweep stay compressed in ``live``, with their intersected bars
    in ``lo``, ``hi``; the step is rebuilt on them after each checkpoint
    that retired some."""
    rates = (np.full(ts.size, rate) if rate is not None else
             np.array([_rounding_rate(fam, fam.dtheta_lift_bound(float(t))) for t in ts]))
    out = [None] * ts.size
    live = np.arange(ts.size)
    lo, hi = np.full(ts.size, -math.inf), np.full(ts.size, math.inf)
    theta, done = np.zeros(ts.size), 0
    step = fam.step_factory(ts)
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
        for i, d in zip(live[empty].tolist(), disp[empty].tolist()):
            out[i] = RotationResult(d % 1.0, 1.0 / n, n, IRRATIONAL_CANDIDATE,
                                    displacement=d)
        live, theta = live[~empty], theta[~empty]
        if not live.size:
            return out
        step = fam.step_factory(ts[live])
    for _ in range(n_iter - done):
        theta = step(theta)
    for i, d in zip(live.tolist(), (theta / n_iter).tolist()):
        out[i] = _decide(fam, float(ts[i]), d, n_iter, q_max, float(rates[i]),
                         (float(lo[i]), float(hi[i])))
    return out


def classify_batch(fam, ts, q_max: int = 30, n_iter: int = CLASSIFY_N_ITER, map_fn=map,
                   retire: bool = False):
    """Classify many parameter values; the rho sweep is vectorized and the
    (rare) lock checks run per sample.  Returns a list of RotationResult.

    ``retire`` stops the sweep at each of ``RETIRE_CHECKPOINTS`` below
    ``n_iter``.  The displacement inequality puts rho in the bar d_n +- 1/n
    at every n; widened by the rounding drift (``_drift``, where
    ``_decide``'s guard holds at n) and intersected with the earlier bars,
    it is rigorous, so a sample whose bar holds no p/q with q <= q_max is
    final: an ``irrational_candidate`` with ``n_iter`` = n and error bound
    1/n, which leaves the sweep.  The others run on to ``n_iter``, where
    ``_decide`` tries only the candidates inside their intersected bar.  A
    locked p/q lies in every bar, so locks keep their (p, q, witness), and
    a survivor's mean displacement is bit for bit the full sweep's.  The
    only class that can change is ``unresolved`` (a candidate that the full
    sweep left undecided, or a failed rounding guard at ``n_iter``), to
    ``irrational_candidate``.  Callers that only count classes opt in;
    ``n_iter`` is then a cap.

    ``map_fn`` lets a caller substitute a worker pool.  The values go out
    in one block per worker, the pool's ``workers`` attribute (one block
    for a ``map_fn`` without it, such as the plain ``map``).  Every value is
    classified as it would be alone, so the results do not depend on the
    blocks.
    """
    ts = np.asarray(ts, dtype=float)
    rate = (_rounding_rate(fam, fam.dtheta_lift_bound())
            if np.all((ts >= 0.0) & (ts <= 1.0)) else None)
    blocks = max(1, min(getattr(map_fn, "workers", 1), ts.size))
    task = functools.partial(_classify_block, fam, q_max, n_iter, rate, retire)
    return [r for block in map_fn(task, np.array_split(ts, blocks)) for r in block]
