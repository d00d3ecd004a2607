"""Rotation-number estimation and locked / irrational-candidate classification.

The rotation number of a circle homeomorphism lift satisfies the classical
displacement inequality  |lift^n(theta) - theta - n * rho| < 1  for every
theta and n, so the orbit average (lift^n(theta0) - theta0) / n carries the
rigorous error bar 1/n.  Rational locks are certified by sign changes of the
periodic displacement function, never by floating-point equality of rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import farey
from .errors import EmptyBin

LOCKED = "locked"
NOT_LOCKED = "not_locked"
IRRATIONAL_CANDIDATE = "irrational_candidate"
UNRESOLVED = "unresolved"

WITNESS_TOL = 1e-9
DEFAULT_N_ITER = 10_000
CLASSIFY_N_ITER = 4096


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


def lock_grid_size(q: int, base: int = 4096) -> int:
    """Theta-grid resolution policy: ``base`` for q <= 20, doubled per
    additional 10 in q."""
    return base * 2 ** max(0, math.ceil((q - 20) / 10))


def circle_dist(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _displacement(fam, t, theta0: float, n_iter: int) -> float:
    step = fam.step_factory(t)
    theta = np.asarray(theta0, dtype=float)
    for _ in range(n_iter):
        theta = step(theta)
    return (float(theta) - theta0) / n_iter


def displacement_batch(fam, ts, theta0: float = 0.0, n_iter: int = CLASSIFY_N_ITER):
    """Mean lift displacement per iterate for an array of parameters."""
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
    disp = _displacement(fam, t, theta0, n_iter)
    return RotationResult(
        estimate=disp % 1.0,
        error_bound=1.0 / n_iter,
        n_iter=n_iter,
        displacement=disp,
    )


def _lift_q_displacement(fam, t, q: int, p: int, thetas):
    out = np.asarray(thetas, dtype=float).copy()
    start = np.asarray(thetas, dtype=float)
    step = fam.step_factory(t)
    for _ in range(q):
        out = step(out)
    return out - start - p


def is_locked(fam, t, p: int, q: int, grid: int | None = None,
              witness_tol: float = WITNESS_TOL) -> LockCheck:
    """Test whether f_t has a q-periodic orbit with lift displacement p.

    Works on D(theta) = lift^q(theta) - theta - p over a dense grid:

    * a sign change (or |D| below ``witness_tol``) certifies a periodic
      point, hence rho = p/q exactly; the witness theta* is returned;
    * min D > margin or max D < -margin certifies no periodic point, where
      the margin covers the grid interpolation error;
    * anything else is unresolved, the honest outcome near window edges.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if math.gcd(abs(p), q) != 1:
        raise ValueError("p/q must be reduced")
    n = grid or lock_grid_size(q)
    thetas = np.arange(n) / n
    disp = _lift_q_displacement(fam, t, q, p, thetas)

    i_min = int(np.argmin(np.abs(disp)))
    if abs(disp[i_min]) <= witness_tol:
        return LockCheck(LOCKED, float(thetas[i_min] % 1.0))

    sign = np.sign(disp)
    flips = np.nonzero(sign != np.roll(sign, -1))[0]
    if flips.size:
        i = int(flips[0])
        lo, hi = thetas[i], thetas[i] + 1.0 / n
        f_lo = disp[i]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            f_mid = float(_lift_q_displacement(fam, t, q, p, mid))
            if abs(f_mid) <= witness_tol:
                return LockCheck(LOCKED, mid % 1.0)
            if (f_mid > 0) == (f_lo > 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return LockCheck(LOCKED, (0.5 * (lo + hi)) % 1.0)

    margin = (1.0 + fam.dtheta_lift_bound(t) ** q) / n
    if float(np.min(disp)) > margin or float(np.max(disp)) < -margin:
        return LockCheck(NOT_LOCKED, None)
    return LockCheck(UNRESOLVED, None)


def _candidates(displacement: float, error_bound: float, q_max: int):
    return farey.fractions_in_interval(
        displacement - error_bound, displacement + error_bound, q_max
    )


def _normalize_pq(p: int, q: int):
    return (p % q, q) if q > 1 else (0, 1)


def _decide(fam, t, disp: float, n_iter: int, q_max: int, grid) -> RotationResult:
    """Try every candidate p/q within the 1/n_iter error bar of the mean
    displacement ``disp``, cheapest denominator first."""
    err = 1.0 / n_iter
    unresolved = False
    for p, q in _candidates(disp, err, q_max):
        chk = is_locked(fam, t, p, q, grid=grid)
        if chk.status == LOCKED:
            pr, qr = _normalize_pq(p, q)
            return RotationResult(disp % 1.0, err, n_iter, LOCKED, pr, qr,
                                  chk.witness, disp)
        if chk.status == UNRESOLVED:
            unresolved = True
    cls = UNRESOLVED if unresolved else IRRATIONAL_CANDIDATE
    return RotationResult(disp % 1.0, err, n_iter, cls, displacement=disp)


def classify(fam, t, q_max: int = 30, n_iter: int = CLASSIFY_N_ITER,
             theta0: float = 0.0, grid: int | None = None) -> RotationResult:
    """Classify f_t as locked at some p/q (q <= q_max), irrational candidate,
    or unresolved.

    Candidate rationals are the reduced fractions within the rho error bar,
    enumerated by Stern-Brocot descent and tried cheapest denominator first.
    ``irrational_candidate`` means every candidate certified not-locked; it
    is deliberately weaker than conjugacy to an irrational rotation, which
    no finite computation can certify.
    """
    base = rho_estimate(fam, t, theta0=theta0, n_iter=n_iter)
    return _decide(fam, t, base.displacement, n_iter, q_max, grid)


def classify_batch(fam, ts, q_max: int = 30, n_iter: int = CLASSIFY_N_ITER,
                   theta0: float = 0.0, grid: int | None = None):
    """Classify many parameter values; the rho sweep is vectorized and the
    (rare) lock checks run per sample.  Returns a list of RotationResult."""
    ts = np.asarray(ts, dtype=float)
    disps = displacement_batch(fam, ts, theta0=theta0, n_iter=n_iter)
    return [_decide(fam, float(t), float(d), n_iter, q_max, grid) for t, d in zip(ts, disps)]


def equidistribution_test(fam, t, theta0: float = 0.0, n_iter: int = 100_000,
                          bins: int = 100) -> float:
    """Histogram the orbit of theta0 mod 1 and report the largest deviation
    of a bin's mass from uniform.

    Raises EmptyBin when some bin is never visited, which is the practical
    signal of a lock misclassification.  The raw-orbit discrepancy is only
    indicative: for a genuinely quasiperiodic map the invariant measure need
    not be Lebesgue, so the asserted property is full support, not
    equidistribution in the conjugated coordinate.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    step = fam.step_factory(t)
    theta = np.asarray(theta0, dtype=float)
    orbit = np.empty(n_iter)
    for i in range(n_iter):
        theta = step(theta)
        orbit[i] = theta
    counts, _ = np.histogram(orbit % 1.0, bins=bins, range=(0.0, 1.0))
    empty = np.nonzero(counts == 0)[0]
    if empty.size:
        raise EmptyBin(int(empty[0]))
    return float(np.max(np.abs(counts / n_iter - 1.0 / bins)))
