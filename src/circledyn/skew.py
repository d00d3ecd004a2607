"""Torus skew products (x, y) -> (m x, y + t + g_t(x, y)) and the circle maps
obtained by restricting iterates to periodic vertical circles.

The x coordinate of a periodic circle is the exact rational k / (m^n - 1),
kept in rational arithmetic so fiber orbits never drift: a floating-point x
orbit of the expanding base map would leave the circle after ~50 steps and
silently change the composed map.  The y dynamics stays in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rotation
from .circle_map import TAU, FamilyNorm, StageStack, TPoly, _grid_for
from .errors import DegenerateFiber

# C3 sup of a restricted map: t values with a certified theta sup, y-grid floor
C3_T_GRID = 33
C3_Y_GRID = 1024


@dataclass(frozen=True)
class SkewMap:
    """Skew product with integer expanding base m and periodic part g_t(x, y).

    g is a trigonometric polynomial on the torus with t-polynomial
    coefficients: terms a(t) cos(2 pi (jx x + jy y)) + b(t) sin(...).
    The pair jx = jy = 0 contributes a plain constant.
    """

    m: int
    harmonics: tuple = ()  # tuple of (jx, jy, TPoly a, TPoly b)
    label: str = ""

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("base m must be an integer >= 2")
        merged = {}
        for jx, jy, a, b in self.harmonics:
            jx, jy = int(jx), int(jy)
            a = a if isinstance(a, TPoly) else TPoly(a)
            b = b if isinstance(b, TPoly) else TPoly(b)
            if (jx, jy) in merged:
                pa, pb = merged[(jx, jy)]
                merged[(jx, jy)] = (pa + a, pb + b)
            else:
                merged[(jx, jy)] = (a, b)
        object.__setattr__(
            self,
            "harmonics",
            tuple((jx, jy) + merged[(jx, jy)] for jx, jy in sorted(merged)),
        )

    def g(self, t, x, y):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast_shapes(t.shape, x.shape, y.shape))
        for jx, jy, a, b in self.harmonics:
            w = TAU * (jx * x + jy * y)
            out = out + a(t) * np.cos(w) + b(t) * np.sin(w)
        return out if out.ndim else float(out)

    def fiber_stage(self, x: Fraction):
        """Periodic part of the fiber map over the vertical circle at x,
        as (const TPoly, harmonics in y with TPoly coefficients).

        Folding the x phase: with phi = 2 pi jx x,
        a cos(phi + 2 pi jy y) + b sin(phi + 2 pi jy y)
          = (a cos phi + b sin phi) cos(2 pi |jy| y)
            + sgn(jy) (b cos phi - a sin phi) sin(2 pi |jy| y).
        """
        const = TPoly((0.0,))
        merged = {}
        for jx, jy, a, b in self.harmonics:
            phase = float(Fraction(jx) * x % 1)
            c, s = math.cos(TAU * phase), math.sin(TAU * phase)
            ay = a.scaled(c) + b.scaled(s)
            by = (b.scaled(c) + a.scaled(-s)).scaled(1.0 if jy >= 0 else -1.0)
            if jy == 0:
                const = const + ay
                continue
            key = abs(jy)
            if key in merged:
                pa, pb = merged[key]
                merged[key] = (pa + ay, pb + by)
            else:
                merged[key] = (ay, by)
        return const, tuple((j,) + merged[j] for j in sorted(merged))


def skew_apply(F: SkewMap, t, xy):
    """One application of the torus map: (m x mod 1, y + t + g mod 1).

    A Fraction x stays exact; floats are reduced in floating point.
    """
    x, y = xy
    return (F.m * x) % 1, (y + t + F.g(t, float(x), y)) % 1.0


@dataclass(frozen=True)
class PeriodicCircle:
    """Vertical circle over x0 = k / (m^n - 1), invariant under the n-th
    iterate of the base map; n is the minimal period."""

    k: int
    n: int
    x0: Fraction

    def __str__(self):
        return f"S({self.x0}, n={self.n})"


def periodic_circles(m: int, n_max: int) -> list:
    """All periodic circles of the base map x -> m x with period <= n_max.

    Values reachable at several levels are deduplicated, keeping the minimal
    period (the first level at which a rational appears is its exact period).
    Ordered by (n ascending, k ascending).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    seen = {}
    out = []
    for n in range(1, n_max + 1):
        den = m ** n - 1
        for k in range(den):
            x0 = Fraction(k, den)
            if x0 not in seen:
                seen[x0] = True
                out.append(PeriodicCircle(k, n, x0))
    if not out:  # m**1 - 1 == 0 cannot happen for m >= 2, but keep the origin
        out.append(PeriodicCircle(0, 1, Fraction(0)))
    return out


@dataclass(frozen=True)
class RestrictedFamily(StageStack):
    """The circle-map family obtained by restricting the n-th iterate of a
    skew map to a periodic circle:

        lift(t, theta) = theta + n * t + G_t(theta)

    where G_t accumulates the fiber periodic parts along the exact x orbit.
    As a :class:`StageStack` it is n winding-1 stages, one per fiber, so the
    t-winding number equals the circle period n.
    """

    skew: SkewMap
    circle: PeriodicCircle
    stages: tuple  # tuple of (const TPoly, harmonics (j, TPoly, TPoly)) per fiber
    label: str = ""

    degenerate = DegenerateFiber

    @property
    def winding(self) -> int:
        return self.circle.n

    @property
    def stack(self) -> tuple:
        return tuple((1, const, harm) for const, harm in self.stages)


def restricted_family(F: SkewMap, circle: PeriodicCircle) -> RestrictedFamily:
    """Compose the fiber maps along the exact x orbit of a periodic circle.

    Raises DegenerateFiber when a stage demonstrably violates
    1 + d/dy g_t > 0.
    """
    if (F.m ** circle.n * circle.x0 - circle.x0) % 1 != 0:
        raise ValueError(f"{circle} is not periodic for base m={F.m}")
    stages = []
    x = circle.x0
    for _ in range(circle.n):
        stages.append(F.fiber_stage(x))
        x = (F.m * x) % 1
    label = f"{F.label}|{circle.x0}" if F.label else f"restriction@{circle.x0}"
    rf = RestrictedFamily(F, circle, tuple(stages), label=label)
    rf.check_diffeo()
    return rf


def _c3_rows(rf: RestrictedFamily, ys, ts):
    """Sup over the y grid ``ys`` of |lift - y - n t| and of |d1 - 1|, |d2|
    and |d3|, the composed y-derivatives, for each t in ``ts``: a (4,
    len(ts)) array.

    Every t is a row of one (t, y) grid, evaluated with the float
    expressions of ``TrigPoly.deriv`` and of the chain rule of the
    ``at(t)`` snapshots, so a row does not depend on the others; cos and
    sin of each stage harmonic are taken once for the four orders.
    """
    col = ts[:, None]
    v = np.repeat(ys[None, :], ts.size, axis=0)
    d1, d2, d3 = np.ones_like(v), np.zeros_like(v), np.zeros_like(v)
    for w, const, harm in rf.stack:
        # p_k: the k-th y-derivative of the stage's periodic part
        p = [np.zeros_like(v) for _ in range(4)]
        p[0] += const(col)
        for j, a, b in harm:
            a, b = a(col), b(col)
            x = (TAU * j) * v
            cos, sin = np.cos(x), np.sin(x)
            for pk in p:
                pk += a * cos + b * sin
                a, b = TAU * j * b, -TAU * j * a
        l1 = 1.0 + p[1]
        d1, d2, d3 = (l1 * d1, l1 * d2 + p[2] * d1 ** 2,
                      l1 * d3 + 3.0 * p[2] * d1 * d2 + p[3] * d1 ** 3)
        v = v + w * col + p[0]
    return np.array([np.max(np.abs(g), axis=1)
                     for g in (v - ys - rf.winding * col, d1 - 1.0, d2, d3)])


def _c3_sup(rf: RestrictedFamily, y_grid: int) -> float:
    """Sup over C3_T_GRID values of t of the C3(y) norm of lift - (theta + n t).

    Per parameter value the theta sup is certified: exact chain-rule
    derivatives on a dense grid, each plus a Lipschitz margin from the
    composed derivative bounds.  Between those t values nothing is
    certified: the sup over t is a grid estimate.  The grid sups come from
    :func:`_c3_rows`, in blocks of about 4096 grid points.
    """
    max_j = max((j for _, harm in rf.stages for j, _, _ in harm), default=0)
    y_grid = _grid_for(max_j, y_grid)
    ys = np.arange(y_grid) / y_grid
    ts = np.linspace(0.0, 1.0, C3_T_GRID)
    rows = max(1, 4096 // y_grid)
    sups = np.concatenate([_c3_rows(rf, ys, ts[i:i + rows]) for i in range(0, ts.size, rows)],
                          axis=1)
    out = 0.0
    for i, t in enumerate(ts):
        snap = rf.at(float(t))
        b1, b2, b3, b4 = snap.theta_deriv_bounds()
        lb1 = 1.0
        for _, stage in snap.stages:
            lb1 *= max(0.0, 1.0 - stage.deriv_bound(1))
        margins = (max(b1 - 1.0, 1.0 - lb1), b2, b3, b4)
        out = max(out, *(float(s) + m / y_grid for s, m in zip(sups[:, i], margins)))
    return out


def a3_check(rf: RestrictedFamily, R: float, y_grid: int = C3_Y_GRID) -> tuple:
    """Estimate sup_t of the C3(y) norm of lift - (theta + n t) and compare
    against the closeness-to-identity threshold R.

    The theta sup at each parameter value is certified (see ``_c3_sup``);
    the sup over t is a grid estimate.  Returns (sup_c3, passes) with
    passes = sup_c3 < R.
    """
    if not 0.0 < R < 1.0:
        raise ValueError("R must lie in (0, 1)")
    sup = _c3_sup(rf, y_grid)
    return sup, sup < R


def restricted_norm(rf: RestrictedFamily) -> FamilyNorm:
    """Family norm of a restricted map: the C3(y) size of the periodic part
    that ``a3_check`` compares against R (a grid estimate in t), and the
    t-derivative deviation bound."""
    return FamilyNorm(c3_g=_c3_sup(rf, C3_Y_GRID), c0_dt=rf.dt_sup_bound())


def winding_check(rf: RestrictedFamily) -> float:
    """Mean over a 64 x 64 (t, theta) grid of (d/dt lift) / n, by central
    differences with step 1e-6.

    For families within C3 distance R of rotations the result stays within
    R of 1; this is the observable form of "the t-winding number is n".
    """
    dt = 1e-6
    grid = (np.arange(64) + 0.5) / 64
    tt, xx = np.meshgrid(grid, grid, indexing="ij")
    hi = rf.lift(tt + dt, xx)
    lo = rf.lift(tt - dt, xx)
    return float(np.mean((hi - lo) / (2.0 * dt))) / rf.winding


def first_per_period(F: SkewMap, n_max: int) -> list:
    """One restricted family per period 1..n_max, over the first circle of
    that period in (n, k) order; its t-winding number is the period."""
    out = {}
    for circle in periodic_circles(F.m, n_max):
        if circle.n not in out:
            out[circle.n] = restricted_family(F, circle)
    return list(out.values())


def circle_checks(F: SkewMap, n_max: int, R: float) -> list:
    """(circle, family, sup_c3, passes) for every circle with period
    <= n_max, in deterministic (n, k) order: ``a3_check`` at threshold R
    of each restricted family.  Degenerate fibers propagate."""
    out = []
    for circle in periodic_circles(F.m, n_max):
        rf = restricted_family(F, circle)
        out.append((circle, rf) + a3_check(rf, R))
    return out


def eligible_restrictions(F: SkewMap, n_max: int, R: float) -> list:
    """The (circle, family, sup_c3) triples of ``circle_checks`` that pass
    the C3-closeness filter."""
    return [(c, rf, sup) for c, rf, sup, ok in circle_checks(F, n_max, R) if ok]


def quasi_search(F: SkewMap, t: float, n_max: int, q_max: int, R: float,
                 n_iter: int = rotation.CLASSIFY_N_ITER,
                 candidates: list | None = None):
    """First periodic circle whose restricted map at parameter t classifies
    as an irrational candidate, or None when the search bounds exhaust.

    Circles are tried in (n, k) order after filtering by the C3-closeness
    check, so cheap maps are classified first and the result is
    deterministic.  ``candidates`` can carry precomputed
    ``eligible_restrictions`` output across many t values.
    """
    if candidates is None:
        candidates = eligible_restrictions(F, n_max, R)
    for circle, rf, _ in candidates:
        res = rotation.classify(rf, t, q_max=q_max, n_iter=n_iter)
        if res.classification == rotation.IRRATIONAL_CANDIDATE:
            return circle, res
    return None
