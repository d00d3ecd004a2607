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
from .circle_map import TAU, FamilyNorm, StageStack, TPoly, merge_terms
from .errors import DegenerateFiber

# C3 sup of a restricted map: t values with a certified theta sup, y-grid floor
C3_T_GRID = 33
C3_Y_GRID = 1024
# Largest m^nmax - 1 for which the skew subcommand checks every circle of
# period <= nmax.  There are fewer than 2 (m^nmax - 1) + 1 of them.
# Restricting and C3-checking one costs about 0.16 ms per period where the
# coefficient bound settles R, and 3.4 to 5.7 ms per period where the grid
# runs (CPU time, m = 2, nmax = 8, 3,347 periods, numpy 2.4.6, 2-core VM).
# At this cap, m = 2 and nmax = 12 give 8,031 circles with 88,529 periods:
# some 15 s when the bound settles every circle, up to 8 minutes when none.
MAX_CIRCLES = 2 ** 12


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
        harm = merge_terms(((int(jx), int(jy)), a, b) for jx, jy, a, b in self.harmonics)
        object.__setattr__(self, "harmonics", tuple((jx, jy, a, b) for (jx, jy), a, b in harm))

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
        terms = []
        for jx, jy, a, b in self.harmonics:
            phase = float(Fraction(jx) * x % 1)
            c, s = math.cos(TAU * phase), math.sin(TAU * phase)
            ay = a.scaled(c) + b.scaled(s)
            by = (b.scaled(c) + a.scaled(-s)).scaled(1.0 if jy >= 0 else -1.0)
            if jy == 0:
                const = const + ay
            else:
                terms.append((abs(jy), ay, by))
        return const, tuple(merge_terms(terms))


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
    if m < 2:
        raise ValueError(f"base m must be an integer >= 2, got {m}")
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
    rf = RestrictedFamily(circle, tuple(stages), label=label)
    rf.check_diffeo()
    return rf


def a3_check(rf: RestrictedFamily, R: float) -> tuple:
    """Compare the C3(y) norm of lift - (theta + n t), over t in [0, 1],
    against the closeness-to-identity threshold R.  Returns (sup_c3,
    passes).

    When ``StageStack.c3_bound``, certified for every t and y, is below R,
    it is sup_c3 and the circle passes: no grid runs.  Otherwise sup_c3 is
    ``StageStack.c3_sup`` on C3_T_GRID values of t and a y grid of at least
    C3_Y_GRID points, where the theta sup at each of those t is certified
    and the sup over t is a grid estimate, and passes = sup_c3 < R.
    """
    if not 0.0 < R < 1.0:
        raise ValueError("R must lie in (0, 1)")
    bound = rf.c3_bound()
    if bound < R:
        return bound, True
    sup = rf.c3_sup(C3_T_GRID, C3_Y_GRID)
    return sup, sup < R


def restricted_norm(rf: RestrictedFamily) -> FamilyNorm:
    """Family norm of a restricted map: the grid C3(y) size of the periodic
    part, ``c3_sup`` on the C3_T_GRID x C3_Y_GRID grid of ``a3_check``'s
    fallback and without a t margin (a grid estimate in t), and the
    t-derivative deviation bound.  ``c3_bound`` gives the certified one."""
    return FamilyNorm(c3_g=rf.c3_sup(C3_T_GRID, C3_Y_GRID), c0_dt=rf.dt_sup_bound())


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
    that period in (n, k) order; its t-winding number is the period.

    That circle is x0 = 0 for n = 1 and x0 = 1 / (m^n - 1) for n >= 2: for
    0 < d < n, m^d x0 = m^d / (m^n - 1) lies in (x0, 1), so n is its minimal
    period, and k = 0 at level n is the period-1 circle.  No other circle is
    built.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    circles = [PeriodicCircle(0, 1, Fraction(0))]
    circles += [PeriodicCircle(1, n, Fraction(1, F.m ** n - 1)) for n in range(2, n_max + 1)]
    return [restricted_family(F, c) for c in circles]


def circle_checks(F: SkewMap, n_max: int, R: float) -> list:
    """(circle, family, sup_c3, passes, decided_by) for every circle with
    period <= n_max, in deterministic (n, k) order: ``a3_check`` at
    threshold R of each restricted family, which ``decided_by`` names:
    "bound" where sup_c3 is the certified ``c3_bound``, "grid" where it is
    the grid estimate.  Degenerate fibers propagate."""
    out = []
    for circle in periodic_circles(F.m, n_max):
        rf = restricted_family(F, circle)
        sup, ok = a3_check(rf, R)
        # a grid sup that passes lies below R, so below the bound
        out.append((circle, rf, sup, ok, "bound" if ok and sup == rf.c3_bound() else "grid"))
    return out


def eligible_restrictions(F: SkewMap, n_max: int, R: float) -> list:
    """The (circle, family, sup_c3) triples of ``circle_checks`` that pass
    the C3-closeness filter."""
    return [(c, rf, sup) for c, rf, sup, ok, _ in circle_checks(F, n_max, R) if ok]


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
