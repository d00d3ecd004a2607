"""Circle diffeomorphisms in lift form with trigonometric-polynomial periodic parts.

A parameterized family is represented as

    lift(t, theta) = theta + N * t + g_t(theta)

where ``g_t`` is a finite trigonometric polynomial in ``theta`` whose
coefficients are polynomials in ``t``.  This closed form gives exact
derivatives of every order, so sup norms (and the certified margins
attached to them) come from coefficient bounds instead of uncontrolled
finite differences.  Compositions of such lifts (the restricted maps of a
skew product) are stacks of the same stages; :class:`StageStack` holds
the evaluation and bounds both share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DegenerateFamily

TAU = 2.0 * math.pi

# Scan grids: theta points (a floor, raised for high harmonics) and t points.
DEFAULT_THETA_GRID = 4096
DEFAULT_T_GRID = 129


def _as_float_tuple(seq):
    return tuple(float(v) for v in seq)


@dataclass(frozen=True)
class TPoly:
    """Polynomial in the family parameter t, coefficients in ascending degree."""

    coeffs: tuple = (0.0,)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_float_tuple(self.coeffs) or (0.0,))

    def __call__(self, t):
        # numpy.polynomial.polynomial.polyval's own float operations, without
        # its array set-up: bit-identical, signed zeros and infinities included
        c = self.coeffs
        out = c[-1] + t * 0
        for i in range(2, len(c) + 1):
            out = c[-i] + out * t
        return out

    def deriv(self) -> "TPoly":
        if len(self.coeffs) == 1:
            return TPoly((0.0,))
        return TPoly(P.polyder(self.coeffs))

    def abs_bound(self) -> float:
        """Upper bound for sup_{t in [0,1]} |p(t)|."""
        return float(sum(abs(c) for c in self.coeffs))

    def scaled(self, s: float) -> "TPoly":
        return TPoly(tuple(s * c for c in self.coeffs))

    def __add__(self, other: "TPoly") -> "TPoly":
        return TPoly(P.polyadd(self.coeffs, other.coeffs))

    def plus_const(self, c: float) -> "TPoly":
        coeffs = list(self.coeffs)
        coeffs[0] += c
        return TPoly(coeffs)

    def compose_affine(self, offset: float, scale: float) -> "TPoly":
        """Coefficients of t -> p(offset + scale * t)."""
        out = np.zeros(1)
        for c in reversed(self.coeffs):
            out = P.polyadd(P.polymul(out, (offset, scale)), (c,))
        return TPoly(out)


TPOLY_ZERO = TPoly((0.0,))


@dataclass(frozen=True)
class TrigPoly:
    """Finite real trigonometric polynomial, 1-periodic by construction.

    p(x) = const + sum_j  a_j cos(2 pi j x) + b_j sin(2 pi j x)
    """

    const: float = 0.0
    harmonics: tuple = ()  # tuple of (j, a_j, b_j), j a positive integer

    def __post_init__(self):
        merged = {}
        for j, a, b in self.harmonics:
            j = int(j)
            if j <= 0:
                raise ValueError("harmonic index must be a positive integer")
            aj, bj = merged.get(j, (0.0, 0.0))
            merged[j] = (aj + float(a), bj + float(b))
        object.__setattr__(
            self,
            "harmonics",
            tuple((j,) + merged[j] for j in sorted(merged)),
        )
        object.__setattr__(self, "const", float(self.const))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, self.const)
        for j, a, b in self.harmonics:
            w = (TAU * j) * x
            out += a * np.cos(w) + b * np.sin(w)
        return out if out.ndim else float(out)

    def deriv(self, order: int = 1) -> "TrigPoly":
        """Exact derivative; differentiation maps (a, b) to (2 pi j b, -2 pi j a)."""
        if order < 0:
            raise ValueError("order must be >= 0")
        harm = list(self.harmonics)
        const = self.const
        for _ in range(order):
            harm = [(j, TAU * j * b, -TAU * j * a) for j, a, b in harm]
            const = 0.0
        return TrigPoly(const, tuple(harm))

    def deriv_bound(self, k: int) -> float:
        """Coefficient bound sum_j (2 pi j)^k (|a_j| + |b_j|), dominating sup|p^(k)|."""
        s = sum((TAU * j) ** k * (abs(a) + abs(b)) for j, a, b in self.harmonics)
        if k == 0:
            s += abs(self.const)
        return float(s)

    def max_harmonic(self) -> int:
        return self.harmonics[-1][0] if self.harmonics else 0

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        return TrigPoly(self.const + other.const, self.harmonics + other.harmonics)


def _grid_for(max_j: int, grid: int) -> int:
    # at least a few samples per oscillation of the highest harmonic
    return max(int(grid), 8 * max_j + 8, 16)


def c3_norm(p: TrigPoly, grid: int = DEFAULT_THETA_GRID) -> float:
    """C3 norm of a trigonometric polynomial: max over orders 0..3 of sup |p^(k)|.

    Each sup is a dense-grid maximum plus the margin grid_spacing *
    (coefficient bound of the next derivative), so the result is a
    certified upper bound of the true norm.
    """
    return _max_c3_norm((p,), grid)


def _max_c3_norm(polys, grid: int = DEFAULT_THETA_GRID) -> float:
    """Largest :func:`c3_norm` of ``polys``.  cos and sin of 2 pi j x are
    computed once per harmonic j and grid size, for every derivative order
    and polynomial."""
    tables = {}
    out = 0.0
    for p in polys:
        n = _grid_for(p.max_harmonic(), grid)
        xs = np.arange(n) / n
        for k in range(4):
            dk = p.deriv(k)
            vals = np.full(n, dk.const)
            for j, a, b in dk.harmonics:
                if (j, n) not in tables:
                    w = (TAU * j) * xs
                    tables[j, n] = (np.cos(w), np.sin(w))
                cos, sin = tables[j, n]
                vals += a * cos + b * sin
            out = max(out, float(np.max(np.abs(vals))) + p.deriv_bound(k + 1) / n)
    return out


@dataclass(frozen=True)
class FamilyNorm:
    """Norm data for a parameterized family: C3 norm of the periodic part and
    the C0 norm of its t-derivative.  ``c0_dt`` is a certified upper bound;
    so is ``c3_g`` from :func:`family_norm`, but ``skew.restricted_norm``
    certifies its theta sup only at 33 grid values of t."""

    c3_g: float
    c0_dt: float

    @property
    def value(self) -> float:
        return max(self.c3_g, self.c0_dt)


def _dy_bound(harmonics, t=None) -> float:
    """Coefficient bound for sup |d/dy| of one stage's periodic part: over
    t in [0, 1], or at a single t when one is given."""
    if t is None:
        return sum(TAU * j * (a.abs_bound() + b.abs_bound()) for j, a, b in harmonics)
    return sum(
        TAU * j * (abs(float(a(t))) + abs(float(b(t)))) for j, a, b in harmonics
    )


class StageStack:
    """A parameterized lift composed of stages, applied in order:

        y -> y + w * t + c(t) + sum_j a_j(t) cos(2 pi j y) + b_j(t) sin(2 pi j y)

    Subclasses expose them as ``stack``, a tuple of (winding w, const TPoly
    c, harmonics (j, TPoly a_j, TPoly b_j)).  A :class:`CircleFamily` is one
    stage; a restricted skew-product map is one winding-1 stage per fiber
    along the periodic orbit.  Evaluation, bounds and the diffeomorphism
    scan are written once, here, so both kinds share them.
    """

    degenerate = DegenerateFamily  # raised by check_diffeo

    # -- evaluation ---------------------------------------------------------

    def step_factory(self, t):
        """Return a closure applying the lift once at fixed t (t may be an
        array, in which case each component advances under its own
        parameter).

        Each harmonic a cos(w y) + b sin(w y) is evaluated in phase form
        R sin(w y + phi), with R = hypot(a, b) and phi = atan2(a, b) taken
        once at t: one transcendental per harmonic and step.  Its rounding
        is counted in ``rotation.is_locked``.

        At a 0-d t the coefficients are kept as Python floats, and a 0-d
        theta (a float or a 0-d array) advances on them with ``math.sin``:
        the same float operations as the array path, a float out.  A sine
        of +-inf, where numpy's gives nan, makes that step return nan.
        """
        t = np.asarray(t, dtype=float)
        scalar = not t.ndim
        if scalar:
            t = float(t)
        data = []
        for w, const, harm in self.stack:
            phased = []
            for j, a, b in harm:
                at, bt = a(t), b(t)
                phi, r = np.arctan2(at, bt), np.hypot(at, bt)
                if scalar:
                    phi, r = float(phi), float(r)
                phased.append((TAU * j, phi, r))
            data.append((w * t + const(t), phased))

        def array_step(theta):
            y, s = theta, None
            for drift, phased in data:
                acc = y + drift
                if s is None:
                    s = np.empty_like(acc)
                for w, phi, r in phased:
                    np.multiply(w, y, out=s)
                    s += phi
                    np.sin(s, out=s)
                    s *= r
                    acc += s
                y = acc
            return y

        if not scalar:
            return array_step

        def step(theta):
            if getattr(theta, "ndim", 0):
                return array_step(theta)
            y = float(theta)
            try:
                for drift, phased in data:
                    acc = y + drift
                    for w, phi, r in phased:
                        acc += r * math.sin(w * y + phi)
                    y = acc
            except ValueError:  # math.sin(+-inf)
                return math.nan
            return y

        return step

    def lift(self, t, theta):
        """Lift value at (t, theta); t and theta broadcast, no reduction mod 1."""
        out = self.step_factory(t)(np.asarray(theta, dtype=float))
        return out if np.ndim(out) else float(out)

    def at(self, t: float) -> "ComposedCircleMap":
        """Fixed-parameter snapshot as an explicit stage composition."""
        return ComposedCircleMap(tuple(
            (w * float(t), TrigPoly(const(t), tuple((j, a(t), b(t)) for j, a, b in harm)))
            for w, const, harm in self.stack
        ))

    # -- certified bounds ---------------------------------------------------

    def g_sup_bound(self) -> float:
        """Bound for sup_{t, theta} |lift - theta - winding * t| from
        coefficient sums."""
        return sum(
            const.abs_bound() + sum(a.abs_bound() + b.abs_bound() for _, a, b in harm)
            for _, const, harm in self.stack
        )

    def dtheta_lift_bound(self, t=None) -> float:
        """Bound for sup |d/dtheta lift|, the product of the stage ranges
        1 + sup |p_i'|; tighter when a single t is given."""
        out = 1.0
        for _, _, harm in self.stack:
            out *= 1.0 + _dy_bound(harm, t)
        return out

    def dt_sup_bound(self) -> float:
        """Bound for sup |d/dt lift - winding|.

        The t derivative w + d/dt p_i of stage i propagates through the
        later stages' y derivatives, so each stage's contribution is
        distorted by at most the product of their ranges; the last stage's
        is its own coefficient bound.
        """
        dev = 0.0
        for i, (w, const, harm) in enumerate(self.stack):
            dtp = const.deriv().abs_bound() + sum(
                a.deriv().abs_bound() + b.deriv().abs_bound() for _, a, b in harm
            )
            ub, lb = w + dtp, w - dtp
            for _, _, later in self.stack[i + 1:]:
                s = _dy_bound(later)
                ub *= 1.0 + s
                lb *= max(0.0, 1.0 - s)
            dev += max(ub - w, w - lb) if i + 1 < len(self.stack) else dtp
        return dev

    # -- validity -----------------------------------------------------------

    def check_diffeo(self):
        """Raise ``degenerate`` when 1 + d/dy p_i <= 0 is witnessed for a stage.

        A coefficient bound < 1 certifies every stage outright; otherwise
        the snapshot at each of DEFAULT_T_GRID values of t is scanned on a
        dense theta grid (:meth:`ComposedCircleMap.check_diffeo`).
        """
        if all(_dy_bound(harm) < 1.0 for _, _, harm in self.stack):
            return
        for t in np.linspace(0.0, 1.0, DEFAULT_T_GRID):
            self.at(float(t)).check_diffeo(
                self.degenerate, f" at t={float(t):.6g} of {self.label!r}"
            )


@dataclass(frozen=True)
class CircleFamily(StageStack):
    """Parameterized circle diffeomorphism t -> theta + winding * t + g_t(theta).

    ``g_t`` is stored as a trig polynomial in theta whose constant term and
    harmonic coefficients are :class:`TPoly` polynomials in t.  ``winding``
    is a positive integer for ordinary families; t-renormalized families
    (see :meth:`renormalized`) may carry a non-integer winding.  As a
    :class:`StageStack` it is a single stage.
    """

    winding: float = 1
    const: TPoly = TPOLY_ZERO
    harmonics: tuple = ()  # tuple of (j, TPoly a_j, TPoly b_j)
    label: str = ""

    def __post_init__(self):
        harm = []
        for j, a, b in self.harmonics:
            j = int(j)
            if j <= 0:
                raise ValueError("harmonic index must be a positive integer")
            a = a if isinstance(a, TPoly) else TPoly(a)
            b = b if isinstance(b, TPoly) else TPoly(b)
            harm.append((j, a, b))
        harm.sort(key=lambda h: h[0])
        object.__setattr__(self, "harmonics", tuple(harm))
        const = self.const if isinstance(self.const, TPoly) else TPoly(self.const)
        object.__setattr__(self, "const", const)

    @property
    def stack(self) -> tuple:
        return ((self.winding, self.const, self.harmonics),)

    # -- derived families ---------------------------------------------------

    def scaled(self, s: float) -> "CircleFamily":
        """Same winding, periodic part multiplied by s."""
        return CircleFamily(
            self.winding,
            self.const.scaled(s),
            tuple((j, a.scaled(s), b.scaled(s)) for j, a, b in self.harmonics),
            label=f"{self.label}*{s:g}" if self.label else f"scaled*{s:g}",
        )

    def renormalized(self, a: float, b: float) -> "CircleFamily":
        """Family with t rescaled affinely over [a, b]: t -> a + (b - a) t.

        The winding becomes winding * (b - a) and the constant displacement
        winding * a is absorbed into the periodic part's constant term.
        """
        s = b - a
        if s <= 0:
            raise ValueError("renormalization interval must have positive length")
        return CircleFamily(
            self.winding * s,
            self.const.compose_affine(a, s).plus_const(self.winding * a),
            tuple(
                (j, ca.compose_affine(a, s), cb.compose_affine(a, s))
                for j, ca, cb in self.harmonics
            ),
            label=f"{self.label}|[{a:g},{b:g}]",
        )


def family_norm(f: CircleFamily, check: bool = True) -> FamilyNorm:
    """Norm of a family: sup_t of the C3 norm of g_t, and sup |dg/dt|.

    The t sweep uses a grid of DEFAULT_T_GRID points with a Lipschitz-in-t
    margin, so ``c3_g`` is a certified upper bound.  Raises DegenerateFamily
    when the diffeomorphism condition fails on the scan grid; ``check=False``
    skips that (used when measuring a raw family before rescaling it into
    range).
    """
    if check:
        f.check_diffeo()
    ts = np.linspace(0.0, 1.0, DEFAULT_T_GRID)
    c3 = _max_c3_norm([p for t in ts for _, p in f.at(float(t)).stages])
    # |d/dt of any theta-derivative up to order 3| bound for the t margin
    dt_rate = 0.0
    for k in range(4):
        s = sum(
            (TAU * j) ** k * (a.deriv().abs_bound() + b.deriv().abs_bound())
            for j, a, b in f.harmonics
        )
        if k == 0:
            s += f.const.deriv().abs_bound()
        dt_rate = max(dt_rate, s)
    c3 += dt_rate / (DEFAULT_T_GRID - 1)
    return FamilyNorm(c3_g=c3, c0_dt=f.dt_sup_bound())


def composed_deriv_bounds(stage_bounds):
    """Certified bounds (b1, b2, b3, b4) for the first four derivatives of
    a composition of stages y -> y + c_i + p_i(y), applied in order, from
    per-stage bounds (s1, l2, l3, l4) of sup |p_i^(k)|, k = 1..4: the
    chain rule to order four, with l1 = 1 + s1 bounding a stage's
    derivative."""
    h = (1.0, 0.0, 0.0, 0.0)
    for s1, l2, l3, l4 in stage_bounds:
        l1 = 1.0 + s1
        h1, h2, h3, h4 = h
        h = (
            l1 * h1,
            l1 * h2 + l2 * h1 ** 2,
            l1 * h3 + 3.0 * l2 * h1 * h2 + l3 * h1 ** 3,
            l1 * h4 + l2 * (4.0 * h1 * h3 + 3.0 * h2 ** 2)
            + 6.0 * l3 * h1 ** 2 * h2 + l4 * h1 ** 4,
        )
    return h


@dataclass(frozen=True)
class ComposedCircleMap:
    """Composition of single-variable circle-map lifts y -> y + c_i + p_i(y).

    This is the fixed-parameter snapshot of a :class:`StageStack` (see
    ``at``); it is not itself a trig-polynomial lift, but every stage is.
    """

    stages: tuple  # tuple of (c_i, TrigPoly p_i)

    def theta_deriv_bounds(self):
        """Certified bounds (b1, b2, b3, b4) for the composed derivatives."""
        return composed_deriv_bounds(
            [p.deriv_bound(k) for k in range(1, 5)] for _, p in self.stages)

    def check_diffeo(self, error=DegenerateFamily, where: str = ""):
        """Raise ``error`` when 1 + p_i' <= 0 on a dense theta grid for some
        stage; a stage whose coefficient bound is < 1 is certified outright.

        This is the one diffeomorphism scan: parameterized stacks run it on
        the snapshot at each point of their t grid.
        """
        for i, (_, p) in enumerate(self.stages):
            if p.deriv_bound(1) < 1.0:
                continue
            grid = _grid_for(p.max_harmonic(), DEFAULT_THETA_GRID)
            xs = np.arange(grid) / grid
            if float(np.min(1.0 + p.deriv(1)(xs))) <= 0.0:
                raise error(f"stage {i + 1} is not a diffeomorphism{where}")
