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

from .errors import DegenerateFamily

TAU = 2.0 * math.pi
EPS = 2.0 ** -52

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
        from numpy.polynomial import polynomial as P

        return TPoly(P.polyder(self.coeffs))

    def abs_bound(self) -> float:
        """Upper bound for sup_{t in [0,1]} |p(t)|."""
        return float(sum(abs(c) for c in self.coeffs))

    def scaled(self, s: float) -> "TPoly":
        return TPoly(tuple(s * c for c in self.coeffs))

    def __add__(self, other: "TPoly") -> "TPoly":
        from numpy.polynomial import polynomial as P

        # a sum beyond the float range ends in inf, quietly; callers check it
        with np.errstate(over="ignore", invalid="ignore"):
            return TPoly(P.polyadd(self.coeffs, other.coeffs))

    def plus_const(self, c: float) -> "TPoly":
        coeffs = list(self.coeffs)
        coeffs[0] += c
        return TPoly(coeffs)

    def compose_affine(self, offset: float, scale: float) -> "TPoly":
        """Coefficients of t -> p(offset + scale * t)."""
        from numpy.polynomial import polynomial as P

        out = np.zeros(1)
        for c in reversed(self.coeffs):
            out = P.polyadd(P.polymul(out, (offset, scale)), (c,))
        return TPoly(out)


TPOLY_ZERO = TPoly((0.0,))


def merge_terms(terms) -> list:
    """Sorted (key, a, b) with a and b as TPoly; the coefficients of terms
    that share a key are summed in their input order."""
    merged = {}
    for key, a, b in terms:
        a = a if isinstance(a, TPoly) else TPoly(a)
        b = b if isinstance(b, TPoly) else TPoly(b)
        if key in merged:
            a, b = merged[key][0] + a, merged[key][1] + b
        merged[key] = (a, b)
    return [(key,) + merged[key] for key in sorted(merged)]


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

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        return TrigPoly(self.const + other.const, self.harmonics + other.harmonics)


def _grid_for(max_j: int, grid: int) -> int:
    # at least a few samples per oscillation of the highest harmonic
    return max(int(grid), 8 * max_j + 8, 16)


@dataclass(frozen=True)
class FamilyNorm:
    """Norm data for a parameterized family: C3 norm of the periodic part and
    the C0 norm of its t-derivative.  ``c0_dt`` is a certified upper bound.
    Both kinds of ``c3_g`` come from ``StageStack.c3_sup``: from
    :func:`family_norm` it is certified in t by a t margin; from
    ``skew.restricted_norm`` the theta sup is certified at C3_T_GRID values
    of t, and the sup over t is a grid estimate.  ``StageStack.c3_bound``
    is the grid-free bound, certified for every t."""

    c3_g: float
    c0_dt: float

    @property
    def value(self) -> float:
        return max(self.c3_g, self.c0_dt)


def _stage_bound(const, harm, k: int, t=None, dt: bool = False):
    """Coefficient bound sum_j (2 pi j)^k (|a_j| + |b_j|), plus |c| at k = 0,
    dominating sup_y |d^k/dy^k| of one stage's periodic part, or of its t
    derivative with ``dt``: over t in [0, 1], or at the value or array
    ``t`` when one is given."""
    def size(p):
        if dt:
            p = p.deriv()
        return p.abs_bound() if t is None else abs(p(t))
    s = sum(((TAU * j) ** k * (size(a) + size(b)) for j, a, b in harm), 0.0)
    return s + size(const) if k == 0 else s


def _trig(harm, y):
    """cos and sin of 2 pi j y for each harmonic j of a stage."""
    out = []
    for j, _, _ in harm:
        x = (TAU * j) * y
        out.append((np.cos(x), np.sin(x)))
    return out


def _stage_derivs(const, harm, col, y, orders: int, trig=None):
    """The y-derivatives of orders 0 .. orders - 1 of one stage's periodic
    part at parameter rows ``col`` and points ``y``, with the float
    expressions of ``TrigPoly.deriv`` and ``TrigPoly.__call__`` on the
    ``at(t)`` snapshots.  ``trig`` is ``_trig(harm, y)`` when it is already
    known; cos and sin of each harmonic serve every order."""
    shape = np.broadcast_shapes(col.shape, y.shape)
    p = [np.zeros(shape) for _ in range(orders)]
    p[0] += const(col)
    for (j, a, b), (cos, sin) in zip(harm, trig if trig is not None else _trig(harm, y)):
        a, b = a(col), b(col)
        for pk in p:
            pk += a * cos + b * sin
            a, b = TAU * j * b, -TAU * j * a
    return p


def _c3_rows(stack, ys, col, first):
    """Sup over the y grid ``ys`` of |lift - y - winding t| and of |d1 - 1|,
    |d2| and |d3|, the composed y-derivatives, for each t of the column
    ``col``: a (4, len(col)) array.  ``first`` is ``_trig`` of the first
    stage on ``ys``, whose input does not depend on t.

    lift - y - winding t is accumulated as the sum of the stages' periodic
    parts, and the first stage's derivatives are taken as they are, so for
    one stage every row is that part's own.  A row does not depend on the
    others.
    """
    v = ys
    for i, (w, const, harm) in enumerate(stack):
        p = _stage_derivs(const, harm, col, v, 4, None if i else first)
        if i:
            l1 = 1.0 + p[1]
            d1, d2, d3 = (l1 * d1, l1 * d2 + p[2] * d1 ** 2,
                          l1 * d3 + 3.0 * p[2] * d1 * d2 + p[3] * d1 ** 3)
            dev = dev + p[0]
        else:
            dev, d1, d2, d3 = p[0], 1.0 + p[1], p[2], p[3]
        if i + 1 < len(stack):
            v = v + w * col + p[0]
    return np.array([np.max(np.abs(g), axis=1) for g in (dev, d1 - 1.0, d2, d3)])


def phase_step(data):
    """The array kernel: a closure applying the lift given by ``data`` (as
    ``StageStack.phase_data`` returns it) once to an array of thetas.
    Stage by stage, y -> y + drift + sum of R sin(w y + phi), the
    harmonics added in their order."""

    def step(theta):
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

    return step


def merge_phases(parts):
    """One ``phase_data`` for several stacks with the same number of stages:
    ``parts`` are (data, size) pairs, each data at ``size`` values of t,
    concatenated in order.  A stage with fewer harmonics than the most any
    part has there gets slots (0, 0, 0) after its own, so each element runs
    its own stack's float operations followed by exact additions of
    0 sin(0 y + 0) = 0 while y is finite.  One part is returned as it is."""
    if len(parts) == 1:
        return parts[0][0]

    def cat(values):
        return np.concatenate([np.broadcast_to(v, (n,)) for v, (_, n) in zip(values, parts)])

    merged = []
    for stages in zip(*(data for data, _ in parts)):
        slots = max(len(phased) for _, phased in stages)
        padded = [phased + [(0.0, 0.0, 0.0)] * (slots - len(phased)) for _, phased in stages]
        # per slot, the (w, phi, R) of every part, concatenated field by field
        merged.append((cat([drift for drift, _ in stages]),
                       [tuple(map(cat, zip(*slot))) for slot in zip(*padded)]))
    return merged


def take_phases(data, keep):
    """``data`` at the values of t selected by index or mask ``keep``: the
    same floats as ``phase_data`` at those values, since every entry is
    elementwise in t."""
    def take(v):
        return v[keep] if np.ndim(v) else v

    return [(take(drift), [tuple(map(take, h)) for h in phased]) for drift, phased in data]


class StageStack:
    """A parameterized lift composed of stages, applied in order:

        y -> y + w * t + c(t) + sum_j a_j(t) cos(2 pi j y) + b_j(t) sin(2 pi j y)

    Subclasses expose them as ``stack``, a tuple of (winding w, const TPoly
    c, harmonics (j, TPoly a_j, TPoly b_j)).  A :class:`CircleFamily` is one
    stage; a restricted skew-product map is one winding-1 stage per fiber
    along the periodic orbit.  Evaluation, bounds, the C3 grid and the
    diffeomorphism scan are written once, here, so both kinds share them.
    """

    degenerate = DegenerateFamily  # raised by check_diffeo

    # -- evaluation ---------------------------------------------------------

    def phase_data(self, t):
        """The lift at t in phase form, the data of :func:`phase_step`: per
        stage its drift w t + c(t) and, per harmonic a cos(2 pi j y) + b
        sin(2 pi j y), the triple (2 pi j, phi, R) of R sin(2 pi j y + phi),
        with R = hypot(a, b) and phi = atan2(a, b).  At a float t these are
        Python floats, at an array t arrays over t; every value is
        elementwise in t."""
        scalar = isinstance(t, float)
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
        return data

    def step_factory(self, t):
        """Return a closure applying the lift once at fixed t (t may be an
        array, in which case each component advances under its own
        parameter): :func:`phase_step` on ``phase_data(t)``.

        Each harmonic is evaluated in phase form R sin(w y + phi), with R
        and phi taken once at t: one transcendental per harmonic and step.
        Its rounding is counted in ``rotation.is_locked``.

        At a 0-d t the coefficients are kept as Python floats, and a 0-d
        theta (a float or a 0-d array) advances on them with ``math.sin``:
        the same float operations as the array path, a float out.  A sine
        of +-inf, where numpy's gives nan, makes that step return nan.
        """
        t = np.asarray(t, dtype=float)
        scalar = not t.ndim
        data = self.phase_data(float(t) if scalar else t)
        array_step = phase_step(data)
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
        return sum(_stage_bound(const, harm, 0) for _, const, harm in self.stack)

    def dtheta_lift_bound(self, t=None) -> float:
        """Bound for sup |d/dtheta lift|, the product of the stage ranges
        1 + sup |p_i'|; tighter when a single t is given."""
        out = 1.0
        for _, const, harm in self.stack:
            out *= 1.0 + float(_stage_bound(const, harm, 1, t))
        return out

    def iterate_d2_bound(self, t, q: int) -> float:
        """Bound for sup |d^2/dtheta^2 lift^q| at t: ``composed_deriv_bounds``
        of the stage bounds at t, the stack repeated q times, widened by
        4 q S (H + 7) eps for its own rounding and that of the lock margin
        formed from it (S stages, at most H harmonics each; see
        ``rotation.is_locked``); inf on overflow."""
        stages = [tuple(_stage_bound(c, harm, k, t) for k in range(1, 5))
                  for _, c, harm in self.stack]
        h = max(len(harm) for _, _, harm in self.stack)
        try:
            b2 = composed_deriv_bounds(stages * q)[1]
        except OverflowError:
            return math.inf
        return b2 * (1.0 + 4.0 * q * len(stages) * (h + 7) * EPS)

    def dt_sup_bound(self) -> float:
        """Bound for sup |d/dt lift - winding|.

        The t derivative w + d/dt p_i of stage i propagates through the
        later stages' y derivatives, so each stage's contribution is
        distorted by at most the product of their ranges; the last stage's
        is its own coefficient bound.
        """
        dev = 0.0
        for i, (w, const, harm) in enumerate(self.stack):
            dtp = _stage_bound(const, harm, 0, dt=True)
            ub, lb = w + dtp, w - dtp
            for _, c, later in self.stack[i + 1:]:
                s = _stage_bound(c, later, 1)
                ub *= 1.0 + s
                lb *= max(0.0, 1.0 - s)
            dev += max(ub - w, w - lb) if i + 1 < len(self.stack) else dtp
        return dev

    def c3_sup(self, t_grid: int, y_grid: int) -> float:
        """Max over ``t_grid`` values of t in [0, 1] of the C3(y) norm of
        lift - (y + winding t): the max over orders 0..3 of the sup over y.

        Each theta sup is certified: the maximum on a uniform grid of at
        least ``y_grid`` points (more for high harmonics), plus the grid
        spacing times the composed coefficient bound of the next
        derivative at that t.  Between the t values nothing is certified;
        ``family_norm`` adds a t margin.  The grid runs in blocks of about
        4096 (t, y) points.
        """
        max_j = max((j for _, _, harm in self.stack for j, _, _ in harm), default=0)
        y_grid = _grid_for(max_j, y_grid)
        ys = np.arange(y_grid) / y_grid
        ts = np.linspace(0.0, 1.0, t_grid)
        first = _trig(self.stack[0][2], ys)
        rows = max(1, 4096 // y_grid)
        sups = np.concatenate([_c3_rows(self.stack, ys, ts[i:i + rows, None], first)
                               for i in range(0, ts.size, rows)], axis=1)
        bounds = [[_stage_bound(const, harm, k, ts) + np.zeros(ts.size) for k in range(1, 5)]
                  for _, const, harm in self.stack]
        out = 0.0
        # per t: the bounds (s1, l2, l3, l4) of every stage, as Python floats
        for i, stages in enumerate(np.array(bounds).transpose(2, 0, 1).tolist()):
            margins = composed_deriv_bounds(stages)
            out = max(out, *(float(s) + m / y_grid for s, m in zip(sups[:, i], margins)))
        return out

    def c3_bound(self) -> float:
        """Certified upper bound, over every t in [0, 1] and every y, for the
        C3(y) norm of lift - (y + winding t): max(``g_sup_bound()``, e1, b2,
        b3), with (e1, b2, b3, _) = ``composed_deriv_bounds`` of the stage
        bounds over [0, 1], widened for its own rounding; inf on overflow.
        It is never below the exact sup, and above ``c3_sup`` where several
        harmonics or stages cannot peak together.

        Rounding.  Every term is formed from nonnegative floats by sums,
        products and powers, so the float result is at least the exact one
        times (1 - u)^M, u = eps / 2, where M counts the roundings along
        the longest chain, a product adding the chains of its factors.  A
        stage bound of order k <= 3 takes at most D + H + 10: D for the
        coefficient sum of a TPoly of degree D, one for the sum a + b, 2k
        for (2 pi j)^k (2 pi = TAU within u, TAU j rounded, pow good to 1
        ulp), two for the power itself, one for the product and H for the
        sum over H harmonics and the constant.  So 1 + s1, l2 and l3 take
        at most d = D + H + 11, and by induction over the S stages of
        ``composed_deriv_bounds`` (float powers counted twice) h1, h2 and
        h3 take at most S (d + 1), 2 S (d + 1) and 3 S (d + 1), and e1 and
        ``g_sup_bound`` less.  With M = 3 S (D + H + 12), the factor 1 + (M
        + 2) eps is exact, and its rounded product with the max is at least
        (1 - (M + 1) u) (1 + 2 (M + 2) u) >= 1 times the exact value.
        """
        stages = [tuple(_stage_bound(c, harm, k) for k in range(1, 5)) for _, c, harm in self.stack]
        try:
            terms = (self.g_sup_bound(),) + composed_deriv_bounds(stages)[:3]
        except OverflowError:
            return math.inf
        if not all(map(math.isfinite, terms)):  # an inf, or the nan of an inf times 0
            return math.inf
        degree = max(len(p.coeffs) - 1 for _, c, harm in self.stack
                     for p in [c] + [x for _, a, b in harm for x in (a, b)])
        h = max(len(harm) for _, _, harm in self.stack)
        m = 3 * len(stages) * (degree + h + 12)
        return max(terms) * (1.0 + (m + 2) * EPS)

    # -- validity -----------------------------------------------------------

    def check_diffeo(self):
        """Raise ``degenerate`` when 1 + d/dy p_i <= 0 is witnessed for a stage.

        A coefficient bound < 1 over [0, 1] certifies every stage outright.
        Otherwise, at each of DEFAULT_T_GRID values of t, every stage whose
        bound at t is not < 1 is scanned on its own uniform grid of at least
        DEFAULT_THETA_GRID points; the first failing t, and at it the first
        failing stage, is reported.
        """
        if all(_stage_bound(c, harm, 1) < 1.0 for _, c, harm in self.stack):
            return
        ts = np.linspace(0.0, 1.0, DEFAULT_T_GRID)
        scans = []
        for _, const, harm in self.stack:
            n = _grid_for(max((j for j, _, _ in harm), default=0), DEFAULT_THETA_GRID)
            xs = np.arange(n) / n
            certified = np.broadcast_to(_stage_bound(const, harm, 1, ts) < 1.0, ts.shape)
            scans.append((const, harm, xs, _trig(harm, xs), certified))
        for i, t in enumerate(ts):
            for stage, (const, harm, xs, trig, certified) in enumerate(scans):
                if certified[i]:
                    continue
                p1 = _stage_derivs(const, harm, ts[i:i + 1, None], xs, 2, trig)[1]
                if float(np.min(1.0 + p1)) <= 0.0:
                    raise self.degenerate(f"stage {stage + 1} is not a diffeomorphism"
                                          f" at t={float(t):.6g} of {self.label!r}")


@dataclass(frozen=True)
class CircleFamily(StageStack):
    """Parameterized circle diffeomorphism t -> theta + winding * t + g_t(theta).

    ``g_t`` is stored as a trig polynomial in theta whose constant term and
    harmonic coefficients are :class:`TPoly` polynomials in t.  ``winding``
    is a positive integer for ordinary families; t-renormalized families
    (see :meth:`renormalized`) may carry a non-integer winding.  As a
    :class:`StageStack` it is a single stage.  Entries with equal j are
    merged into one, their coefficients summed, as in the ``at(t)``
    snapshot.
    """

    winding: float = 1
    const: TPoly = TPOLY_ZERO
    harmonics: tuple = ()  # tuple of (j, TPoly a_j, TPoly b_j)
    label: str = ""

    def __post_init__(self):
        if any(int(j) <= 0 for j, _, _ in self.harmonics):
            raise ValueError("harmonic index must be a positive integer")
        harm = merge_terms((int(j), a, b) for j, a, b in self.harmonics)
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

    ``c3_g`` is ``StageStack.c3_sup`` on DEFAULT_T_GRID values of t and a
    theta grid of at least DEFAULT_THETA_GRID points, plus a Lipschitz-in-t
    margin from the coefficient bounds of dg/dt, so it is a certified upper
    bound.  Raises DegenerateFamily when the diffeomorphism condition fails
    on the scan grid; ``check=False`` skips that (used when measuring a raw
    family before rescaling it into range).
    """
    if check:
        f.check_diffeo()
    # |d/dt of any theta-derivative up to order 3| bound for the t margin
    dt_rate = max(_stage_bound(f.const, f.harmonics, k, dt=True) for k in range(4))
    c3 = f.c3_sup(DEFAULT_T_GRID, DEFAULT_THETA_GRID) + dt_rate / (DEFAULT_T_GRID - 1)
    return FamilyNorm(c3_g=c3, c0_dt=f.dt_sup_bound())


def composed_deriv_bounds(stage_bounds):
    """Certified bounds (e1, b2, b3, b4) for the first four y-derivatives of
    lift(y) - y, for a composition of stages y -> y + c_i + p_i(y), applied
    in order, from per-stage bounds (s1, l2, l3, l4) of sup |p_i^(k)|,
    k = 1..4: the chain rule to order four, with l1 = 1 + s1 bounding a
    stage's derivative.  e1 sums each stage's s1 times the bound h1 of the
    derivative of the stages before it; for one stage it is s1 exactly."""
    e1, h = 0.0, (1.0, 0.0, 0.0, 0.0)
    for s1, l2, l3, l4 in stage_bounds:
        l1 = 1.0 + s1
        h1, h2, h3, h4 = h
        e1 += s1 * h1
        h = (
            l1 * h1,
            l1 * h2 + l2 * h1 ** 2,
            l1 * h3 + 3.0 * l2 * h1 * h2 + l3 * h1 ** 3,
            l1 * h4 + l2 * (4.0 * h1 * h3 + 3.0 * h2 ** 2)
            + 6.0 * l3 * h1 ** 2 * h2 + l4 * h1 ** 4,
        )
    return (e1,) + h[1:]


@dataclass(frozen=True)
class ComposedCircleMap:
    """Composition of single-variable circle-map lifts y -> y + c_i + p_i(y).

    This is the fixed-parameter snapshot of a :class:`StageStack` (see
    ``at``); it is not itself a trig-polynomial lift, but every stage is.
    """

    stages: tuple  # tuple of (c_i, TrigPoly p_i)
