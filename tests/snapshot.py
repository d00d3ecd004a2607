"""The fixed-t snapshot oracle: a :class:`circledyn.circle_map.StageStack`
at one value of t, written out as an explicit composition of
trigonometric-polynomial lifts with float coefficients.

``snapshot(stack, t)`` evaluates every coefficient at t; the tests compare
the package's array paths (``StageStack.c3_sup``, ``family_norm``,
``check_diffeo``) with the chain rule on these snapshots, bit for bit
where they say so, so the float expressions here must not change.
"""

import math
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * math.pi


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


@dataclass(frozen=True)
class ComposedCircleMap:
    """Composition of single-variable circle-map lifts y -> y + c_i + p_i(y),
    applied in order; not itself a trig-polynomial lift, but every stage is."""

    stages: tuple  # tuple of (c_i, TrigPoly p_i)


def snapshot(stack, t: float) -> ComposedCircleMap:
    """The stage stack ``stack`` at parameter t, one stage per entry of
    ``stack.stack``: c_i = w_i t and p_i the periodic part at t."""
    return ComposedCircleMap(tuple(
        (w * float(t), TrigPoly(const(t), tuple((j, a(t), b(t)) for j, a, b in harm)))
        for w, const, harm in stack.stack
    ))


def deriv_tuple(cm, y):
    """(value, d1, d2, d3) of the composed lift of the snapshot ``cm`` at y,
    by exact chain rule."""
    y = np.asarray(y, dtype=float)
    v = y.copy()
    d1 = np.ones_like(v)
    d2 = np.zeros_like(v)
    d3 = np.zeros_like(v)
    for c, p in cm.stages:
        l1 = 1.0 + p.deriv(1)(v)
        l2 = p.deriv(2)(v)
        l3 = p.deriv(3)(v)
        nd1 = l1 * d1
        nd2 = l1 * d2 + l2 * d1 ** 2
        nd3 = l1 * d3 + 3.0 * l2 * d1 * d2 + l3 * d1 ** 3
        v = v + c + p(v)
        d1, d2, d3 = nd1, nd2, nd3
    return v, d1, d2, d3


def central_derivatives(snap, y, h=1e-7, dps=40):
    """Oracle: central finite differences of the composed lift, evaluated in
    high-precision arithmetic so the e/h^k cancellation noise of float64
    cannot mask the truncation order."""
    import mpmath

    with mpmath.workdps(dps):
        tau = 2 * mpmath.pi
        data = [
            (mpmath.mpf(c), mpmath.mpf(p.const),
             [(j, mpmath.mpf(a), mpmath.mpf(b)) for j, a, b in p.harmonics])
            for c, p in snap.stages
        ]

        def f(z):
            for c, const, harm in data:
                acc = z + c + const
                for j, a, b in harm:
                    w = tau * j * z
                    acc += a * mpmath.cos(w) + b * mpmath.sin(w)
                z = acc
            return z

        hh = mpmath.mpf(h)
        vals = {k: f(mpmath.mpf(y) + k * hh) for k in range(-2, 3)}
        fd1 = (vals[1] - vals[-1]) / (2 * hh)
        fd2 = (vals[1] - 2 * vals[0] + vals[-1]) / hh ** 2
        fd3 = (vals[2] - 2 * vals[1] + 2 * vals[-1] - vals[-2]) / (2 * hh ** 3)
        return float(fd1), float(fd2), float(fd3)
