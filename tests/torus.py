"""Torus-side oracles for the skew-product tests: the map (x, y) -> (m x,
y + t + g_t(x, y)) iterated on the torus itself, and the mean t-derivative
of a restricted lift, which the package's restricted families are checked
against."""

import numpy as np

from circledyn.circle_map import TAU


def torus_g(F, t, x, y):
    """The periodic part g_t(x, y) of the skew map ``F``: the sum of its
    terms a(t) cos(2 pi (jx x + jy y)) + b(t) sin(...)."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast_shapes(t.shape, x.shape, y.shape))
    for jx, jy, a, b in F.harmonics:
        w = TAU * (jx * x + jy * y)
        out = out + a(t) * np.cos(w) + b(t) * np.sin(w)
    return out if out.ndim else float(out)


def skew_apply(F, t, xy):
    """One application of the torus map: (m x mod 1, y + t + g mod 1).

    A Fraction x stays exact; floats are reduced in floating point.
    """
    x, y = xy
    return (F.m * x) % 1, (y + t + torus_g(F, t, float(x), y)) % 1.0


def winding_check(rf) -> float:
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
