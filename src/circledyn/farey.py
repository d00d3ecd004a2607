"""Reduced-fraction enumeration: Farey sequences and slices of them."""

from __future__ import annotations

import functools
import math

import numpy as np


def farey_sequence(q_max: int):
    """Yield reduced (p, q) with 0 <= p/q < 1 and q <= q_max, ascending.

    Standard neighbor recurrence; 1/1 is excluded so values stay in [0, 1).
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    a, b, c, d = 0, 1, 1, q_max
    while (a, b) != (1, 1):
        yield (a, b)
        k = (q_max + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


@functools.lru_cache(maxsize=8)
def _unit_table(q_max: int):
    """The reduced fractions (p, q) in [0, 1] with q <= q_max, ascending,
    and their values p / q as a read-only array."""
    fracs = (*farey_sequence(q_max), (1, 1))
    vals = np.array([p / q for p, q in fracs])
    vals.flags.writeable = False
    return fracs, vals


def fractions_in_interval(lo: float, hi: float, q_max: int):
    """All reduced (p, q), q <= q_max, with p/q in [lo, hi] on the real line.

    The numerator may be negative or exceed q.  Results are sorted by
    denominator then value, which is the natural order for trying cheap
    lock denominators first.  Each unit interval [base, base + 1] that
    [lo, hi] meets is a slice of the sorted table of p/q in [0, 1],
    found by comparing the floats p / q with lo - base and hi - base; off
    [0, 1] that may decide a fraction within an ulp of an end otherwise
    than a float (p + base q) / q would.
    """
    if hi < lo:
        return []
    fracs, vals = _unit_table(q_max)
    found = set()
    for base in range(math.floor(lo), math.floor(hi) + 1):
        u, v = max(lo - base, 0.0), min(hi - base, 1.0)
        i, j = np.searchsorted(vals, u), np.searchsorted(vals, v, side="right")
        found.update((p + base * q, q) for p, q in fracs[i:j])
    return sorted(found, key=lambda f: (f[1], f[0]))


def holds_fraction(lo, hi, q_max: int):
    """Elementwise ``bool(fractions_in_interval(lo, hi, q_max))`` for arrays
    of finite interval ends.

    With base = floor(lo), a nonempty [lo, hi] holds a fraction iff it
    holds base + x for the least of the sorted unit values x >= lo - base,
    that is iff x <= hi - base: the float comparisons of
    :func:`fractions_in_interval`, so the answers agree exactly.  (The unit
    values end at 1, so a bar reaching base + 1 always holds one.)
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    base = np.floor(lo)
    vals = _unit_table(q_max)[1]
    x = vals[np.searchsorted(vals, lo - base)]  # lo - base <= 1.0 = vals[-1]
    return (lo <= hi) & (x <= hi - base)
