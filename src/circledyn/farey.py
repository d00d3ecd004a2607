"""Reduced-fraction enumeration: Farey sequences and Stern-Brocot descent."""

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
    yield (a, b)
    while c < d or (c, d) == (1, 1):
        if (c, d) == (1, 1):
            return
        k = (q_max + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        if (a, b) == (1, 1):
            return
        yield (a, b)


def _unit_interval_fractions(lo: float, hi: float, q_max: int):
    """Reduced fractions with denominator <= q_max inside [lo, hi] cap [0, 1]."""
    out = []
    if lo <= 0.0 <= hi:
        out.append((0, 1))
    if lo <= 1.0 <= hi:
        out.append((1, 1))
    stack = [(0, 1, 1, 1)]
    while stack:
        a, b, c, d = stack.pop()
        p, q = a + c, b + d
        if q > q_max:
            continue
        x = p / q
        if x < lo:
            stack.append((p, q, c, d))
        elif x > hi:
            stack.append((a, b, p, q))
        else:
            out.append((p, q))
            stack.append((a, b, p, q))
            stack.append((p, q, c, d))
    return out


def fractions_in_interval(lo: float, hi: float, q_max: int):
    """All reduced (p, q), q <= q_max, with p/q in [lo, hi] on the real line.

    The numerator may be negative or exceed q.  Results are sorted by
    denominator then value, which is the natural order for trying cheap
    lock denominators first.
    """
    if hi < lo:
        return []
    found = set()
    for base in range(math.floor(lo), math.floor(hi) + 1):
        u, v = max(lo - base, 0.0), min(hi - base, 1.0)
        if u > v:
            continue
        for p, q in _unit_interval_fractions(u, v, q_max):
            found.add((p + base * q, q))
    return sorted(found, key=lambda f: (f[1], f[0]))


@functools.lru_cache(maxsize=8)
def _unit_values(q_max: int):
    """The values p / q of the reduced fractions in [0, 1] with q <= q_max,
    ascending, as the floats that Stern-Brocot descent compares."""
    vals = np.array([p / q for p, q in farey_sequence(q_max)] + [1.0])
    vals.flags.writeable = False
    return vals


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
    vals = _unit_values(q_max)
    x = vals[np.searchsorted(vals, lo - base)]  # lo - base <= 1.0 = vals[-1]
    return (lo <= hi) & (x <= hi - base)
