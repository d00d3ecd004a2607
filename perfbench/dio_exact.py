"""Exact measure of the cutoff Diophantine set, as an independent reference
for ``circledyn dio``.

For 0 < C <= 2 the level-n condition 2|sin(pi n x)| >= C / n^3 fails exactly
on the open intervals |x - p/n| < arcsin(C / (2 n^3)) / (pi n), p = 0..n.
The cutoff set is [0, 1] minus the union of those intervals for n <= n_max,
so its measure is one minus the length of a sorted interval union.
"""

from __future__ import annotations

import math

import numpy as np


def excluded_intervals(C: float, n_max: int) -> np.ndarray:
    """(k, 2) array of open intervals, clipped to [0, 1], that fail some
    level n <= n_max."""
    if not 0.0 < C <= 2.0:
        raise ValueError("C must lie in (0, 2]")
    parts = []
    for n in range(1, n_max + 1):
        half = math.asin(C / (2.0 * n ** 3)) / (math.pi * n)
        centers = np.arange(n + 1) / n
        parts.append(np.column_stack((centers - half, centers + half)))
    iv = np.clip(np.concatenate(parts), 0.0, 1.0)
    return iv[np.argsort(iv[:, 0], kind="stable")]


def union_length(iv: np.ndarray) -> float:
    """Total length of a union of intervals sorted by left end."""
    total = 0.0
    lo, hi = iv[0]
    for a, b in iv[1:]:
        if a > hi:
            total += hi - lo
            lo, hi = a, b
        elif b > hi:
            hi = b
    return total + (hi - lo)


def exact_measure(C: float, n_max: int) -> float:
    """Lebesgue measure of {x in [0, 1] : 2|sin(pi n x)| >= C / n^3, n <= n_max}."""
    return 1.0 - union_length(excluded_intervals(C, n_max))
