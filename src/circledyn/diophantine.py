"""Diophantine rotation numbers: the measure of the set cut off at a
frequency n_max, and an analytic lower bound.

x belongs to the Diophantine set at level C when |e^{2 pi i n x} - 1|
>= C / n^3 for every positive integer n, equivalently 2 |sin(pi n x)|
>= C / n^3.  True membership quantifies over all n and is not finitely
decidable, so the module measures the cutoff set, the x that meet the
condition for n = 1..n_max, which contains the Diophantine set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Apery's constant zeta(3), used by the excluded-interval union bound.
ZETA3 = 1.2020569031595943
# largest C for which analytic_lower_bound is proven (see there)
ANALYTIC_C_MAX = 1.0
# intervals per block of the exact union
_BLOCK = 1 << 18
# Largest frequency cutoff.  exact_measure unions n_max (n_max + 3) / 2
# intervals, about 2^31 at this cap: some 100 s of CPU in 80 MB.
MAX_N_MAX = 1 << 16
# unit roundoff of float64
_U = 2.0 ** -53


@dataclass(frozen=True)
class DioParams:
    """Level C in (0, 2], frequency cutoff 1 <= n_max <= ``MAX_N_MAX``, and
    ``grid`` >= 1.

    The measure is exact and tests no grid; ``grid`` only sets the
    ``grid_error`` column of :class:`DioMeasure`.
    """

    C: float
    n_max: int
    grid: int = 100_000

    def __post_init__(self):
        if not 0.0 < self.C <= 2.0:
            raise ValueError("C must lie in (0, 2]: beyond 2 the condition is empty")
        if not 1 <= self.n_max <= MAX_N_MAX:
            raise ValueError(f"n_max must lie in [1, {MAX_N_MAX}]")
        if self.grid < 1:
            raise ValueError("grid must be >= 1")


@dataclass(frozen=True)
class DioMeasure:
    estimate: float
    analytic_lower: float | None
    grid_error: float
    exact_error: float
    certified_lower: float | None


def analytic_lower_bound(C: float) -> float | None:
    """Union bound 1 - C zeta(3) / pi on the measure of the cutoff set, for
    C <= ``ANALYTIC_C_MAX`` = 1 at every n_max; None above that range.

    Level n fails on the intervals |x - p/n| < h_n = asin(y_n) / (pi n),
    y_n = C / 2n^3, p = 0..n.  For n >= 2 the ones around 0/n and n/n lie
    inside level 1's, since h_n <= h_1, so the excluded measure is at most
    2 h_1 + sum_{n >= 2} 2 (n - 1) h_n = (2 / pi) (asin Y + sum_{n >= 2}
    (1 - 1/n) asin(Y / n^3)), Y = C / 2.  asin is convex with asin 0 = 0,
    so asin y <= (y / Y) asin Y on [0, Y], and the sum is at most asin Y
    (zeta(3) - zeta(4)).  The total stays below C zeta(3) / pi = (2 / pi)
    Y zeta(3) while asin(Y) / Y <= zeta(3) / (1 + zeta(3) - zeta(4)) =
    1.0735; asin(Y) / Y increases with Y and is pi / 3 = 1.0472 at Y = 1/2,
    so the bound holds for every C <= 1 and every cutoff, and in the limit
    for the Diophantine set itself.  The slack is at least 0.0094 C.

    Above that range the union bound C / (pi n^3) per level, which takes
    asin y for y, undercounts: at C = 2 the cutoff set is empty while
    1 - C zeta(3) / pi = 0.2347.  The float value is within 3e-16 of the
    bound, so below C = 3e-14 or so its rounding can exceed the slack.
    """
    return 1.0 - C * ZETA3 / np.pi if C <= ANALYTIC_C_MAX else None


def _union(iv):
    """Sorted, disjoint pieces covering the intervals [start, end] of the
    columns of ``iv``: sort by start, carry the running maximum of the
    ends, and open a new piece where a start lies past it."""
    order = np.argsort(iv[0], kind="stable")
    starts = iv[0, order]
    reach = np.maximum.accumulate(iv[1, order])
    new = np.ones(starts.size, dtype=bool)
    new[1:] = starts[1:] > reach[:-1]
    return np.stack((starts[new], reach[np.roll(new, -1)]))


def dio_measure(params: DioParams) -> DioMeasure:
    """Measure of the cutoff membership set, with its bounds.

    ``estimate`` and ``exact_error`` are :func:`exact_measure`: the
    Lebesgue measure of the points that pass every level n <= n_max, and a
    bound on its rounding.  It over-approximates the measure of the true
    Diophantine set, which also excludes violations beyond n_max.
    ``analytic_lower`` is :func:`analytic_lower_bound`, empty above
    ``ANALYTIC_C_MAX``.  ``grid_error`` is the crude bound min(1, n_max
    (n_max + 1) / 2 grid) that a count of ``grid`` cell midpoints would
    carry; it bounds no error of the estimate.

    ``certified_lower`` = estimate - C / (6 n_max^2) - ``exact_error`` is a
    lower end of the true Diophantine set's measure, for C <=
    ``ANALYTIC_C_MAX``, and empty above it.  As in
    :func:`analytic_lower_bound`, a level n >= 2 removes at most 2 (n - 1)
    h_n <= (2 / pi) asin(y_n) <= (asin Y / Y) C / (pi n^3), Y = C / 2, and
    sum_{n > N} 1 / n^3 <= 1 / 2N^2, so the levels past N = n_max remove
    at most (asin Y / Y) C / (2 pi N^2) <= C / (6 N^2), as asin(Y) / Y <=
    pi / 3 for Y <= 1/2.  ``exact_error`` is twice a bound of at least 4u,
    so its slack covers the rounding of the two subtractions.
    """
    est, err = exact_measure(params)
    grid_error = min(1.0, params.n_max * (params.n_max + 1) / (2 * params.grid))
    tail = params.C / (6.0 * params.n_max ** 2)
    lower = est - (tail + err) if params.C <= ANALYTIC_C_MAX else None
    return DioMeasure(est, analytic_lower_bound(params.C), grid_error, err, lower)


def exact_measure(params: DioParams) -> tuple[float, float]:
    """Lebesgue measure of {x in [0, 1] : 2|sin(pi n x)| >= C / n^3 for
    n <= n_max}, and a bound on its rounding error.

    Level n fails exactly on the open intervals |x - p/n| < h_n =
    asin(C / 2n^3) / (pi n), p = 0..n, so the measure is 1 minus the length
    of their union: sort by left end, carry the running maximum of the
    right ends, and add the lengths of the merged pieces.  [0, 1] is cut
    into equal blocks of about ``_BLOCK`` intervals each, which bounds the
    memory; each block unions the intervals clipped to it.

    The error bound covers rounding only.  With u = 2^-53 and y_n =
    C / 2n^3, computed y_n is within 5u y_n of y_n (n^3 in floats, the
    division), so asin(y_n) moves by at most d_n = min(5u y_n /
    sqrt(1 - (1 + 5u) y_n), (pi/2) sqrt(5u y_n)): the first term is the
    derivative bound, the second asin's 1/2-Hoelder bound on [0, 1].  With
    arcsin good to 4 ulp and np.pi, pi n and the division good to 1.4u,
    1u and 1u, computed h_n is within 11u h_n + 1.01 d_n / (pi n) of h_n;
    the center p/n rounds by at most u and each end c +- h by at most 2u,
    so each interval end is off by at most e_n = 3u + 11u h_n + 1.01 d_n /
    (pi n).  The union's length is 1-Lipschitz in each end, so the ends
    move it by at most sum_n 2 (n + 1) e_n.  Differences and sums of the
    merged pieces, the blocks and the final 1 - union add at most
    (intervals + blocks + 1) u.  The returned bound is twice the total,
    which covers the rounding of the bound itself.
    """
    C, n_max = params.C, params.n_max
    ns = np.arange(1, n_max + 1, dtype=float)
    y = C / (2.0 * (ns * ns * ns))
    half = np.arcsin(y) / (np.pi * ns)
    intervals = n_max * (n_max + 3) // 2
    blocks = -(-intervals // _BLOCK)
    union = 0.0
    for k in range(blocks):
        a, b = k / blocks, (k + 1) / blocks
        p_lo = np.maximum(np.floor((a - half) * ns), 0.0).astype(np.int64)
        p_hi = np.minimum(np.ceil((b + half) * ns), ns).astype(np.int64)
        count = np.maximum(p_hi - p_lo + 1, 0)
        level = np.repeat(np.arange(n_max), count)
        p = np.arange(level.size) + np.repeat(p_lo - (np.cumsum(count) - count), count)
        center = p / ns[level]
        lo = np.maximum(center - half[level], a)
        hi = np.minimum(center + half[level], b)
        keep = lo < hi
        pieces = _union(np.stack((lo[keep], hi[keep])))
        union += float(np.sum(pieces[1] - pieces[0]))

    dy = 5.0 * _U * y
    with np.errstate(divide="ignore"):
        d_asin = np.minimum(dy / np.sqrt(np.maximum(1.0 - (y + dy), 0.0)),
                            0.5 * np.pi * np.sqrt(dy))
    ends = 3.0 * _U + 11.0 * _U * half + 1.01 * d_asin / (np.pi * ns)
    error = 2.0 * (float(np.sum(2.0 * (ns + 1.0) * ends)) + (intervals + blocks + 1) * _U)
    return 1.0 - union, error
