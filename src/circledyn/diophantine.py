"""Diophantine rotation numbers: membership up to a frequency cutoff and
measure estimation with an analytic lower bound.

x belongs to the Diophantine set at level C when |e^{2 pi i n x} - 1|
>= C / n^3 for every positive integer n, equivalently 2 |sin(pi n x)|
>= C / n^3.  True membership quantifies over all n and is not finitely
decidable, so the API only ever certifies membership up to a cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Apery's constant zeta(3), used by the excluded-interval union bound.
ZETA3 = 1.2020569031595943

# Largest grid.  The midpoint of cell i is x_i = (i + 0.5) / grid; i + 0.5
# is exact below 2^52.  Up to 2^48 the rounding of x_i and of pi n x_i
# (relative 3.5e-16) moves a midpoint by under 0.1 cells, and that of the
# predicted run ends moves them by under 0.2 cells, so every run end lies
# within the two cells settled on each side of its prediction (see
# _settled_runs).  Where the float verdicts still stray from the
# prediction, as on the crest of |sin| at C = 2, the level is evaluated
# at every midpoint.
MAX_GRID = 2 ** 48
# cells evaluated on each side of a predicted run end
_SETTLE = np.arange(-2, 3)
# Levels are settled only when grid >= _LEVEL_COST + _RUN_COST (n + 1);
# the others test every midpoint.  A settled level takes about as long as
# testing 4096 + 24 (n + 1) midpoints (numpy 2.4 on a 2-core x86 VM: 55 us
# plus 0.28 us per p/n, against 12 ns per midpoint) and holds about as
# much memory as testing 36 (n + 1), so no level costs much more than a
# dense row.  _RUN_COST >= 16 also keeps the settle windows of neighbouring
# runs, at least grid / (n + 1) cells apart, from meeting.
_LEVEL_COST = 4096
_RUN_COST = 40
# runs are folded into a mask of the surviving cells once they number more
# than grid / _MASK_SHARE, so they never take more memory than the mask
_MASK_SHARE = 16
# intervals per block of the exact union
_BLOCK = 1 << 18
# unit roundoff of float64
_U = 2.0 ** -53


@dataclass(frozen=True)
class DioParams:
    C: float
    n_max: int
    grid: int = 100_000

    def __post_init__(self):
        if not 0.0 < self.C <= 2.0:
            raise ValueError("C must lie in (0, 2]: beyond 2 the condition is empty")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if not 1 <= self.grid <= MAX_GRID:
            raise ValueError(f"grid must lie in [1, 2^48 = {MAX_GRID}]")


@dataclass(frozen=True)
class DioMembership:
    member_up_to_cutoff: bool
    excluded_n: int | None = None


@dataclass(frozen=True)
class DioMeasure:
    estimate: float
    analytic_lower: float
    grid_error: float


def dio_member(x: float, params: DioParams) -> DioMembership:
    """Check 2|sin(pi n x)| >= C / n^3 for n = 1..n_max.

    Returns the first violating n if any.  A pass does not certify true
    membership, only membership up to the cutoff.
    """
    ns = np.arange(1, params.n_max + 1, dtype=float)
    bad = np.nonzero(2.0 * np.abs(np.sin(np.pi * ns * x)) < params.C / ns ** 3)[0]
    if bad.size:
        return DioMembership(False, int(bad[0]) + 1)
    return DioMembership(True)


def analytic_lower_bound(C: float) -> float:
    """Union bound 1 - C * zeta(3) / pi.

    Linearizing sin near each rational p/n, the level-n condition excludes
    intervals of half-width about C / (2 pi n^4) around n rationals, so the
    excluded measure is at most sum_n C / (pi n^3) = C zeta(3) / pi.
    Overlaps between the intervals make the true excluded measure strictly
    smaller, which is the slack the estimate contract relies on.
    """
    return 1.0 - C * ZETA3 / np.pi


def _passes(x, n: int, thresh: float) -> np.ndarray:
    """Whether 2|sin(pi n x)| >= thresh at the points x.  The float
    operations are elementwise, so a midpoint's verdict does not depend on
    which others are evaluated with it."""
    return 2.0 * np.abs(np.sin(np.pi * n * x)) >= thresh


def _settled_runs(n: int, thresh: float, grid: int):
    """Failing cells of level n as runs, a (2, k) array of inclusive
    [start, end] columns, one per p/n that has any; None when some run end
    does not settle.

    In exact arithmetic level n fails on |x - p/n| < h = asin(thresh / 2) /
    (pi n), so around p/n the failing midpoints are the cells i with
    grid (p/n - h) - 1/2 < i < grid (p/n + h) - 1/2.  Both predicted ends
    are clipped to the grid and settled on the cells within 2 of them: the
    verdicts there must be those of one run [start, end], with a passing
    cell or the grid's edge beyond each end.  A run whose two windows hold
    no failing cell is empty.  Between the windows the midpoints lie deeper
    inside the interval than the rounding reaches (see ``MAX_GRID``).
    """
    p = np.arange(n + 1)
    half = math.asin(thresh / 2.0) / (math.pi * n)
    ends = np.stack((np.floor(grid * (p / n - half) - 0.5) + 1,
                     np.ceil(grid * (p / n + half) - 0.5) - 1))
    cells = np.clip(np.clip(ends, 0, grid - 1).astype(np.int64)[..., None] + _SETTLE,
                    0, grid - 1)
    fails = ~_passes((cells + 0.5) / grid, n, thresh)
    start = cells[0, p, fails[0].argmax(axis=1)]
    end = cells[1, p, -1 - fails[1, :, ::-1].argmax(axis=1)]
    inside = (cells >= start[:, None]) & (cells <= end[:, None])
    settled = ((fails == inside).all(axis=(0, 2))
               & ((start > cells[0, :, 0]) | (start == 0))
               & ((end < cells[1, :, -1]) | (end == grid - 1)))
    found = fails.any(axis=2)
    empty = ~found[0] & ~found[1]
    if not np.all(empty | (settled & found[0] & found[1])):
        return None
    return np.stack((start, end))[:, ~empty]


def _union(runs, gap):
    """Sorted, disjoint pieces covering the intervals [start, end] of the
    columns of ``runs``: sort by start, carry the running maximum of the
    ends, and open a new piece where a start lies more than ``gap`` past
    it (1 for runs of cells, 0 for real intervals)."""
    order = np.argsort(runs[0], kind="stable")
    starts = runs[0, order]
    reach = np.maximum.accumulate(runs[1, order])
    new = np.ones(starts.size, dtype=bool)
    new[1:] = starts[1:] > reach[:-1] + gap
    return np.stack((starts[new], reach[np.roll(new, -1)]))


def _fold(alive, runs):
    """Clear the cells of disjoint, non-adjacent runs in the mask ``alive``."""
    step = np.zeros(alive.size + 1, dtype=np.int8)
    step[runs[0]] = 1
    step[runs[1] + 1] = -1
    alive &= np.cumsum(step[:-1], dtype=np.int8) == 0


def _members(grid: int, alive, runs) -> int:
    """Cells in ``alive`` (all cells when it is None) outside disjoint runs."""
    total = grid if alive is None else int(np.count_nonzero(alive))
    return total - int(np.sum(runs[1] - runs[0] + 1))


def _merge(runs, alive, grid: int):
    """Merge a list of run arrays into disjoint runs.  Once more than
    grid / _MASK_SHARE are held, or when ``alive`` exists already, they are
    folded into ``alive``, the mask of surviving cells.  Returns (alive,
    the runs not folded)."""
    merged = _union(np.concatenate(runs, axis=1), 1)
    if alive is None and merged.shape[1] > grid // _MASK_SHARE:
        alive = np.ones(grid, dtype=bool)
    if alive is not None:
        _fold(alive, merged)
        merged = merged[:, :0]
    return alive, merged


def _grid_members(params: DioParams) -> int:
    """Number of cell midpoints (i + 0.5) / grid with 2|sin(pi n x)| >=
    C / n^3 for every n <= n_max.

    While that is cheaper than testing every midpoint, a level's failing
    cells come as runs settled around their predicted ends, about
    10 (n + 1) evaluations.  Runs are merged whenever the new ones
    outnumber the merged ones, and folded into a mask of the surviving
    cells once more than grid / _MASK_SHARE of them are held, and from then
    on every grid / _MASK_SHARE new runs.  Other levels test every midpoint
    against that mask, exactly as a dense scan would, so no level costs
    much more time or memory than one dense row.  The count stops at 0 once
    no cell survives.
    """
    grid = params.grid
    runs, pending = [np.empty((2, 0), np.int64)], 0  # merged runs, then new ones
    alive = xs = None
    for n in range(1, params.n_max + 1):
        thresh = params.C / n ** 3
        cheap = _LEVEL_COST + _RUN_COST * (n + 1) <= grid
        new = _settled_runs(n, thresh, grid) if cheap else None
        if new is None:
            if xs is None:
                xs = (np.arange(grid) + 0.5) / grid
                alive, merged = _merge(runs, np.ones(grid, bool) if alive is None else alive,
                                       grid)
                runs, pending = [merged], 0
            alive &= _passes(xs, n, thresh)
            if not alive.any():
                return 0
            continue
        if not new.size:
            continue
        runs.append(new)
        pending += new.shape[1]
        if pending >= (runs[0].shape[1] if alive is None else grid // _MASK_SHARE):
            alive, merged = _merge(runs, alive, grid)
            runs, pending = [merged], 0
            if _members(grid, alive, merged) == 0:
                return 0
    return _members(grid, *_merge(runs, alive, grid))


def dio_measure(params: DioParams) -> DioMeasure:
    """Midpoint-grid measure of the cutoff membership set.

    The estimate is the share of cell midpoints (i + 0.5) / grid that pass
    every level n <= n_max; it is counted from the runs of failing cells
    without testing every midpoint at every level.  It over-approximates
    the true Diophantine measure (it ignores violations beyond n_max) and
    satisfies estimate >= analytic_lower - grid_error.  The reported grid
    error uses the crude interval count sum_{n <= n_max} n, capped at 1;
    :func:`exact_measure` gives the cutoff set's measure itself.
    """
    est = _grid_members(params) / params.grid
    intervals = params.n_max * (params.n_max + 1) / 2
    grid_error = min(1.0, intervals / params.grid)
    return DioMeasure(est, analytic_lower_bound(params.C), grid_error)


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
        pieces = _union(np.stack((lo[keep], hi[keep])), 0.0)
        union += float(np.sum(pieces[1] - pieces[0]))

    dy = 5.0 * _U * y
    with np.errstate(divide="ignore"):
        d_asin = np.minimum(dy / np.sqrt(np.maximum(1.0 - (y + dy), 0.0)),
                            0.5 * np.pi * np.sqrt(dy))
    ends = 3.0 * _U + 11.0 * _U * half + 1.01 * d_asin / (np.pi * ns)
    error = 2.0 * (float(np.sum(2.0 * (ns + 1.0) * ends)) + (intervals + blocks + 1) * _U)
    return 1.0 - union, error
