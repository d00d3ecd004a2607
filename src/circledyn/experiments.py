"""Desk-scale measure experiments over lists of parameterized circle maps:
intersection shrinkage and the locked-measure envelope eta(r).

Almost-everywhere statements are not reproducible as single numbers; these
experiments measure the observable proxies (Monte Carlo locked fractions
under common random numbers) and record the standing hypotheses they were
run under instead of silently assuming them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rotation, skew
from .circle_map import CircleFamily, TPoly, family_norm
from .errors import HypothesisViolation


def make_rng(seed: int, *stream) -> np.random.Generator:
    """Counter-based generator for a (seed, stream...) key.

    Philox streams are splittable, so parallel workers draw identical
    numbers regardless of scheduling.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def norm_value(fam) -> float:
    """Family norm for either representation of a parameterized circle map."""
    if isinstance(fam, skew.RestrictedFamily):
        return skew.restricted_norm(fam).value
    return family_norm(fam).value


@dataclass(frozen=True)
class IntersectionResult:
    """Monte Carlo measure of parameters locked for every one of the first N
    families, N = 1..len(families); unresolved samples tracked as an
    optimistic/pessimistic interval.  ``classified[k]`` counts the samples
    that family k + 1 was classified on, and ``iterates[k]`` the orbit
    iterates that took."""

    mu_locked: tuple
    mu_pessimistic: tuple
    classified: tuple
    iterates: tuple
    norms: tuple
    windings: tuple
    windings_increasing: bool
    seed: int
    t_samples: int

    @property
    def conforming(self) -> bool:
        return self.windings_increasing and all(v < 1.0 for v in self.norms)


def _classify_family(fam, ts, q_max, n_iter, map_fn=map):
    """Locked and unresolved indicators of a retiring sweep over ``ts``,
    and its orbit iterates."""
    results = rotation.classify_batch(fam, ts, q_max=q_max, n_iter=n_iter, map_fn=map_fn,
                                      retire=True)
    locked = np.array([r.classification == rotation.LOCKED for r in results])
    unresolved = np.array([r.classification == rotation.UNRESOLVED for r in results])
    return locked, unresolved, sum(r.n_iter for r in results)


def intersection_measure(families, t_samples: int, q_max: int = 30, seed: int = 0,
                         n_iter: int = rotation.CLASSIFY_N_ITER,
                         map_fn=map) -> IntersectionResult:
    """Estimate the measure of the intersection of locked parameter sets.

    All families are evaluated against one shared seeded t sample (common
    random numbers), so the intersection indicators are exact set
    intersections and mu_N is nonincreasing by construction.

    The families run in order, and family k is classified only on the
    samples that families 1..k-1 all left locked or unresolved; a family
    with no such sample is not classified.  A sample that an earlier family
    certified as not locked is already out of both the locked and the
    pessimistic intersection, so neither indicator changes, and
    ``classify_batch`` decides each value as it would alone.  Its sweep
    retires the samples whose error bars rule out every candidate early
    (``retire``), so ``n_iter`` is a cap.  ``map_fn`` splits each family's
    samples into blocks, one per worker once a sweep is large enough to
    pay for the split (see ``classify_batch``).

    Raises HypothesisViolation when any family norm reaches 1; a
    non-increasing winding sequence is recorded (``windings_increasing``)
    rather than raised, since it only weakens the interpretation.
    """
    families = list(families)
    if not families:
        raise ValueError("need at least one family")
    if t_samples < 1:
        raise ValueError("t_samples must be >= 1")
    norms = tuple(norm_value(f) for f in families)
    offenders = [i for i, v in enumerate(norms) if v >= 1.0]
    if offenders:
        raise HypothesisViolation(
            f"family #{offenders[0] + 1} has norm {norms[offenders[0]]:.6g} >= 1"
        )
    windings = tuple(f.winding for f in families)
    increasing = all(b > a for a, b in zip(windings, windings[1:]))

    ts = make_rng(seed).random(t_samples)
    locked_all = np.ones(t_samples, dtype=bool)
    pess_all = np.ones(t_samples, dtype=bool)
    mu_locked, mu_pess, classified, iterates = [], [], [], []
    for fam in families:
        alive = np.flatnonzero(pess_all)
        classified.append(int(alive.size))
        iterates.append(0)
        if alive.size:
            locked, unresolved, iterates[-1] = _classify_family(fam, ts[alive], q_max,
                                                                n_iter, map_fn)
            # locked_all is within pess_all, so both stay false off `alive`
            locked_all[alive] &= locked
            pess_all[alive] = locked | unresolved
        mu_locked.append(float(np.mean(locked_all)))
        mu_pess.append(float(np.mean(pess_all)))
    return IntersectionResult(
        tuple(mu_locked), tuple(mu_pess), tuple(classified), tuple(iterates), norms, windings,
        increasing, seed, t_samples,
    )


@dataclass(frozen=True)
class EtaCurve:
    """Empirical lower envelope of the locked-measure bound eta(r):
    the largest Monte Carlo locked fraction seen among sampled families of
    norm exactly r, made nondecreasing in r.  ``iterates[k][i]`` counts the
    orbit iterates that classifying sampled family i + 1 of level r[k] took."""

    r: tuple
    eta: tuple
    eta_raw: tuple
    iterates: tuple
    seed: int


def sample_family(rng: np.random.Generator, rs) -> list:
    """One random winding-1 family, rescaled to hit each norm r of ``rs``
    exactly: the families of one sampling slot, in the order of ``rs``.

    One to three distinct harmonics j <= 4 are drawn, with coefficients
    of degree 1 in t, so both norm components are exercised.  Rescaling
    is safe: the norm is linear in the periodic part, and c3 = r < 1
    forces the diffeomorphism condition.  At r = 0 the family is the
    rigid rotation, with zero coefficients.
    """
    if any(r < 0.0 for r in rs):
        raise ValueError("r must be >= 0")
    n_h = int(rng.integers(1, 4))
    js = rng.choice(np.arange(1, 5), size=n_h, replace=False)
    harmonics = []
    for j in sorted(int(j) for j in js):
        a = TPoly((rng.normal(), 0.3 * rng.normal()))
        b = TPoly((rng.normal(), 0.3 * rng.normal()))
        harmonics.append((j, a, b))
    fam = CircleFamily(1, TPoly((0.0,)), tuple(harmonics), label="sample")
    value = family_norm(fam, check=False).value
    return [fam.scaled(r / value) for r in rs]


def _sample(key):
    seed, fi, rs = key
    return sample_family(make_rng(seed, 1, 0, fi), rs)


def _tally(results):
    """Locked count and orbit iterates of an iterable of results."""
    locked = iterates = 0
    for r in results:
        locked += r.classification == rotation.LOCKED
        iterates += r.n_iter
    return locked, iterates


def eta_curve(r_grid, sample_families_per_r: int, q_max: int = 30, seed: int = 0,
              mc_samples: int = 2000, n_iter: int = rotation.CLASSIFY_N_ITER,
              map_fn=map) -> EtaCurve:
    """Empirical eta(r): sample random families at each norm level r and take
    the largest Monte Carlo locked fraction, then apply an isotonic cleanup
    (eta is a sup over nested classes, so it must be nondecreasing).

    Each of the ``sample_families_per_r`` sampling slots is a ``map_fn``
    task that draws one family and scales it to every level (common random
    numbers across the levels, see :func:`sample_family`).  All families
    are classified on one shared t sample by ``rotation.classify_groups``:
    merged sweeps, cut into blocks for the workers of ``map_fn`` as
    ``classify_batch`` cuts them, which send back only each family's locked
    count and iterates.  The sweeps retire samples early, as in
    :func:`intersection_measure`.  Each sample is classified as it would be
    alone, so the curve and the iterates do not depend on the blocks.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    if sample_families_per_r < 1:
        raise ValueError("sample_families_per_r must be >= 1")
    rs = sorted(float(r) for r in r_grid)
    if not rs:
        raise ValueError("r_grid must hold at least one norm level")
    ts = make_rng(seed, 0).random(mc_samples)
    slots = list(map_fn(_sample, [(seed, fi, rs) for fi in range(sample_families_per_r)]))
    tallies = [tuple(map(sum, zip(*pieces))) for pieces in rotation.classify_groups(
        [(fam, ts) for level in zip(*slots) for fam in level], q_max=q_max,
        n_iter=n_iter, map_fn=map_fn, retire=True, reduce=_tally)]
    levels = [tallies[ri * len(slots):(ri + 1) * len(slots)] for ri in range(len(rs))]
    raw = [max(locked / mc_samples for locked, _ in level) for level in levels]
    eta = list(np.maximum.accumulate(raw))
    return EtaCurve(tuple(rs), tuple(eta), tuple(raw),
                    tuple(tuple(n for _, n in level) for level in levels), seed)
