"""Desk-scale measure experiments over lists of parameterized circle maps:
intersection shrinkage, the locked-measure envelope eta(r), and the
renormalized-interval check.

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
    that family k + 1 was classified on."""

    mu_locked: tuple
    mu_pessimistic: tuple
    classified: tuple
    norms: tuple
    windings: tuple
    windings_increasing: bool
    seed: int
    t_samples: int

    @property
    def conforming(self) -> bool:
        return self.windings_increasing and all(v < 1.0 for v in self.norms)


def _classify_family(fam, ts, q_max, n_iter, map_fn=map):
    results = rotation.classify_batch(fam, ts, q_max=q_max, n_iter=n_iter, map_fn=map_fn)
    locked = np.array([r.classification == rotation.LOCKED for r in results])
    unresolved = np.array([r.classification == rotation.UNRESOLVED for r in results])
    return locked, unresolved


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
    ``classify_batch`` decides each value as it would alone.  ``map_fn``
    splits each family's samples into blocks, one per worker
    (see ``classify_batch``).

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
    mu_locked, mu_pess, classified = [], [], []
    for fam in families:
        alive = np.flatnonzero(pess_all)
        classified.append(int(alive.size))
        if alive.size:
            locked, unresolved = _classify_family(fam, ts[alive], q_max, n_iter, map_fn)
            # locked_all is within pess_all, so both stay false off `alive`
            locked_all[alive] &= locked
            pess_all[alive] = locked | unresolved
        mu_locked.append(float(np.mean(locked_all)))
        mu_pess.append(float(np.mean(pess_all)))
    return IntersectionResult(
        tuple(mu_locked), tuple(mu_pess), tuple(classified), norms, windings,
        increasing, seed, t_samples,
    )


@dataclass(frozen=True)
class EtaCurve:
    """Empirical lower envelope of the locked-measure bound eta(r):
    the largest Monte Carlo locked fraction seen among sampled families of
    norm exactly r, made nondecreasing in r."""

    r: tuple
    eta: tuple
    eta_raw: tuple
    seed: int

    def at(self, r: float) -> float:
        """Envelope value at norm r (step interpolation, clamped)."""
        idx = int(np.searchsorted(self.r, r, side="right")) - 1
        return self.eta[max(idx, 0)]


def sample_family(rng: np.random.Generator, r: float) -> CircleFamily:
    """Random winding-1 family with norm rescaled to hit r exactly.

    One to three distinct harmonics j <= 4 are drawn, with coefficients
    of degree 1 in t, so both norm components are exercised.  Rescaling
    is safe: the norm is linear in the periodic part, and c3 = r < 1
    forces the diffeomorphism condition.
    """
    if r < 0.0:
        raise ValueError("r must be >= 0")
    n_h = int(rng.integers(1, 4))
    js = rng.choice(np.arange(1, 5), size=n_h, replace=False)
    harmonics = []
    for j in sorted(int(j) for j in js):
        a = TPoly((rng.normal(), 0.3 * rng.normal()))
        b = TPoly((rng.normal(), 0.3 * rng.normal()))
        harmonics.append((j, a, b))
    fam = CircleFamily(1, TPoly((0.0,)), tuple(harmonics), label=f"sample-r{r:g}")
    if r == 0.0:
        return CircleFamily(1, TPoly((0.0,)), (), label="sample-r0")
    value = family_norm(fam, check=False).value
    return fam.scaled(r / value)


def _eta_task(args):
    return float(np.mean(_classify_family(*args)[0]))


def eta_curve(r_grid, sample_families_per_r: int, q_max: int = 30, seed: int = 0,
              mc_samples: int = 2000, n_iter: int = rotation.CLASSIFY_N_ITER,
              map_fn=map) -> EtaCurve:
    """Empirical eta(r): sample random families at each norm level r and take
    the largest Monte Carlo locked fraction, then apply an isotonic cleanup
    (eta is a sup over nested classes, so it must be nondecreasing)."""
    rs = sorted(float(r) for r in r_grid)
    ts = make_rng(seed, 0).random(mc_samples)
    tasks = []
    for ri, r in enumerate(rs):
        for fi in range(sample_families_per_r):
            fam = sample_family(make_rng(seed, 1, ri, fi), r)
            tasks.append((fam, ts, q_max, n_iter))
    fracs = list(map_fn(_eta_task, tasks))
    raw = []
    for ri in range(len(rs)):
        chunk = fracs[ri * sample_families_per_r:(ri + 1) * sample_families_per_r]
        raw.append(max(chunk) if chunk else 0.0)
    eta = list(np.maximum.accumulate(raw))
    return EtaCurve(tuple(rs), tuple(eta), tuple(raw), seed)


@dataclass(frozen=True)
class RenormResult:
    n_found: int | None  # 1-based index into the family list
    ratio: float
    eta_hat: float


def renormalization_check(families, J, q_max: int = 30, seed: int = 0,
                          eta_hat: float | None = None,
                          mc_samples: int = 2000) -> RenormResult:
    """Search the family list for the first member whose locked set fills
    less than eta_hat of the interval J.

    The ratio is the Monte Carlo locked fraction within J.  When the list
    is exhausted, n_found is None and the best (smallest) ratio is
    reported.  eta_hat defaults to a small eta_curve run at the largest
    family norm in the list.
    """
    a, b = float(J[0]), float(J[1])
    if b <= a:
        raise ValueError("J must have positive length")
    families = list(families)
    if eta_hat is None:
        r_star = max(norm_value(f) for f in families)
        eta_hat = eta_curve([r_star], 6, q_max=q_max, seed=seed,
                            mc_samples=mc_samples).eta[-1]
    ts = a + (b - a) * make_rng(seed, 2).random(mc_samples)
    best = np.inf
    for i, fam in enumerate(families):
        results = rotation.classify_batch(fam, ts, q_max=q_max)
        ratio = float(np.mean([r.classification == rotation.LOCKED for r in results]))
        if ratio < eta_hat:
            return RenormResult(i + 1, ratio, eta_hat)
        best = min(best, ratio)
    return RenormResult(None, float(best), eta_hat)
