import math
from fractions import Fraction

import numpy as np
import pytest

from circledyn.farey import farey_sequence, fractions_in_interval

RNG = np.random.default_rng(7)


def brute_fractions(lo, hi, q_max):
    out = set()
    for q in range(1, q_max + 1):
        for p in range(math.floor(lo * q) - 1, math.ceil(hi * q) + 2):
            if math.gcd(abs(p), q) == 1 and lo <= p / q <= hi:
                out.add((p, q))
    return out


def test_farey_sequence_order_and_count():
    seq = list(farey_sequence(5))
    assert seq[0] == (0, 1)
    vals = [p / q for p, q in seq]
    assert vals == sorted(vals)
    assert all(math.gcd(p, q) == 1 for p, q in seq)
    # |F_5| on [0, 1) is 1 + sum_{q=2..5} phi(q) = 10
    assert len(seq) == 1 + sum(
        sum(1 for p in range(1, q + 1) if math.gcd(p, q) == 1) for q in range(2, 6)
    )


@pytest.mark.parametrize("q_max", [1, 2, 3, 7, 30, 140])
def test_farey_sequence_matches_brute(q_max):
    want = sorted(brute_fractions(0.0, 0.9999, q_max), key=lambda f: Fraction(*f))
    assert list(farey_sequence(q_max)) == want


def test_interval_descent_matches_brute():
    for _ in range(40):
        x = RNG.uniform(-1, 2)
        r = RNG.uniform(1e-4, 0.2)
        q_max = int(RNG.integers(1, 25))
        got = set(fractions_in_interval(x - r, x + r, q_max))
        assert got == brute_fractions(x - r, x + r, q_max)
    # denominators up to the lock checks' cap, narrow bars, integer ends
    # and point intervals, at fractions and off them.  The search compares
    # the float p/q of the unit interval with lo - base and hi - base, so
    # off [0, 1] it may differ from the brute force's float (p + base q)/q
    # for a fraction within an ulp of an end: 8/7 is not in the point
    # interval [fl(8/7), fl(8/7)], as fl(1/7) > fl(8/7) - 1 (and, exactly,
    # 8/7 > fl(8/7))
    for _ in range(300):
        q_max = int(RNG.integers(1, 141))
        q = int(RNG.integers(1, q_max + 1))
        x = [RNG.uniform(-1, 2), float(RNG.integers(-1, 3)),
             int(RNG.integers(-q, 2 * q)) / q][int(RNG.integers(3))]
        r = 10 ** RNG.uniform(-9, 0)
        for lo, hi in [(x - r, x + r), (x, x + r), (x - r, x), (x, x)]:
            got = fractions_in_interval(lo, hi, q_max)
            assert got == sorted(got, key=lambda f: (f[1], f[0]))
            want = brute_fractions(lo, hi, q_max)
            if 0.0 <= lo and hi <= 1.0:
                assert set(got) == want, (lo, hi, q_max)
            for p, q in set(got) ^ want:
                gap = min(abs(Fraction(p, q) - Fraction(lo)), abs(Fraction(p, q) - Fraction(hi)))
                assert gap <= 2.0 ** -52, (lo, hi, p, q)


def test_interval_includes_exact_endpoints():
    assert (1, 2) in fractions_in_interval(0.5, 0.5, 2)
    assert (3, 1) in fractions_in_interval(2.9, 3.0, 5)
