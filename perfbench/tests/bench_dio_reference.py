"""The exact Diophantine reference: a hand-computed case and agreement with
``circledyn.diophantine.dio_measure`` on a fine grid.

    python3 -m pytest perfbench/tests/bench_dio_reference.py
"""

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(HERE, "..", "..", "src")]

import pytest  # noqa: E402

import dio_exact  # noqa: E402


def test_hand_computed_two_levels():
    # C = 1: level 1 removes |x - k| < asin(1/2)/pi = 1/6 around 0 and 1;
    # level 2 removes |x - k/2| < asin(1/16)/(2 pi) around 0, 1/2 and 1,
    # inside level 1's intervals except around 1/2.
    want = 1.0 - 2.0 / 6.0 - 2.0 * math.asin(1.0 / 16.0) / (2.0 * math.pi)
    assert dio_exact.exact_measure(1.0, 2) == pytest.approx(want, abs=1e-15)


def test_hand_computed_one_level():
    # level 1 alone removes |x| < h and |x - 1| < h, h = asin(C/2)/pi
    for C in (0.05, 0.2, 1.5):
        want = 1.0 - 2.0 * math.asin(C / 2.0) / math.pi
        assert dio_exact.exact_measure(C, 1) == pytest.approx(want, abs=1e-15)
    assert dio_exact.exact_measure(2.0, 1) == 0.0


def test_overlapping_intervals_merge():
    iv = [[0.0, 0.3], [0.1, 0.2], [0.25, 0.5], [0.7, 0.8]]
    import numpy as np

    assert dio_exact.union_length(np.array(iv)) == pytest.approx(0.6, abs=1e-15)


@pytest.mark.parametrize("C", [0.05, 0.13, 0.2])
def test_agrees_with_dio_measure_on_fine_grid(C):
    from circledyn.diophantine import DioParams, dio_measure

    n_max, grid = 60, 1_000_000
    m = dio_measure(DioParams(C, n_max, grid))
    assert m.grid_error < 0.002
    assert abs(m.estimate - dio_exact.exact_measure(C, n_max)) <= m.grid_error
