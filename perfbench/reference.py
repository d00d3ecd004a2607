"""Fixed reference computation that measures the machine's current speed.

A fresh interpreter imports numpy, then iterates a circle map on a
4096-point array and on a numpy scalar: the same mix of start-up, array and
scalar work that CLI calls do.  It uses no circledyn code, so no change to
the program moves its time.  ``run.py`` runs it next to every timed call
and divides by it (see ``REFERENCE_S`` there).
"""

import math

import numpy as np

x = np.arange(4096) / 4096
for _ in range(1500):
    x = x + 0.1 + 0.12 * np.sin(2 * math.pi * x)
y = np.float64(0.0)
for _ in range(20000):
    y = y + 0.1 + 0.12 * np.sin(2 * math.pi * y)
