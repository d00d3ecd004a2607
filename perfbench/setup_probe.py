"""Set-up probe: the work a CLI call does before its first computation.

    python3 perfbench/setup_probe.py family PATH
    python3 perfbench/setup_probe.py skew PATH NMAX
    python3 perfbench/setup_probe.py dio C1,C2,...

imports ``circledyn.cli``, loads the definition file and runs the validation
the subcommand runs first (``check_diffeo`` for a family, the restriction
to every periodic circle for a skew map, ``DioParams`` for each C), then
exits.  The benchmark times the whole process.
"""

import sys

from circledyn import cli  # noqa: F401  (the import is part of the set-up)
from circledyn import io, skew
from circledyn.diophantine import DioParams


def main(argv) -> int:
    kind = argv[0]
    if kind == "family":
        io.load_family(argv[1]).check_diffeo()
    elif kind == "skew":
        F = io.load_skew(argv[1])
        for circle in skew.periodic_circles(F.m, int(argv[2])):
            skew.restricted_family(F, circle)
    elif kind == "dio":
        for c in argv[1].split(","):
            DioParams(float(c), 1)
    else:
        raise SystemExit(f"unknown set-up kind {kind!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
