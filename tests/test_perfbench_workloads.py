"""The benchmark checks each workload's outputs against independent
references (``perfbench/workloads.py``); a change that breaks one of those
checks, such as a report that loses ``hypotheses``, should fail here and not
only when the benchmark runs.  ``perfbench/`` is imported without writing
bytecode next to it."""

import importlib
import os
import sys

import pytest

from circledyn import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
SEED = 6151


def _import_workloads():
    old_path, old_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, PERFBENCH)  # workloads imports dio_exact by its bare name
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path[:], sys.dont_write_bytecode = old_path, old_flag


workloads = _import_workloads()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_outputs_pass_the_benchmark_checks(name, tmp_path):
    inputs, out = tmp_path / "in", str(tmp_path / "out")
    inputs.mkdir()
    wl = workloads.generate(name, SEED, str(inputs))
    assert cli.main(wl.argv + ["--out", out]) == 0
    assert workloads.check(wl, out) == []


@pytest.mark.parametrize("name", ["windows-arnold", "theoremA-par"])
def test_pooled_windows_equal_serial(name, tmp_path):
    # windows-arnold's window batches and theoremA-par's sampling slot and
    # sweep blocks go through cli._Pool.map
    inputs = tmp_path / "in"
    inputs.mkdir()
    wl = workloads.generate(name, SEED, str(inputs))
    at = wl.argv.index("--workers") + 1
    digests = []
    for workers in ("1", "2"):
        out = str(tmp_path / f"out{workers}")
        argv = wl.argv[:at] + [workers] + wl.argv[at + 1:]
        assert cli.main(argv + ["--out", out]) == 0
        digests.append(workloads.csv_digests(out))
    assert digests[0] == digests[1]
