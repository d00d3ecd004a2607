"""Tracing changes no output: on every workload a traced and an
untraced CLI call write byte-identical CSVs, and the traced call's spans
cover at least 90% of its wall time.

    python3 -m pytest perfbench/tests/bench_trace_digests.py

Run from the root of the checkout; each workload takes a few seconds.
"""

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.abspath(os.path.join(HERE, "..", ".."))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_and_untraced_csvs_match(name):
    base = os.path.join(ROOT, run.WORK_DIR)
    os.makedirs(base, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as scratch:
        wl = workloads.generate(name, 3, scratch)
        runner = run.Runner(ROOT, scratch)
        plain, _ = runner.cli(wl.argv)
        traced, _ = runner.cli(wl.argv, traced=True)
    assert plain["rc"] == 0 and traced["rc"] == 0
    assert plain["digests"] and traced["digests"] == plain["digests"]
    metrics = tracer.layer_metrics(traced["spans"], traced["wall_s"], wl.n_t)
    assert metrics["coverage"] >= 0.9
