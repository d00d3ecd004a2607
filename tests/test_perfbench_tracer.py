"""The benchmark's traced runs bind library functions by name and read
some of their arguments; a rename or a dropped argument would break them
only when the benchmark runs.  These tests import ``perfbench/tracer.py``
(without writing bytecode next to it) and check both against the package,
and run it on CLI calls to check that it records the layers they run.
"""

import collections
import importlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")

# arguments that the tracer's count functions read, by traced function
READ_ARGS = {
    ("rotation", "is_locked"): ("fam", "q", "grid"),
    ("rotation", "displacement_batch"): ("fam", "ts", "n_iter"),
    ("rotation", "rho_estimate"): ("fam", "n_iter"),
    ("rotation", "classify_batch"): ("ts",),
    ("diophantine", "dio_measure"): ("params",),
    ("io", "write_csv"): ("path",),
    ("io", "write_report"): ("path",),
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    old, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = old
    return mod


def test_every_traced_name_resolves(tracer):
    for layer, name, _ in tracer.SPANS:
        fn = getattr(importlib.import_module(f"circledyn.{layer}"), name, None)
        assert callable(fn), f"circledyn.{layer}.{name}"
    for layer, cls, meth in tracer.METHOD_SPANS + tracer.ORBIT_EVALS:
        klass = getattr(importlib.import_module(f"circledyn.{layer}"), cls, None)
        assert callable(getattr(klass, meth, None)), f"circledyn.{layer}.{cls}.{meth}"


def test_counted_arguments_exist(tracer):
    counted = {(layer, name) for layer, name, count in tracer.SPANS if count is not None}
    assert set(READ_ARGS) <= counted
    for (layer, name), args in READ_ARGS.items():
        params = inspect.signature(getattr(importlib.import_module(f"circledyn.{layer}"), name))
        missing = [a for a in args if a not in params.parameters]
        assert not missing, f"circledyn.{layer}.{name} lost {missing}"


@pytest.mark.parametrize("argv, spans", [
    (["dio", "--C", "0.1,0.2", "--nmax", "5", "--grid", "1000"],
     {"diophantine.dio_measure": 2}),
    (["skew", "--input", "{skew}", "--t", "0.1", "--nmax", "2", "--workers", "1"],
     {"skew.restricted_family": 3, "skew.a3_check": 3, "rotation.classify": 1,
      "rotation.is_locked": 1, "farey.fractions_in_interval": 1}),
], ids=["dio", "skew"])
def test_traced_call_records_its_layers(argv, spans, tmp_path):
    # the tracer wraps the functions of the modules loaded once it has
    # imported circledyn.cli; layers a subcommand imports later must be there
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({"m": 2, "harmonics": [
        {"jx": 0, "jy": 1, "a": [0.0], "b": [0.05 / (2 * math.pi) ** 3]}]}))
    argv = [a.format(skew=path) for a in argv] + ["--out", str(tmp_path / "o")]
    res = subprocess.run([sys.executable, "-B", TRACER, str(tmp_path / "spans.json"), *argv],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    recorded = collections.Counter(s[0] for s in json.loads((tmp_path / "spans.json").read_text()))
    assert {name: recorded[name] for name in spans} == spans
