"""The benchmark's traced runs bind library functions by name and read
some of their arguments; a rename or a dropped argument would break them
only when the benchmark runs.  These tests import ``perfbench/tracer.py``
(without writing bytecode next to it) and check both against the package.
"""

import importlib
import importlib.util
import inspect
import os
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
