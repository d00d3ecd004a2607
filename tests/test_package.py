"""The package root serves its public names lazily, on first use (PEP 562)."""

import importlib
import os
import subprocess
import sys

import pytest

import circledyn


def test_every_export_is_its_module_attribute():
    for name in circledyn.__all__:
        module = importlib.import_module(f"circledyn.{circledyn._MODULE_OF[name]}")
        value = getattr(circledyn, name)
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from circledyn import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(circledyn.__all__)


# in a fresh interpreter, after ``import circledyn``: ``run()`` joins the
# names of the package's modules whose body has run
RUN_MODULES = ("import sys, types; import circledyn; "
               "run = lambda: ','.join(n for n, m in sys.modules.items() "
               "if n.startswith('circledyn.') and type(m) is types.ModuleType) or '-'; ")


def test_import_runs_no_module_until_a_name_is_used():
    # README's first line of library use
    code = RUN_MODULES + ("before = run(); from circledyn import classify, enumerate_windows; "
                          "print(before, classify.__module__, enumerate_windows.__module__)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["-", "circledyn.rotation", "circledyn.windows"]


def test_import_binds_every_library_module():
    # bound in the package and in sys.modules, so that a walk of either finds
    # them, and each run on the first read of one of its attributes
    code = RUN_MODULES + (
        "names = sorted(n for n in sys.modules if n.startswith('circledyn.')); "
        "bound = all(getattr(circledyn, n.split('.')[1]) is sys.modules[n] for n in names); "
        "before = run(); circledyn.diophantine.MAX_N_MAX; "
        "print(bound, before, run(), *names)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    bound, before, after, *names = res.stdout.split()
    assert (bound, before, after) == ("True", "-", "circledyn.diophantine")
    library = [f.removesuffix(".py") for f in os.listdir(os.path.dirname(circledyn.__file__))
               if f.endswith(".py") and f not in ("__init__.py", "cli.py")]
    assert names == sorted(f"circledyn.{m}" for m in library)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        circledyn.no_such_name
    assert not hasattr(circledyn, "rotation_number")


def test_dir_lists_the_exports():
    listed = dir(circledyn)
    assert set(circledyn.__all__) <= set(listed)
    assert "__version__" in listed and listed == sorted(listed)
