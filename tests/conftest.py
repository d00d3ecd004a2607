"""Subprocesses started by the tests (``python -m circledyn.cli``) import
the package from this checkout's ``src``, as the tests themselves do
through ``pythonpath`` in pyproject.toml, also when it is not installed."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
