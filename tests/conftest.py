"""Subprocesses started by the tests (``python -m circledyn.cli``) import
the package from this checkout's ``src``, as the tests themselves do
through ``pythonpath`` in pyproject.toml, also when it is not installed."""

import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def small_blocks(monkeypatch):
    """Pooled sweeps split whatever their size (``rotation.MIN_BLOCK`` 0),
    so that the few values of a test still go out one block per worker."""
    from circledyn import rotation

    monkeypatch.setattr(rotation, "MIN_BLOCK", 0)


@pytest.fixture
def no_pools(monkeypatch):
    """Fail the test if a call starts a process pool."""
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
