"""Definition-file parsers under fuzzed JSON-shaped input: each call either
returns a map with finite coefficients or raises InputError.  And the bytes
of ``report.json``."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn.errors import InputError
from circledyn.io import MAX_HARMONIC, ExperimentReport, family_from_dict, skew_from_dict

# json.load can return NaN and +-Infinity, so floats include them
SCALARS = (st.none() | st.booleans() | st.integers(-3, 4) | st.integers()
           | st.floats() | st.text(max_size=3))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
COEFFS = SCALARS | st.lists(SCALARS, max_size=3)


def document(index_keys):
    """Near-valid definition documents with random leaves, and any JSON value."""
    harmonic = st.fixed_dictionaries(
        {}, optional={**{k: SCALARS for k in index_keys}, "a": COEFFS, "b": COEFFS})
    fields = {"const": COEFFS, "winding": SCALARS, "m": SCALARS, "label": VALUES,
              "harmonics": st.lists(harmonic | VALUES, max_size=3) | VALUES}
    return st.fixed_dictionaries({}, optional=fields) | VALUES


FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def coefficients(harmonics):
    return [c for h in harmonics for poly in h[-2:] for c in poly.coeffs]


def parse(fn, doc):
    try:
        return fn(doc, where="fuzz.json")
    except InputError as e:
        assert str(e).startswith("fuzz.json: ")
        return None


@FUZZ
@given(document(("j",)))
def test_family_from_dict_fuzz(doc):
    fam = parse(family_from_dict, doc)
    if fam is not None:
        assert fam.winding >= 1
        assert all(1 <= j <= MAX_HARMONIC for j, _, _ in fam.harmonics)
        assert all(map(math.isfinite, list(fam.const.coeffs) + coefficients(fam.harmonics)))


@FUZZ
@given(document(("jx", "jy")))
def test_skew_from_dict_fuzz(doc):
    F = parse(skew_from_dict, doc)
    if F is not None:
        assert F.m >= 2
        assert all(abs(jy) <= MAX_HARMONIC for _, jy, _, _ in F.harmonics)
        assert all(map(math.isfinite, coefficients(F.harmonics)))


def test_report_json_is_the_seven_fields():
    # the payload to_json wrote when it listed the fields by hand
    report = ExperimentReport(
        experiment="theoremA", tool_version="0.1.0",
        inputs={"skew": "s.json", "config": {"qmax": 30, "seed": 7, "deltas": None}},
        input_hashes={"skew": "ab" * 32},
        hypotheses={"norms": [0.25, 0.5], "windings": (1, 2), "conforming": True,
                    "nested": {"z": {"b": [1.5, {"c": -0.0}], "a": []}}},
        wall_clock_s=1.25)
    report.add_table("circles", ("n", "k", "c3"), [(1, 0, 0.125), (2, 1, math.inf)])
    report.add_table("empty", ["x"], [])
    old = {
        "experiment": report.experiment,
        "tool_version": report.tool_version,
        "inputs": report.inputs,
        "input_hashes": report.input_hashes,
        "hypotheses": report.hypotheses,
        "tables": report.tables,
        "wall_clock_s": report.wall_clock_s,
    }
    assert report.to_json() == json.dumps(old, indent=2, sort_keys=True) + "\n"
