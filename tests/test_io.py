"""Definition-file parsers under fuzzed JSON-shaped input: each call either
returns a map with finite coefficients or raises InputError.  And the record
that ``report.json`` holds."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn.cli import main
from circledyn.errors import InputError
from circledyn.io import MAX_HARMONIC, family_from_dict, skew_from_dict

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


def test_report_json_is_the_eight_fields(tmp_path):
    fam = tmp_path / "arnold.json"
    fam.write_text(json.dumps({"winding": 1, "harmonics": [{"j": 1, "a": [0.0], "b": [0.1]}]}))
    out = tmp_path / "o"
    assert main(["rho", "--input", str(fam), "--t", "0.05,0.25", "--qmax", "5",
                 "--workers", "1", "--seed", "7", "--out", str(out)]) == 0
    text = (out / "report.json").read_text()
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert set(report) == {"experiment", "tool_version", "inputs", "input_hashes",
                           "hypotheses", "outputs", "tables", "wall_clock_s"}
    assert report["experiment"] == "rho"
    assert report["inputs"]["family"] == str(fam)
    assert report["inputs"]["config"]["seed"] == 7
    assert set(report["input_hashes"]) == {"family"}
    assert report["hypotheses"] == {} and report["tables"] == {}
    assert list(report["outputs"]) == ["rho.csv"]
    assert report["wall_clock_s"] >= 0.0
