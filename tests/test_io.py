"""Definition-file parsers under fuzzed JSON-shaped input: each call either
returns a map with finite coefficients or raises InputError."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn.errors import InputError
from circledyn.io import family_from_dict, skew_from_dict

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
        assert all(j >= 1 for j, _, _ in fam.harmonics)
        assert all(map(math.isfinite, list(fam.const.coeffs) + coefficients(fam.harmonics)))


@FUZZ
@given(document(("jx", "jy")))
def test_skew_from_dict_fuzz(doc):
    F = parse(skew_from_dict, doc)
    if F is not None:
        assert F.m >= 2
        assert all(map(math.isfinite, coefficients(F.harmonics)))
