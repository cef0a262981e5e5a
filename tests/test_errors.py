import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drcs_forge import ambiguity, bounds
from drcs_forge.drcs import Zone, build_drcs, export_drcs
from drcs_forge.errors import (
    ParseError,
    SchemaError,
    json_int_array,
    json_object,
    json_text,
)
from drcs_forge.hadamard import dft_matrix, walsh_hadamard
from drcs_forge.rectangles import build_circular_quasi_florentine, search_max_rows


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=1)


ODD_VALUES = {
    "empty": [],
    "empty_object": {},
    "nested_empty": [[], [[]], {}, [{}]],
    "bools": [True, False, [True, 1, 0, False]],
    "none": [None, {"x": None}],
    "floats": [0.1, -0.0, 1e300, 5e-324, float("inf"), float("-inf"), float("nan")],
    "numpy_float": [np.float64(0.1), np.float64("inf")],
    "big_ints": [2**70, -(2**70), -1, 0],
    "ints_and_floats": [1, 2.0, 3],
    "tuple": (1, (2, 3), ()),
    "text": ["plain", "café ✓ \U0001d11e", "quote\" back\\ nl\n tab\t nul\x00 \x1f"],
    "keys": {"b": 1, "a": {"é": 2, "\n": 3}, "": 4},
    "int_keys": {2: "two", 10: "ten", -1: "minus"},
    "float_keys": {0.5: "half", 1e20: "big"},
    "bool_keys": {True: 1, False: 0},
    "scalar_str": "just a string",
    "scalar_int": 7,
}


@pytest.mark.parametrize("obj", list(ODD_VALUES.values()), ids=list(ODD_VALUES))
def test_writer_matches_json_dumps_on_odd_values(obj):
    assert json_text(obj) == dumps(obj)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=4), children, max_size=5),
    max_leaves=30,
)


@given(json_values)
@settings(max_examples=100, deadline=None)
def test_writer_matches_json_dumps_on_drawn_values(obj):
    assert json_text(obj) == dumps(obj)


@pytest.mark.parametrize("arr", [
    np.arange(24).reshape(2, 3, 4) % 5,
    np.array([[-3, 7], [0, -3]]),
    np.array([0, 10**15, 5]),           # range wider than the array
    np.array([4]),
    np.zeros((0,), dtype=np.int64),
    np.zeros((2, 0, 3), dtype=np.int64),
], ids=["small_range", "negative", "wide_range", "one", "empty", "empty_axis"])
def test_writer_takes_integer_arrays_as_lists(arr):
    assert json_text({"a": arr, "b": [arr]}) == dumps({"a": arr.tolist(), "b": [arr.tolist()]})


@pytest.mark.parametrize("obj", [np.int64(3), [np.int64(3)], {1, 2}, np.array(3),
                                 np.array([0.5]), {(1, 2): 3}])
def test_writer_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError):
        dumps(obj)
    with pytest.raises(TypeError):
        json_text(obj)


ARTIFACTS = ("rect", "bh", "walsh", "set", "search", "eval", "infeasible", "error")


@pytest.fixture(scope="module")
def artifacts():
    """One object of each kind the CLI writes as JSON."""
    A = build_circular_quasi_florentine(3, 2)
    B = dft_matrix(9)
    S = build_drcs(A, B)
    rect, cert = search_max_rows(4, 3)
    rep = ambiguity.theta_max(S)
    return {
        "rect": A.to_json(),
        "bh": B.to_json(),
        "walsh": walsh_hadamard(2).to_json(),
        "set": S.to_json(),
        "search": {"rectangle": rect.to_json(), "certificate": cert},
        "eval": {"theta": rep.to_json(), "paranoid": "ok",
                 "bound": bounds.optimality_factor(S, rep).to_json()},
        "infeasible": {"theta": ambiguity.theta_max(S, Zone(4, 3)).to_json(),
                       "bound": {"infeasible": True,
                                 "flags": bounds.af_lower_bound(S.K, S.M, S.L, 3, 4)}},
        "error": ParseError("cannot read \"xé\": no such file").payload(),
    }


@pytest.mark.parametrize("name", ARTIFACTS)
def test_writer_matches_json_dumps_on_artifacts(artifacts, name):
    obj = artifacts[name]
    assert json_text(obj) == dumps(obj)


def test_export_writes_the_text_of_to_json(tmp_path):
    S = build_drcs(build_circular_quasi_florentine(3, 2), dft_matrix(9))
    path = tmp_path / "s.json"
    export_drcs(S, str(path))
    assert path.read_text() == dumps(S.to_json()) + "\n"


@pytest.mark.parametrize("value", [
    [0, True],
    [[0, 1], [False, 1]],
    [[[1, 2]], [[3, True]]],
], ids=["row", "matrix", "flocks"])
def test_int_array_refuses_booleans_among_integers(value):
    with pytest.raises(SchemaError):
        json_int_array(value, "rows", SchemaError)


def test_int_array_accepts_integers():
    assert json_int_array([[0, 1], [2, 3]], "rows", SchemaError).tolist() == [[0, 1], [2, 3]]
    assert json_int_array([], "rows", SchemaError).size == 0


def test_object_field():
    assert json_object(None, "provenance", SchemaError) == {}
    assert json_object({"a": 1}, "provenance", SchemaError) == {"a": 1}
    for bad in ("x", [["a", 1]], 3):
        with pytest.raises(SchemaError):
            json_object(bad, "provenance", SchemaError)
