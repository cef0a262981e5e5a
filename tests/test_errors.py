import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes

from drcs_forge import _artifacts, ambiguity, bounds
from drcs_forge._artifacts import json_text, write_json
from drcs_forge.drcs import Zone, build_drcs, export_drcs, import_drcs
from drcs_forge.errors import (
    ParseError,
    SchemaError,
    json_int_array,
    json_object,
)
from drcs_forge.hadamard import PhaseMatrix, dft_matrix, load_seed, walsh_hadamard
from drcs_forge.rectangles import Rectangle, build_circular_quasi_florentine, search_max_rows


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


@st.composite
def int_arrays(draw):
    """Integer arrays of ndim 1 to 4 (axes of size 1 included) with a
    narrow value range, so the writer's token table path runs, or, when
    wide, a range that sends them through tolist."""
    shape = draw(array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=6))
    dtype = draw(st.sampled_from([np.int8, np.int32, np.int64]))
    lo = draw(st.integers(-60, 60))
    width = draw(st.integers(0, 3))
    values = draw(st.lists(st.integers(lo, lo + width), min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    arr = np.array(values, dtype=dtype).reshape(shape)
    if draw(st.booleans()) and draw(st.booleans()):  # wide range
        arr = arr.astype(np.int64) * 10**15
    return arr


@st.composite
def nested_arrays(draw):
    """An integer array 0 to 3 levels deep inside dicts and lists, and the
    same value with the array as lists."""
    arr = draw(int_arrays())
    obj, ref = arr, arr.tolist()
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            # one key type in a dict: json's key sort refuses a mix
            key = draw(st.text(max_size=3) | st.integers())
            other = "é" if isinstance(key, str) else -key - 1
            obj, ref = {key: obj, other: -1}, {key: ref, other: -1}
        else:
            obj, ref = [7, obj, "x"], [7, ref, "x"]
    return obj, ref


@given(nested_arrays(), st.sampled_from([1, 2, 3, 7, 1 << 16]))
@settings(max_examples=300, deadline=None)
def test_writer_matches_json_dumps_on_drawn_arrays(pair, block):
    obj, ref = pair
    saved = _artifacts._BLOCK
    _artifacts._BLOCK = block
    try:
        text = json_text(obj)
        fh = io.StringIO()
        write_json(obj, fh)
    finally:
        _artifacts._BLOCK = saved
    assert text == dumps(ref)
    assert fh.getvalue() == text + "\n"


@pytest.mark.parametrize("obj", [np.int64(3), [np.int64(3)], {1, 2}, np.array(3),
                                 np.array([0.5]), {(1, 2): 3}])
def test_writer_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError):
        dumps(obj)
    with pytest.raises(TypeError):
        json_text(obj)


@pytest.mark.parametrize("key", [2, 0.5, True, None], ids=["int", "float", "bool", "none"])
def test_writer_takes_keys_json_takes_beside_an_array(key):
    """Keys that are not str are written as json writes them, in a dict
    that holds an array as in one it holds deeper down."""
    arr = np.array([[1, -2], [3, 4]])
    obj = [{key: arr}, {key: {key: [7, arr]}}]
    ref = [{key: arr.tolist()}, {key: {key: [7, arr.tolist()]}}]
    assert json_text(obj) == dumps(ref)


def test_writer_refuses_a_document_that_holds_itself():
    doc = {"a": np.array([1]), "b": []}
    doc["b"].append(doc)
    with pytest.raises(ValueError, match="Circular reference"):
        json_text(doc)


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


# -- the artifact loader and its cache --

def test_rewritten_file_gives_the_new_content(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(dumps(dft_matrix(3).to_json()))
    assert PhaseMatrix.read(str(path))[0] == dft_matrix(3)
    path.write_text(dumps(dft_matrix(4).to_json()))
    B, sha = PhaseMatrix.read(str(path))
    assert B == dft_matrix(4)
    assert sha == _artifacts.hashlib.sha256(path.read_bytes()).hexdigest()


def test_returned_provenance_is_a_copy(tmp_path):
    path = tmp_path / "s.json"
    export_drcs(build_drcs(build_circular_quasi_florentine(2, 2), walsh_hadamard(2)), str(path))
    S = import_drcs(str(path))
    want = json.loads(json.dumps(S.provenance))
    S.provenance["extra"] = 1
    S.provenance["source"]["path"] = "elsewhere"
    S.provenance["rectangle"]["builder"] = "changed"
    again = import_drcs(str(path))
    assert again.provenance == want
    assert again.flocks is S.flocks  # the array is shared, read-only
    assert not again.flocks.flags.writeable


def test_seed_load_and_table_read_share_one_entry(tmp_path, monkeypatch):
    path = tmp_path / "t.json"
    path.write_text(dumps(dft_matrix(6).to_json()))
    parses = []
    real = PhaseMatrix.from_json.__func__
    monkeypatch.setattr(PhaseMatrix, "from_json",
                        classmethod(lambda cls, *a: parses.append(1) or real(cls, *a)))
    B, _ = PhaseMatrix.read(str(path))
    assert "source" not in B.provenance
    assert load_seed(str(path)).provenance["source"]["path"] == str(path)
    assert len(parses) == 1


@pytest.mark.parametrize("text, error", [
    ("{not json", ParseError),
    ('{"N": 2, "r": 2, "exps": [[0, 0], [0, 1.5]]}', ParseError),
    ('{"N": 2, "r": %s, "exps": [[0, 0], [0, 1]]}' % ("9" * 5000), ParseError),
], ids=["malformed", "bad_field", "longint"])
def test_failed_load_raises_every_time(tmp_path, text, error):
    path = tmp_path / "t.json"
    path.write_text(text)
    for _ in range(3):
        with pytest.raises(error):
            PhaseMatrix.read(str(path))
    path.write_text(dumps(dft_matrix(2).to_json()))
    assert PhaseMatrix.read(str(path))[0] == dft_matrix(2)
    path.write_text(text)
    with pytest.raises(error):
        PhaseMatrix.read(str(path))


def test_same_bytes_under_another_path_keep_their_own_source(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    text = dumps(dft_matrix(3).to_json())
    a.write_text(text)
    b.write_text(text)
    Ba, Bb = load_seed(str(a)), load_seed(str(b))
    assert Ba.provenance["source"]["path"] == str(a)
    assert Bb.provenance["source"]["path"] == str(b)
    assert Ba.provenance["source"]["sha256"] == Bb.provenance["source"]["sha256"]


def test_cache_stays_within_its_byte_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(_artifacts, "_cache", _artifacts.collections.OrderedDict())
    monkeypatch.setattr(_artifacts, "CACHE_BYTES", 3 * 16 * 16 * 8)  # three 16 x 16 tables
    for i in range(6):
        path = tmp_path / ("t%d.json" % i)
        path.write_text(dumps(dft_matrix(16).to_json() | {"provenance": {"i": i}}))
        assert PhaseMatrix.read(str(path))[0].provenance == {"i": i}
        held = sum(size for _, size in _artifacts._cache.values())
        assert 0 < held <= _artifacts.CACHE_BYTES
    assert [k[1] for k in _artifacts._cache] == [str(tmp_path / ("t%d.json" % i)) for i in (3, 4, 5)]
    big = tmp_path / "big.json"
    big.write_text(dumps(dft_matrix(28).to_json()))  # 6272 bytes, over the bound
    assert PhaseMatrix.read(str(big))[0] == dft_matrix(28)
    assert len(_artifacts._cache) == 3 and str(big) not in [k[1] for k in _artifacts._cache]


@pytest.mark.parametrize("encoding", ["utf-8", "utf-16", "utf-16-le", "utf-32"])
def test_true_in_a_string_does_not_let_a_boolean_through(tmp_path, encoding):
    """The boolean walk is skipped only when the decoded text holds no
    true or false; one inside a provenance string keeps it on."""
    path = tmp_path / "t.json"
    bad = {"N": 2, "r": 2, "exps": [[0, 0], [0, True]], "provenance": {"note": "true"}}
    path.write_bytes(json.dumps(bad).encode(encoding))
    with pytest.raises(ParseError):
        PhaseMatrix.read(str(path))
    del bad["provenance"]
    path.write_bytes(json.dumps(bad).encode(encoding))
    with pytest.raises(ParseError):
        PhaseMatrix.read(str(path))
    good = {"N": 2, "r": 2, "exps": [[0, 0], [0, 1]], "provenance": {"note": "true"}}
    path.write_bytes(json.dumps(good).encode(encoding))
    assert PhaseMatrix.read(str(path))[0].provenance == {"note": "true"}


@pytest.mark.parametrize("data", [b"\xff", b'{"N": 1, "r": 1, "exps": [[0]], "x": "\xe9"}',
                                  "[1]".encode("utf-16-le") + b"\x00"],
                         ids=["ff", "latin1", "odd_utf16"])
def test_undecodable_bytes_raise_the_loaders_error(tmp_path, data):
    path = tmp_path / "t.json"
    path.write_bytes(data)
    with pytest.raises(ParseError, match="cannot decode"):
        PhaseMatrix.read(str(path))
    with pytest.raises(ParseError, match="cannot decode"):
        Rectangle.read(str(path))
    with pytest.raises(SchemaError, match="cannot decode"):
        import_drcs(str(path))
    with pytest.raises(ParseError, match="cannot decode"):
        _artifacts.read_json(str(path), ParseError)
