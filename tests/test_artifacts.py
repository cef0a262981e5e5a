"""The fast reader of canonical artifact files, and what reading, building
and writing a set cost in memory.

A canonical file is read in blocks: its header, null where the table
was, is parsed by json and gives the table's shape, and the table is
parsed straight into an array of its class's dtype (int64, or a set's
narrowest that holds r - 1). It is canonical when the writer's text of
what was read, and a newline, is the whole file; any other file is read
through json. The two paths must agree on every file, at every block
size: the same artifact and digest, or the same error.
"""

import collections
import contextlib
import copy
import io
import json
import math
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drcs_forge import _artifacts, ambiguity, drcs
from drcs_forge._artifacts import json_text
from drcs_forge.cli import main
from drcs_forge.drcs import DrcsSet, Zone, build_drcs, export_drcs, import_drcs
from drcs_forge.errors import DrcsForgeError, ParamsOutOfRangeError, ParseError, SchemaError
from drcs_forge.hadamard import PhaseMatrix, dft_matrix, load_seed
from drcs_forge.rectangles import (
    Rectangle,
    build_circular_quasi_florentine,
    build_extended_quasi_florentine,
    product_construct,
)

DESK_PIPELINE = os.path.join(os.path.dirname(__file__), "data", "pipeline_desk.json")

# -- the fast path agrees with json --

MODULI = st.sampled_from([1, 2, 3, 7, 10, 11, 300, 2 ** 40, 2 ** 63 - 1])


@st.composite
def artifacts(draw):
    """A small rectangle, Butson table or set (tables need not be Butson)."""
    kind = draw(st.sampled_from([Rectangle, PhaseMatrix, DrcsSet]))
    modulus = draw(MODULI)
    ndim = 3 if kind is DrcsSet else 2
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=ndim, max_size=ndim)))
    if kind is PhaseMatrix:
        shape = (shape[0], shape[0])
    size = math.prod(shape)
    top = draw(st.sampled_from([modulus, min(modulus, 12)]))
    values = draw(st.lists(st.integers(0, top - 1), min_size=size, max_size=size))
    table = np.array(values, dtype=np.int64).reshape(shape)
    provenance = draw(st.sampled_from([None, {"builder": "x", "n": [1, [2, 3]]}]))
    if kind is Rectangle:
        return Rectangle(modulus, table, provenance)
    if kind is PhaseMatrix:
        return PhaseMatrix(shape[0], modulus, table, provenance)
    L = shape[2]
    return DrcsSet(table, modulus, Zone(draw(st.integers(1, L)), draw(st.integers(1, L))),
                   provenance)


def _span(text, field):
    """Where the table's text starts and ends in a canonical text."""
    start = text.index('\n "%s": [' % field) + len(field) + 6
    return start, text.index("\n ]", start) + 3


def _replace_value(text, span, pos, token):
    """text with one of the table's numbers, picked by pos, replaced."""
    lines = text[span[0]:span[1]].split("\n")
    values = [i for i, line in enumerate(lines) if line.strip(" ,")[:1].isdigit()]
    i = values[pos % len(values)]
    lines[i] = lines[i].replace(lines[i].strip(" ,"), token)
    return text[:span[0]] + "\n".join(lines) + text[span[1]:]


TOKENS = ["00", "01", "-0", "-1", "1e2", "1.0", "true", "null", "+1", "0x1", "1 2",
          "1234567890123456789", "9223372036854775807", "9223372036854775808",
          "-9223372036854775809", "99999999999999999999"]


@st.composite
def mutated(draw):
    """(class, file bytes, whether the text is canonical): a canonical text
    as the writer makes it, or that text mutated."""
    A = draw(artifacts())
    field = type(A).TABLE_FIELD
    text = json_text(A._fields()) + "\n"
    span = _span(text, field)
    pos = draw(st.integers(0, 10 ** 6))
    inside = span[0] + pos % (span[1] - span[0])
    how = draw(st.sampled_from(["none", "token", "bracket", "unbracket", "indent", "dedent",
                                "duplicate", "moved", "nan", "truncate", "bom", "utf16",
                                "crlf", "longint", "nonascii"]))
    if how == "token":
        text = _replace_value(text, span, pos, draw(st.sampled_from(TOKENS)))
    elif how == "bracket":
        text = text[:inside] + draw(st.sampled_from(["[", "]", "[]", ","])) + text[inside:]
    elif how == "unbracket":
        cut = [i for i in range(*span) if text[i] in "[],"]
        i = cut[pos % len(cut)]
        text = text[:i] + text[i + 1:]
    elif how in ("indent", "dedent"):
        lines = [i for i in range(*span) if text[i] == "\n"]
        i = lines[pos % len(lines)] + 1
        text = text[:i] + " " + text[i:] if how == "indent" else text[:i] + text[i + 1:]
    elif how == "duplicate":
        # the table's key again, before or after the real one
        extra = '\n "%s": %s,' % (field, draw(st.sampled_from(["[\n  [\n   1\n  ]\n ]", "5",
                                                                 "null", "[]"])))
        at = text.index("\n") if draw(st.booleans()) else text.rindex(",\n") + 1
        text = text[:at] + extra + text[at:]
    elif how == "moved":
        # the table's key at the other end of the object
        obj = json.loads(text)
        table = obj.pop(field)
        obj = {field: table, **obj} if text.rstrip().endswith("]\n}") else {**obj, field: table}
        text = json.dumps(obj, indent=1) + "\n"
    elif how == "nan":
        text = text.replace('"provenance": {', '"provenance": {\n  "x": NaN,', 1)
    elif how == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif how == "crlf":
        text = text.replace("\n", "\r\n")
    elif how == "longint":
        # over Python's 4,300-digit limit on int(str)
        header = list(re.finditer(r'\n "\w+": (\d+)', text))
        m = header[pos % len(header)]
        text = text[:m.start(1)] + "9" * 5000 + text[m.end(1):]
    elif how == "nonascii":
        # the writer's layout with a raw UTF-8 byte pair, where it writes \u00e9
        obj = json.loads(text)
        obj["provenance"]["note"] = "\u00e9"
        text = json.dumps(obj, sort_keys=True, indent=1, ensure_ascii=False) + "\n"
    if how == "bom":
        data = b"\xef\xbb\xbf" + text.encode()
    elif how == "utf16":
        data = text.encode(draw(st.sampled_from(["utf-16", "utf-16-le", "utf-16-be"])))
    else:
        data = text.encode()
    return type(A), data, how == "none"


def _read(cls, path, fast):
    """cls.read(path) through an empty cache, with or without the fast
    path: the artifact and digest, or the error's type, payload and exit
    code."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(_artifacts, "_cache", collections.OrderedDict()))
        if not fast:
            stack.enter_context(mock.patch.object(_artifacts, "_canonical_value",
                                                  return_value=None))
        try:
            return cls.read(path)
        except DrcsForgeError as exc:
            return type(exc), exc.payload(), exc.exit_code


def _same(a, b):
    if not isinstance(a[0], _artifacts.Table):
        return a == b
    (x, sha_x), (y, sha_y) = a, b
    fx, fy = x._fields(), y._fields()
    return (sha_x == sha_y and fx.keys() == fy.keys()
            and all(np.array_equal(fx[k], fy[k]) if isinstance(fx[k], np.ndarray)
                    else fx[k] == fy[k] for k in fx))


@given(mutated())
@settings(max_examples=600, deadline=None)
def test_fast_and_json_paths_agree(tmp_path_factory, case):
    cls, data, canonical = case
    path = tmp_path_factory.getbasetemp() / "agree.json"
    path.write_bytes(data)
    if canonical:
        assert _artifacts._canonical_value(io.BytesIO(data), cls) is not None
    fast, slow = _read(cls, path, True), _read(cls, path, False)
    assert _same(fast, slow), (data, fast, slow)
    if isinstance(fast[0], _artifacts.Table):
        fields = fast[0]._fields()
        table = fields[cls.TABLE_FIELD]
        # the class's dtype for the parsed modulus: a set's is narrow
        assert type(table) is np.ndarray and table.dtype == cls._dtype(fields.get(cls.MODULUS_FIELD))
        assert not table.flags.writeable


@given(mutated(), st.sampled_from([1, 2, 7, 64]))
@settings(max_examples=400, deadline=None)
def test_every_block_size_reads_as_json_does(tmp_path_factory, case, block):
    """Blocks so small that numbers, "]\n ]" and the table's key are split
    across them, the key in the first block or a later one."""
    cls, data, canonical = case
    path = tmp_path_factory.getbasetemp() / "blocks.json"
    path.write_bytes(data)
    slow = _read(cls, path, False)
    with mock.patch.object(_artifacts, "_READ_BYTES", block), \
         mock.patch.object(_artifacts, "_SURVEY_BYTES", block):
        if canonical:
            assert _artifacts._canonical_value(io.BytesIO(data), cls) is not None
        fast = _read(cls, path, True)
    assert _same(fast, slow), (block, data, fast, slow)


def test_nesting_deeper_than_numpy_allows_goes_the_json_way(tmp_path):
    """A table 70 lists deep in the writer's layout is refused as json
    refuses it, not with numpy's ValueError."""
    table = 0
    for _ in range(70):
        table = [table]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"N": 2, "n": 1, "rows": table}, indent=1) + "\n")
    fast, slow = _read(Rectangle, path, True), _read(Rectangle, path, False)
    assert fast == slow and fast[2] == 4


def _nested(depth):
    deep = []
    for _ in range(depth - 1):
        deep = [deep]
    return deep


def _small_rect():
    return build_circular_quasi_florentine(2, 2)


@pytest.mark.parametrize("canonical", [True, False], ids=["fast_path", "json_path"])
@pytest.mark.parametrize("reader, make, error", [
    (Rectangle.read, _small_rect, ParseError),
    (load_seed, lambda: dft_matrix(4), ParseError),
    (import_drcs, lambda: build_drcs(Rectangle(4, _small_rect().rows[:2]), dft_matrix(4)),
     SchemaError),
], ids=["Rectangle.read", "load_seed", "import_drcs"])
def test_a_provenance_too_deep_to_copy_is_the_readers_error(tmp_path, reader, make, error,
                                                            canonical):
    """json parses a provenance 600 lists deep, but it is too deep to
    check or copy: each reader raises its class's read error, not a bare
    RecursionError, and caches nothing."""
    obj = make().to_json()
    obj["provenance"] = {"deep": _nested(600)}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(obj, sort_keys=True, indent=1 if canonical else None) + "\n")
    with pytest.raises(error, match="input nested too deep"):
        reader(str(path))
    assert all(key[1] != str(path) for key in _artifacts._cache)


def test_a_rectangle_450_lists_deep_survives_the_writer_and_the_reader(tmp_path):
    q = _small_rect()
    R = Rectangle(q.N, q.rows, provenance={"deep": _nested(450)})
    path = tmp_path / "deep.json"
    path.write_text(json_text(R._fields()) + "\n")
    back, _ = Rectangle.read(str(path))
    assert back == R and back.provenance == R.provenance


def test_every_artifact_the_cli_writes_takes_the_fast_path(tmp_path, monkeypatch, capsys):
    """The desk pipeline's rectangle, Butson table and set, and eval-long's
    N = 160 set: a writer change to any header byte would send them all
    the json way, which no output shows, only the memory a read takes."""
    monkeypatch.chdir(tmp_path)
    assert main(["pipeline", DESK_PIPELINE]) == 0
    capsys.readouterr()
    rect = product_construct(build_circular_quasi_florentine(2, 4),
                             build_extended_quasi_florentine(3, 2))
    export_drcs(build_drcs(rect, dft_matrix(160)), tmp_path / "set160.json")
    for name, cls in [("rect.json", Rectangle), ("bh.json", PhaseMatrix),
                      ("set.json", DrcsSet), ("set160.json", DrcsSet)]:
        with open(tmp_path / name, "rb") as fh:
            assert _artifacts._canonical_value(fh, cls) is not None, name


# -- the size cap on set files --

def _small_set_file(tmp_path):
    """A 2 x 4 x 3 set (24 entries) in the writer's layout."""
    q = build_circular_quasi_florentine(2, 2)
    path = tmp_path / "s.json"
    export_drcs(build_drcs(Rectangle(q.N, q.rows[:2]), dft_matrix(4)), path)
    return path


def _refuses(*args, **kwargs):
    raise AssertionError("the table was allocated")


def test_set_file_over_the_cap_is_refused_before_its_table_is_made(tmp_path):
    path = _small_set_file(tmp_path)
    with mock.patch.object(drcs, "SET_CAP", 23), \
         mock.patch.object(_artifacts, "_parse_ints", _refuses), \
         mock.patch.object(drcs, "json_int_array", _refuses):
        fast, slow = _read(DrcsSet, path, True), _read(DrcsSet, path, False)
    assert fast == slow
    assert fast[0] is ParamsOutOfRangeError and fast[2] == 3
    assert "2 x 4 x 3" in fast[1]["message"]
    with mock.patch.object(drcs, "SET_CAP", 24):
        assert _read(DrcsSet, path, True)[0].flocks.shape == (2, 4, 3)
        assert _read(DrcsSet, path, False)[0].flocks.shape == (2, 4, 3)


@pytest.mark.parametrize("K, M, error", [(3, 4, ParamsOutOfRangeError), (-3, -4, SchemaError)],
                         ids=["over_the_cap", "negative"])
def test_a_header_gets_one_answer_in_either_layout(tmp_path, K, M, error):
    """A 24-entry table whose header declares K = 3, 36 entries, exits 3
    in the writer's layout and as compact JSON, whose text the fast path
    does not take; a header of negative sizes whose product is as large
    exits 4 in both, its shape not the table's."""
    path = _small_set_file(tmp_path)
    doc = json.loads(path.read_text())
    doc["K"], doc["M"] = K, M
    compact = tmp_path / "compact.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    compact.write_text(json.dumps(doc))
    with mock.patch.object(drcs, "SET_CAP", 30):
        for p in (path, compact):
            got, _, code = _read(DrcsSet, p, True)
            assert got is error and code == error.exit_code


# -- memory --

def _peak(call):
    """call()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _million():
    """A rectangle and a Butson table whose set has 16 x 256 x 255, about
    a million, entries."""
    q = build_circular_quasi_florentine(2, 8)
    return Rectangle(q.N, q.rows[:16]), dft_matrix(256)


def test_build_and_export_hold_about_one_array(tmp_path):
    A, B = _million()
    path = tmp_path / "s.json"
    _, peak = _peak(lambda: export_drcs(build_drcs(A, B), path))
    array = 16 * 256 * 255 * 8
    assert peak <= 1.25 * array + B.exps.nbytes


def test_cold_import_holds_the_file_and_about_one_array(tmp_path):
    A, B = _million()
    path = tmp_path / "s.json"
    export_drcs(build_drcs(A, B), path)
    with mock.patch.object(_artifacts, "_cache", collections.OrderedDict()):
        S, peak = _peak(lambda: import_drcs(path))
    assert S.flocks.shape == (16, 256, 255)
    assert peak <= os.path.getsize(path) + 1.25 * S.flocks.nbytes


def test_cold_import_holds_about_one_array(tmp_path):
    """The file is read in blocks, never whole: the peak is the larger of
    the array (int16, as r = 256) and the first pass's buffer, which is
    freed before the array is made, plus a few small blocks, whatever the
    file's size."""
    A, B = _million()
    path = tmp_path / "s.json"
    export_drcs(build_drcs(A, B), path)
    with mock.patch.object(_artifacts, "_cache", collections.OrderedDict()):
        S, peak = _peak(lambda: import_drcs(path))
    assert S.flocks.shape == (16, 256, 255)
    assert os.path.getsize(path) > S.flocks.nbytes
    assert S.flocks.dtype == np.int16
    assert peak <= max(S.flocks.nbytes, _artifacts._SURVEY_BYTES) + (1 << 20)


def _searches(*args, **kwargs):
    raise AssertionError("the file was searched")


def test_a_cache_hit_holds_one_buffer_and_searches_nothing(tmp_path):
    """A second read of a file over 4 MiB only hashes it, through one
    buffer of _SURVEY_BYTES; the table's key and end are not looked for."""
    A, B = _million()
    path = tmp_path / "s.json"
    export_drcs(build_drcs(A, B), path)
    assert os.path.getsize(path) > 2 * _artifacts._SURVEY_BYTES
    with mock.patch.object(_artifacts, "_cache", collections.OrderedDict()):
        S = import_drcs(path)
        with mock.patch.object(_artifacts, "_find", _searches), \
             mock.patch.object(_artifacts, "_rfind", _searches):
            T, peak = _peak(lambda: import_drcs(path))
    assert T == S
    assert peak <= _artifacts._SURVEY_BYTES + (1 << 16)


def test_a_wide_value_range_is_written_and_read_a_block_at_a_time(tmp_path):
    """Exponents spread over 2^40 leave no table of tokens to use; each
    block's entries are formatted as they come, never the whole table."""
    rng = np.random.default_rng(0)
    S = DrcsSet(rng.integers(0, 2 ** 40, size=(16, 64, 63)), 2 ** 40)
    path = tmp_path / "s.json"
    _, peak = _peak(lambda: export_drcs(S, path))
    assert peak <= 3 << 20
    with mock.patch.object(_artifacts, "_cache", collections.OrderedDict()):
        T, peak = _peak(lambda: import_drcs(path))
    assert T == S
    assert peak <= S.flocks.nbytes + (3 << 20)


def test_a_callers_array_is_copied():
    # int8 is the set's own dtype for r = 2: that copy is not a cast's
    for user in (np.zeros((2, 3, 4), dtype=np.int64), np.zeros((2, 3, 4), dtype=np.int8)):
        for S in (DrcsSet(user, 2), DrcsSet.from_json({"flocks": user, "r": 2})):
            assert user.flags.writeable and not S.flocks.flags.writeable
            assert not np.shares_memory(S.flocks, user)


def test_a_callers_wide_array_costs_one_narrow_copy():
    user = np.zeros((16, 256, 256), dtype=np.int64)
    tracemalloc.start()
    try:
        S = DrcsSet(user, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S.flocks.dtype == np.int16
    assert peak < S.flocks.nbytes + (1 << 16)


def test_a_shape_larger_than_its_text_is_not_allocated():
    """A long first row and many empty ones make a 1001 x 1000 table with
    the header's n, but the text can hold at most one value per two
    bytes."""
    text = ('{\n "N": 2,\n "n": 1000,\n "rows": [\n  [\n' + ",\n".join(["   0"] * 1000)
            + "\n  ]" + ",\n  []" * 1000 + "\n ]\n}\n")
    with mock.patch.object(_artifacts, "_parse_ints", _refuses):
        assert _artifacts._canonical_value(io.BytesIO(text.encode()), Rectangle) is None


# -- a set's dtype: the narrowest signed one that holds r - 1 --

DTYPE_OF_R = {1: np.int8, 2: np.int8, 127: np.int8, 128: np.int8, 129: np.int16,
              2 ** 15: np.int16, 2 ** 15 + 1: np.int32, 2 ** 31: np.int32,
              2 ** 31 + 1: np.int64, 2 ** 40: np.int64}


@st.composite
def boundary_sets(draw):
    """A small set whose r is at a dtype's boundary, with 0 and r - 1
    among its entries as often as not."""
    r = draw(st.sampled_from(sorted(DTYPE_OF_R)))
    K, M, L = (draw(st.integers(1, 3)) for _ in range(3))
    values = st.sampled_from([0, r - 1]) | st.integers(0, r - 1)
    table = draw(st.lists(values, min_size=K * M * L, max_size=K * M * L))
    zone = Zone(draw(st.integers(1, L)), draw(st.integers(1, L)))
    return DrcsSet(np.array(table, dtype=np.int64).reshape(K, M, L), r, zone, {"source": "x"})


@given(boundary_sets())
@settings(max_examples=150, deadline=None)
def test_a_set_keeps_its_dtype_and_bytes_through_both_paths(tmp_path_factory, S):
    assert S.flocks.dtype == DTYPE_OF_R[S.r]
    path = tmp_path_factory.getbasetemp() / "boundary.json"
    again = tmp_path_factory.getbasetemp() / "boundary_again.json"
    export_drcs(S, path)
    data = path.read_bytes()
    assert _artifacts._canonical_value(io.BytesIO(data), DrcsSet) is not None
    for fast in (True, False):
        T, _ = _read(DrcsSet, path, fast)
        assert T.flocks.dtype == DTYPE_OF_R[S.r] and T == S
        export_drcs(T, again)
        assert again.read_bytes() == data


def _theta_json(S, method):
    """theta_max(S)'s JSON, or the error it raises (a root order over
    GRID_CAP is refused)."""
    try:
        return json.dumps(ambiguity.theta_max(S, method=method).to_json())
    except DrcsForgeError as exc:
        return exc.payload()


@given(boundary_sets(), st.sampled_from(["fft", "naive"]))
@settings(max_examples=100, deadline=None)
def test_theta_max_of_a_narrow_set_is_that_of_its_int64_copy(S, method):
    wide = copy.copy(S)
    wide.flocks = S.flocks.astype(np.int64)
    expected = _theta_json(wide, method)
    assert _theta_json(S, method) == expected


# 2^15, 2^16 + 5 (which wraps to 5, inside [0, 300)), 70000 and 2^63 - 1
# do not fit int16; r and -1 do, and lie outside [0, r)
WRAPS = [2 ** 15, 2 ** 16 + 5, 70000, 2 ** 63 - 1]


class _WideSet(DrcsSet):
    """A set read into int64 whatever its r."""

    _dtype = staticmethod(_artifacts.Table._dtype)


@pytest.mark.parametrize("entry", [300, -1] + WRAPS)
def test_an_entry_out_of_range_is_refused_on_both_paths(tmp_path, capsys, entry):
    flocks = np.array([[[0, 1, 299], [entry, 2, 3]]])
    doc = {"K": 1, "M": 2, "L": 3, "r": 300, "flocks": flocks, "zone": [3, 3],
           "provenance": {"source": "x"}}
    path = tmp_path / "s.json"
    path.write_text(json_text(doc) + "\n")
    data = path.read_bytes()
    # canonical as an int64 table; stored as int16, an entry that wraps
    # leaves text of its own, so no set is made from the wrapped array
    assert _artifacts._canonical_value(io.BytesIO(data), _WideSet) is not None
    narrow = _artifacts._canonical_value(io.BytesIO(data), DrcsSet)
    assert (narrow is None) == (entry in WRAPS)
    payload = {"error": "SchemaError", "message": "entries must lie in [0, 300)"}
    for fast in (True, False):
        assert _read(DrcsSet, path, fast) == (SchemaError, payload, 4)
        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(_artifacts, "_cache",
                                                  collections.OrderedDict()))
            if not fast:
                stack.enter_context(mock.patch.object(_artifacts, "_canonical_value",
                                                      return_value=None))
            assert main(["drcs", "eval", str(path)]) == 4
        assert json.loads(capsys.readouterr().err) == payload
