"""Artifact I/O: Table, the base of rectangles, Butson tables and sets
and the one reader of their files; the writer for every JSON artifact,
and the one place an output file is opened.

Reading. Table.read reads a file's bytes and builds the artifact. Every
artifact file goes through it, the packaged fixtures included. A file
in the writer's own layout (canonical: UTF-8 with no BOM, the table at
"\n \"<field>\": [") takes a fast path: the table's text is parsed a
block at a time, straight into one int64 array, and the rest of the
document, the table replaced by a placeholder, by json. The array is
kept only if the writer's text for it, at that indent, is the table's
text byte for byte, which rules out leading zeros, -0, more digits
than int64 holds, a float or boolean, and nesting that is not the
array's shape. Any other file, or one that fails that check, is read
as before: its bytes decoded the way json.loads decodes bytes (UTF-8,
UTF-16 or UTF-32, told apart by a BOM or the zero-byte pattern) and
parsed by json. Both paths give the same artifact, or the same error: a
file that cannot be read, decoded or parsed raises the class's exit-4
error. Built artifacts are kept in a small LRU cache keyed by (class,
path, sha256 of the bytes), so a process that loads the same file
twice, such as a pipeline whose steps pass tables along, parses it
once; a changed file has another digest and is parsed again. Loads
that fail are never cached, and every hit returns a fresh copy.
read_json gives an uncached file's JSON value, for pipeline configs.

Writing. json_text gives the bytes of json.dumps(..., sort_keys=True,
indent=1) and also takes integer numpy arrays, written as the nested
lists they hold; write_json hands the same text to a file a block at a
time as it is made, so it never exists whole. write_file opens an
output file and turns an OSError into ParseError (exit 4).
"""

import collections
import copy
import hashlib
import json
import math
import warnings
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import InvariantError, ParseError

# -- tables --

class _Owned(np.ndarray):
    """A C-ordered int64 array handed over by the code that made it (the
    reader, build_drcs): Table._table keeps it without a copy."""


class Table:
    """What Rectangle, PhaseMatrix and DrcsSet share: a read-only int64
    table with entries in [0, modulus), a provenance, the JSON form,
    reading a file, and equality. A subclass builds its table with
    _table, checks its shape, names the table's JSON field in
    TABLE_FIELD, and defines _fields() (its JSON fields, the table as
    the array itself) and from_json(obj).
    READ_ERROR is raised for a file that cannot be read, decoded or
    parsed, FIELD_ERROR for a document that does not hold the artifact."""

    READ_ERROR = ParseError
    FIELD_ERROR = ParseError
    TABLE_FIELD = None

    def _table(self, table, modulus, provenance):
        """table as a read-only C-ordered int64 array, refused unless its
        entries lie in [0, modulus); keeps a copy of provenance. The
        table is a copy, so a caller's array stays the caller's, unless
        its maker handed it over as an _Owned array."""
        if type(table) is _Owned:
            table = table.view(np.ndarray)
        else:
            table = np.array(table, dtype=np.int64, order="C")
        if modulus < 1:
            raise InvariantError("modulus must be positive, got %d" % modulus)
        if table.size and (table.min() < 0 or table.max() >= modulus):
            raise InvariantError("entries must lie in [0, %d)" % modulus)
        table.setflags(write=False)
        self.provenance = dict(provenance) if provenance else {}
        return table

    def to_json(self):
        return {k: v.tolist() if isinstance(v, np.ndarray) else v
                for k, v in self._fields().items()}

    def __eq__(self, other):
        """Every field but the provenance is equal."""
        if type(other) is not type(self):
            return NotImplemented
        mine, theirs = self._fields(), other._fields()
        return all(np.array_equal(mine[k], theirs[k]) for k in mine if k != "provenance")

    @classmethod
    def read(cls, path):
        """(artifact, sha256 hex digest of the file's bytes) for a JSON
        file. Reading, decoding and parsing failures raise READ_ERROR, a
        table the constructor refuses FIELD_ERROR. The bytes are read and
        hashed on every call; the artifact is built once per (class,
        path, digest) while it stays in the cache. The result shares the
        cached read-only arrays and has a provenance of its own."""
        error = cls.READ_ERROR
        raw = _read(path, error)
        sha = hashlib.sha256(raw).hexdigest()
        key = (cls, str(path), sha)
        entry = _cache.get(key)
        if entry is None:
            value = _canonical_value(raw, cls.TABLE_FIELD)
            if value is None:
                text = _decode(raw, path, error)
                del raw  # the bytes, text and parsed lists would otherwise coexist
                value = _loads(text, path, error)
                del text
            else:
                del raw
            try:
                artifact = cls.from_json(value)
            except InvariantError as exc:
                raise cls.FIELD_ERROR(str(exc)) from None
            _remember(key, artifact)
        else:
            _cache.move_to_end(key)
            artifact = entry[0]
        return _fresh(artifact), sha


# -- reader --

_DECODER = json.JSONDecoder()

# Bound on the array bytes the artifact cache holds. 32 MiB takes a set
# of about four million exponents; a larger artifact is not cached.
CACHE_BYTES = 1 << 25

# (class, path, sha256) -> (artifact, bytes its arrays hold), oldest first
_cache = collections.OrderedDict()


def _read(path, error):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise error("cannot read %s: %s" % (path, exc)) from None


def _decode(raw, path, error):
    """The text of a file's bytes, decoded the way json.loads decodes bytes."""
    try:
        return raw.decode(json.detect_encoding(raw), "surrogatepass")
    except UnicodeDecodeError as exc:
        raise error("cannot decode %s: %s" % (path, exc)) from None


def _loads(text, path, error):
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise error("malformed JSON in %s: %s" % (path, exc)) from None


def read_json(path, error):
    """The JSON value a file holds, uncached. A file that cannot be read,
    decoded or parsed raises error."""
    return _loads(_decode(_read(path, error), path, error), path, error)


# -- the fast path for canonical files --

# indent of a table field in the writer's layout: a key of the top-level
# object
_LEVEL = 1

# bytes of table text parsed at a time; the parse holds a few of these
# beside the file's bytes and the array
_PARSE_BYTES = 1 << 16

# brackets and commas read as spaces, leaving np.fromstring the numbers
_SPACES = bytes.maketrans(b"[],", b"   ")

# what the placeholder for the table parses to
_SPAN = object()


def _canonical_value(raw, field):
    """The JSON value of a canonical file, its table field already an
    _Owned int64 array; None for any other file. raw[start:end] is the
    table's text, from its "[" to the "\n ]" that closes it."""
    if json.detect_encoding(raw) != "utf-8":
        return None
    key = b'\n "%s": [' % field.encode()
    start = raw.find(key)
    if start < 0:
        return None
    start += len(key) - 1
    # a nested list closes on "]\n ]"; taken from the end of the file, as
    # the fields after the table are small, and checked by _writes_as
    end = raw.rfind(b"]\n ]") + 4
    shape = _canonical_shape(raw, start, end) if end > start else None
    arr = _parse_ints(raw, start, end, shape) if shape else None
    if arr is None or not _writes_as(arr, raw, start, end):
        return None
    # the placeholder NaN calls parse_constant; any other NaN or Infinity
    # in the file would too, and the file goes the json way
    constants = []

    def constant(name):
        constants.append(name)
        return _SPAN
    try:
        rest = (raw[:start] + b"NaN" + raw[end:]).decode("utf-8", "surrogatepass")
        value = json.JSONDecoder(parse_constant=constant).decode(rest)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    # with duplicate keys json keeps the last; it must be this one
    if len(constants) != 1 or not isinstance(value, dict) or value.get(field) is not _SPAN:
        return None
    value[field] = arr.view(_Owned)
    return value


def _canonical_shape(raw, start, end):
    """The shape of the array whose canonical text raw[start:end] would
    be, read off the first list at each depth: the innermost one's size
    is its count of lines, any other's the "[" inside it over those
    inside each child. None where the counts fit no shape of at most
    (end - start) / 2 entries; _writes_as checks the one returned."""
    firsts = [start]  # where the first list at each depth opens
    while True:
        line = b"\n" + b" " * (_LEVEL + len(firsts)) + b"["
        if not raw.startswith(line, firsts[-1] + 1):
            break
        firsts.append(firsts[-1] + len(line))
    shape, inner = [], 0
    for k in range(len(firsts) - 1, -1, -1):
        # the line that closes the first list at depth k; the whole
        # table's is the last line
        closer = b"\n" + b" " * (_LEVEL + k) + b"]"
        close = end - len(closer) if k == 0 else raw.find(closer, firsts[k], end)
        if close < 0:
            return None
        if not shape:
            size = raw.count(b"\n", firsts[k], close)
        else:
            brackets = raw.count(b"[", firsts[k] + 1, close)
            size, rest = divmod(brackets, inner + 1)
            if rest:
                return None
            inner = brackets
        shape.insert(0, size)
    # each entry takes at least a digit and a newline
    if not 0 < math.prod(shape) <= (end - start) // 2:
        return None
    return tuple(shape)


def _parse_ints(raw, start, end, shape):
    """The integers of raw[start:end] in an int64 array of the shape, read
    _PARSE_BYTES at a time; None if the text holds anything np.fromstring
    cannot read as whitespace-separated integers, or a count other than
    the shape's."""
    out = np.empty(shape, np.int64)
    flat = out.reshape(-1)
    filled = 0
    p = start
    with warnings.catch_warnings():
        # older numpy warns, and reads on, where newer numpy raises
        warnings.simplefilter("error", DeprecationWarning)
        while p < end:
            q = raw.find(b"\n", min(p + _PARSE_BYTES, end), end)
            q = end if q < 0 else q
            block = raw[p:q].translate(_SPACES)
            p = q
            if block.isspace():  # np.fromstring reads one 0 from this
                continue
            try:
                values = np.fromstring(block, dtype=np.int64, sep=" ")
            except (DeprecationWarning, ValueError):
                return None
            if filled + values.size > flat.size:
                return None
            flat[filled : filled + values.size] = values
            filled += values.size
    return out if filled == flat.size else None


class _Differs(Exception):
    pass


def _writes_as(arr, raw, start, end):
    """Whether the writer's text of arr at indent _LEVEL is raw[start:end];
    compared a block at a time, without making the whole text."""
    pos = start

    def match(piece):
        nonlocal pos
        piece = piece.encode("ascii")
        if not raw.startswith(piece, pos):
            raise _Differs
        pos += len(piece)
    try:
        _int_array(arr, _LEVEL, match)
    except _Differs:
        return False
    return pos == end


def _remember(key, artifact):
    size = sum(v.nbytes for v in vars(artifact).values() if isinstance(v, np.ndarray))
    if size <= CACHE_BYTES:
        _cache[key] = (artifact, size)
        while sum(s for _, s in _cache.values()) > CACHE_BYTES:
            _cache.popitem(last=False)


def _fresh(artifact):
    out = copy.copy(artifact)
    out.provenance = copy.deepcopy(artifact.provenance)
    return out


# -- writer --

def write_file(path, write, binary=False):
    """Call write(fh) on the file path, opened for text (or bytes when
    binary); a file that cannot be opened or written raises ParseError."""
    try:
        with open(path, "wb" if binary else "w") as fh:
            write(fh)
    except OSError as exc:
        raise ParseError("cannot write %s: %s" % (path, exc)) from None


def json_text(obj):
    """json.dumps(obj, sort_keys=True, indent=1), byte for byte, where
    obj may also hold integer numpy arrays, written as the nested lists
    they hold without building them."""
    out = []
    _encode(obj, 0, out.append)
    return "".join(out)


def write_json(obj, fh):
    """Write json_text(obj) and a newline to the text file fh, each piece
    as it is made, so the whole text never exists as one string."""
    _encode(obj, 0, fh.write)
    fh.write("\n")


def _is_table(obj):
    return isinstance(obj, np.ndarray) and obj.dtype.kind == "i" and obj.ndim > 0


def _holds_table(obj):
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return _is_table(obj)
    return any(_holds_table(v) for v in obj)


def _encode(obj, level, write):
    """Pass the text of obj, nested level deep, to write, in pieces. Only
    integer arrays and the containers that hold them are walked here;
    any other value is json.dumps's text, indented to the level (a JSON
    string never holds a raw newline)."""
    if _is_table(obj):
        _int_array(obj, level, write)
    elif not _holds_table(obj):
        text = json.dumps(obj, sort_keys=True, indent=1)
        write(text.replace("\n", "\n" + " " * level))
    else:
        if isinstance(obj, dict):
            if not all(isinstance(k, str) for k in obj):
                raise TypeError("keys of a dict that holds an array must be str")
            items = [(encode_basestring_ascii(k) + ": ", v) for k, v in sorted(obj.items())]
            opening, closing = "{", "}"
        else:
            items = [("", v) for v in obj]
            opening, closing = "[", "]"
        inner = "\n" + " " * (level + 1)
        sep = opening + inner
        for key, v in items:
            write(sep + key)
            _encode(v, level + 1, write)
            sep = "," + inner
        write("\n" + " " * level + closing)


# entries the integer-array writer joins at a time: its index and token
# arrays stay this small whatever the array size
_BLOCK = 1 << 14


def _int_array(arr, level, write):
    """The nested lists an integer array holds, written without building
    them. Each entry is followed by the text up to the next one: a comma
    and the next line's indent or, where j lists end, their closing
    brackets, a comma and j openings (the last entry closes them all).
    So an entry's token is fixed by its value and by how many lists end
    there, and a table holds the token of each (ends, value) pair, with
    every value formatted once. An empty axis, or a value range too wide
    for the table to stay below the entry count, goes through tolist."""
    d, n = arr.ndim, arr.size
    lo = int(arr.min()) if n else 0
    span = int(arr.max()) - lo + 1 if n else 0
    if not n or (d + 1) * span > n:
        _encode(arr.tolist(), level, write)
        return
    ind = ["\n" + " " * (level + k) for k in range(d + 1)]
    closes = ["".join(ind[d - i] + "]" for i in range(1, j + 1)) for j in range(d + 1)]
    seps = [closes[j] + "," + "".join(ind[d - j + i] + "[" for i in range(j)) + ind[d]
            for j in range(d)] + [closes[d]]
    values = [int.__repr__(v) for v in range(lo, lo + span)]
    tokens = np.array([v + s for s in seps for v in values], dtype=object)
    # one more list ends at every period-th entry, for each axis
    periods = np.cumprod(arr.shape[::-1]).tolist()
    flat = arr.reshape(-1)
    write("[" + "".join(ind[k] + "[" for k in range(1, d)) + ind[d])
    for s in range(0, n, _BLOCK):
        idx = flat[s : s + _BLOCK].astype(np.int64)
        idx -= lo
        for p in periods:
            idx[(p - 1 - s) % p :: p] += span
        write("".join(tokens[idx].tolist()))
