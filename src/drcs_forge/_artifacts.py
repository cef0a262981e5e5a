"""Artifact I/O: Table, the base of rectangles, Butson tables and sets;
the loader every artifact file goes through, the writer for every JSON
artifact, and the one place an output file is opened.

Reading. load_artifact reads a file's bytes, decodes them the way
json.loads decodes bytes (UTF-8, UTF-16 or UTF-32, told apart by a BOM
or the zero-byte pattern), parses the text and builds the artifact. A
file that cannot be read, decoded or parsed raises the loader's exit-4
error. Built artifacts are kept in a small LRU cache keyed by (kind,
path, sha256 of the bytes), so a process that loads the same file
twice, such as a pipeline whose steps pass tables along, parses it
once; a changed file has another digest and is parsed again. Loads
that fail are never cached, and every hit returns a fresh copy.

Writing. json_text gives the bytes of json.dumps(..., sort_keys=True,
indent=1) and also takes integer numpy arrays, written as the nested
lists they hold; write_json writes the same text to a file piece by
piece. write_file opens an output file and turns an OSError into
ParseError (exit 4).
"""

import collections
import copy
import hashlib
import json
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import InvariantError, ParseError

# -- tables --

class Table:
    """What Rectangle, PhaseMatrix and DrcsSet share: a read-only int64
    table with entries in [0, modulus), a provenance, the JSON form,
    reading a file, and equality. A subclass builds its table with
    _table, checks its shape, and defines _fields() (its JSON fields,
    the table as the array itself) and from_json(obj).
    READ_ERROR is raised for a file that cannot be read, decoded or
    parsed, FIELD_ERROR for a document that does not hold the artifact."""

    READ_ERROR = ParseError
    FIELD_ERROR = ParseError

    def _table(self, table, modulus, provenance):
        """table as a read-only C-ordered int64 copy, refused unless its
        entries lie in [0, modulus); keeps a copy of provenance."""
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
        """(artifact, sha256 of the file's bytes) for a JSON file, parsed
        once per process while cached (see load_artifact). A table the
        constructor refuses is a malformed file: FIELD_ERROR."""
        return load_artifact(path, cls, cls._parse, cls.READ_ERROR)

    @classmethod
    def _parse(cls, obj):
        try:
            return cls.from_json(obj)
        except InvariantError as exc:
            raise cls.FIELD_ERROR(str(exc)) from None


# -- reader --

_DECODER = json.JSONDecoder()

# Bound on the array bytes the artifact cache holds. 32 MiB takes a set
# of about four million exponents; a larger artifact is not cached.
CACHE_BYTES = 1 << 25

# (kind, path, sha256) -> (artifact, bytes its arrays hold), oldest first
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


def load_artifact(path, kind, parse, error):
    """(artifact, sha256 hex digest of the file's bytes) for a JSON file.
    kind is any hashable that tells the artifact kinds apart.

    parse(value) builds the artifact from the parsed JSON value and
    raises on a value it refuses. Reading, decoding and parsing failures
    raise error. The bytes are read and hashed on every call; the
    artifact is built once per (kind, path, digest) while it stays in
    the cache. The result shares the cached read-only arrays and has a
    provenance of its own.
    """
    raw = _read(path, error)
    sha = hashlib.sha256(raw).hexdigest()
    key = (kind, str(path), sha)
    entry = _cache.get(key)
    if entry is None:
        text = _decode(raw, path, error)
        del raw  # the bytes, text and parsed lists would otherwise coexist
        value = _loads(text, path, error)
        del text
        artifact = parse(value)
        _remember(key, artifact)
    else:
        _cache.move_to_end(key)
        artifact = entry[0]
    return _fresh(artifact), sha


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
    _encode(obj, 0, out)
    return "".join(out)


def write_json(obj, fh):
    """Write json_text(obj) and a newline to the text file fh, piece by
    piece, so the whole text never exists as one string."""
    out = []
    _encode(obj, 0, out)
    out.append("\n")
    fh.writelines(out)


def _is_table(obj):
    return isinstance(obj, np.ndarray) and obj.dtype.kind == "i" and obj.ndim > 0


def _holds_table(obj):
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return _is_table(obj)
    return any(_holds_table(v) for v in obj)


def _encode(obj, level, out):
    """Append the text of obj, nested level deep, to the list out. Only
    integer arrays and the containers that hold them are walked here;
    any other value is json.dumps's text, indented to the level (a JSON
    string never holds a raw newline)."""
    if _is_table(obj):
        _int_array(obj, level, out)
    elif not _holds_table(obj):
        text = json.dumps(obj, sort_keys=True, indent=1)
        out.append(text.replace("\n", "\n" + " " * level))
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
            out.append(sep + key)
            _encode(v, level + 1, out)
            sep = "," + inner
        out.append("\n" + " " * level + closing)


# entries the integer-array writer joins at a time: its index and token
# arrays stay this small whatever the array size
_BLOCK = 1 << 16


def _int_array(arr, level, out):
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
        _encode(arr.tolist(), level, out)
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
    out.append("[" + "".join(ind[k] + "[" for k in range(1, d)) + ind[d])
    for s in range(0, n, _BLOCK):
        idx = flat[s : s + _BLOCK].astype(np.int64)
        idx -= lo
        for p in periods:
            idx[(p - 1 - s) % p :: p] += span
        out.append("".join(tokens[idx].tolist()))
