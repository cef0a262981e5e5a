"""Exception types shared across the package, and artifact JSON I/O:
the field checks the loaders raise those errors from, the loader every
rectangle, Butson table and set file goes through, and the writer for
every JSON artifact.

Each error carries an exit_code used by the CLI: 2 for validation
failures, 3 for infeasible parameters, 4 for I/O and parsing trouble.

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
piece.
"""

import collections
import copy
import hashlib
import itertools
import json
import numbers
from json.encoder import encode_basestring_ascii

import numpy as np


class DrcsForgeError(Exception):
    exit_code = 2

    def payload(self):
        """Machine-readable form for the CLI stderr channel."""
        return {"error": type(self).__name__, "message": str(self)}


# -- validation (exit 2) --

class NonPrimeError(DrcsForgeError):
    pass


class CapExceededError(DrcsForgeError):
    pass


class C1ViolatedError(DrcsForgeError):
    """A C2 check was asked about a rectangle that fails C1."""
    pass


class TooManyColumnsRemovedError(DrcsForgeError):
    pass


class PreconditionError(DrcsForgeError):
    """A construction input does not have the rectangle class it needs."""
    pass


class SameRowError(DrcsForgeError):
    pass


class OrderMismatchError(DrcsForgeError):
    pass


class RectangleClassError(DrcsForgeError):
    pass


class UnitarityError(DrcsForgeError):
    """A claimed Hadamard matrix failed the row-orthogonality check."""
    pass


class InvariantError(DrcsForgeError):
    pass


class LengthMismatchError(DrcsForgeError):
    pass


class ShapeMismatchError(DrcsForgeError):
    pass


class MismatchError(DrcsForgeError):
    """A recomputed reference value disagrees with the stored one."""
    pass


# -- infeasible parameters (exit 3) --

class ParamsOutOfRangeError(DrcsForgeError):
    exit_code = 3


class InfeasibleError(DrcsForgeError):
    exit_code = 3


# -- I/O and parsing (exit 4) --

class ParseError(DrcsForgeError):
    exit_code = 4


class SchemaError(DrcsForgeError):
    exit_code = 4


# -- JSON field checks --

def json_int(value, what, error):
    """An integer JSON field as int; floats, strings and booleans raise
    error instead of being cast."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error("%s must be an integer, got %r" % (what, value))
    return int(value)


def json_int_array(value, what, error, bools=True):
    """A nested JSON list of integers as an int64 array; any float,
    string, boolean or ragged nesting raises error instead of being cast.

    bools=False skips the walk over the leaves that looks for booleans.
    Pass it only when the decoded text the value came from holds neither
    "true" nor "false", the only spellings of a JSON boolean."""
    msg = "%s must be a nested list of integers" % what
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # ragged nesting
        raise error(msg) from None
    if arr.size and arr.dtype.kind != "i":
        raise error(msg)
    if not bools:
        return arr.astype(np.int64, copy=False)
    # numpy reads booleans mixed with integers as 0/1
    leaves = [value]
    for _ in range(arr.ndim):
        leaves = itertools.chain.from_iterable(leaves)
    if bool in set(map(type, leaves)):
        raise error(msg)
    return arr.astype(np.int64, copy=False)


def json_object(value, what, error):
    """An optional JSON object field as a dict: absent gives {}, anything
    but an object raises error."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise error("%s must be an object, got %s" % (what, type(value).__name__))
    return value


# -- JSON reader --

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

    parse(value, bools) builds the artifact from the parsed JSON value
    and raises on a value it refuses; bools is False when the decoded
    text holds neither "true" nor "false", so the value holds no
    boolean. Reading, decoding and parsing failures raise error. The
    bytes are read and hashed on every call; the artifact is built once
    per (kind, path, digest) while it stays in the cache. The result
    shares the cached read-only arrays and has a provenance of its own.
    """
    raw = _read(path, error)
    sha = hashlib.sha256(raw).hexdigest()
    key = (kind, str(path), sha)
    entry = _cache.get(key)
    if entry is None:
        text = _decode(raw, path, error)
        del raw  # the bytes, text and parsed lists would otherwise coexist
        bools = "true" in text or "false" in text
        value = _loads(text, path, error)
        del text
        artifact = parse(value, bools)
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


# -- JSON writer --

def json_text(obj):
    """json.dumps(obj, sort_keys=True, indent=1), byte for byte.

    The standard encoder drops to pure Python whenever indent is set.
    This one joins each list of plain integers in one call, and also
    takes integer numpy arrays, written as the nested lists they hold.
    """
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


def _float(x):
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return float.__repr__(x)


def _key(k):
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float(k)
    if k is True:
        return "true"
    if k is False:
        return "false"
    if k is None:
        return "null"
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError("keys must be str, int, float, bool or None, not %s"
                    % type(k).__name__)


def _encode(obj, level, out):
    """Append the text of obj, nested level deep, to the list out."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = "\n" + " " * (level + 1)
        end = "\n" + " " * level + "]"
        if set(map(type, obj)) == {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + end)
            return
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _encode(v, level + 1, out)
            sep = "," + inner
        out.append(end)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = "\n" + " " * (level + 1)
        sep = "{" + inner
        for k, v in sorted(obj.items()):
            out.append(sep + encode_basestring_ascii(_key(k)) + ": ")
            _encode(v, level + 1, out)
            sep = "," + inner
        out.append("\n" + " " * level + "}")
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "i" and obj.ndim:
        _int_array(obj, level, out)
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


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
