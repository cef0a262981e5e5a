"""Artifact I/O: Table, the base of rectangles, Butson tables and sets
and the one reader of their files; the writer for every JSON artifact,
and the one place an output file is opened.

Reading. Table.read builds the artifact a file holds. Every artifact
file goes through it, the packaged fixtures included. It reads the file
in blocks. The first pass only hashes every byte, through one reused
buffer, for the cache key and the provenance digest; a cache hit ends
there. On a miss, a file whose table sits at "\n \"<field>\": [", where
the writer puts it, takes a fast path. The rest of the document, null
where the table was, goes through _parse, and its header gives the
table's shape (a rectangle's row count is the "[" inside its table).
The table's text is parsed a block at a time straight into one array,
in the dtype its class stores for the modulus the document declares (a
set's narrowest signed dtype that holds r - 1, int64 otherwise). The
result is kept only if the writer's text of it, and a newline, is the
whole file byte for byte, compared a block at a time (_writes_as). That
rules out a byte outside ASCII, another layout, duplicate keys, leading
zeros, -0, more digits than int64 holds, an entry the dtype cannot hold,
a float or boolean, and a shape the header does not declare. Beside the
array, the fast path holds a few blocks, never the file. Any other file
goes through _parse whole: decoded the way json.loads decodes bytes
(UTF-8, UTF-16 or UTF-32, told apart by a BOM or the zero-byte pattern)
and parsed by json. A pipe, which cannot be read twice, is read into
memory first and then the same way. Both paths give the same artifact,
or the same error: a file that cannot be read, decoded or parsed (an
integer over Python's 4,300-digit limit and nesting past the recursion
limit included) raises the class's exit-4 error, and a table over the
class's size cap (Table._check_size) exit 3, on the fast path before its
array is made. Built artifacts are kept in a small LRU cache keyed by
(class, path, sha256 of the bytes), so a process that loads the same
file twice, such as a pipeline whose steps pass tables along, parses it
once; a changed file has another digest and is parsed again. Loads
that fail are never cached, and every hit returns a fresh copy.
read_json gives an uncached file's JSON value, for pipeline configs.

Writing. json_text gives the bytes of json.dumps(..., sort_keys=True,
indent=1) and also takes signed integer numpy arrays, written as the
nested lists they hold. json's encoder lays out the document; only an
integer table is laid out here, its text put where the encoder meets
its array. write_json hands the same text to a file a block at a time
as it is made, so it never exists whole. write_file opens an output
file and turns an OSError into ParseError (exit 4).
"""

import collections
import copy
import hashlib
import io
import json
import math
import warnings

import numpy as np

from .errors import InvariantError, ParseError

# -- tables --

class _Owned(np.ndarray):
    """A C-ordered signed integer array handed over by the code that made
    it (the reader, build_drcs), in the dtype its class stores:
    Table._table keeps it without a copy."""


class Table:
    """What Rectangle, PhaseMatrix and DrcsSet share: a read-only signed
    integer table with entries in [0, modulus), in the class's
    _dtype(modulus), a provenance, the JSON form, reading a file, and
    equality. A subclass builds its table with _table, checks its shape,
    names the table's JSON field in TABLE_FIELD and the header fields
    that declare its shape in SHAPE_FIELDS (None for a row count the
    header does not hold), and defines _fields() (its JSON fields, the
    table as the array itself) and from_json(obj).
    A subclass whose dtype depends on the modulus overrides _dtype and
    names the header field that holds the modulus in MODULUS_FIELD.
    READ_ERROR is raised for a file that cannot be read, decoded or
    parsed, FIELD_ERROR for a document that does not hold the artifact."""

    READ_ERROR = ParseError
    FIELD_ERROR = ParseError
    TABLE_FIELD = None
    SHAPE_FIELDS = None
    MODULUS_FIELD = None

    @staticmethod
    def _dtype(modulus):
        """The dtype a table of this modulus is stored in."""
        return np.dtype(np.int64)

    def _table(self, table, modulus, provenance):
        """table as a read-only C-ordered array of _dtype(modulus),
        refused unless its entries lie in [0, modulus), checked before the
        cast; keeps a copy of provenance. The table is a copy, so a
        caller's array stays the caller's, unless its maker handed it over
        as an _Owned array. A caller's signed integer array is checked as
        it is and copied once, in the dtype; anything else is made int64
        first."""
        mine = type(table) is _Owned
        if mine:
            table = table.view(np.ndarray)
        elif not (isinstance(table, np.ndarray) and table.dtype.kind == "i"):
            table, mine = np.array(table, dtype=np.int64, order="C"), True
        if modulus < 1:
            raise InvariantError("modulus must be positive, got %d" % modulus)
        if table.size and (int(table.min()) < 0 or int(table.max()) >= modulus):
            raise InvariantError("entries must lie in [0, %d)" % modulus)
        table = (np.asarray if mine else np.array)(table, dtype=self._dtype(modulus), order="C")
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
        file. Reading, decoding and parsing failures, and a document too
        deep to check or copy (a provenance some hundreds of lists deep),
        raise READ_ERROR, a table the constructor refuses FIELD_ERROR, and
        a table over the class's size cap ParamsOutOfRangeError
        (_check_size). The bytes are read and hashed on every call; the
        artifact is built once per (class, path, digest) while it stays in
        the cache. The result shares the cached read-only arrays and has a
        provenance of its own."""
        error = cls.READ_ERROR
        try:
            with open(path, "rb") as fh:
                # a pipe cannot be read twice: its bytes are read from memory
                src = fh if fh.seekable() else io.BytesIO(fh.read())
                digest = _digest(src)
                key = (cls, str(path), digest)
                entry = _cache.get(key)
                if entry is None:
                    value = _canonical_value(src, cls)
                    if value is None:
                        src.seek(0)
                        value = _parse(src.read(), path, error)
            if entry is None:
                try:
                    artifact = cls.from_json(value)
                except InvariantError as exc:
                    raise cls.FIELD_ERROR(str(exc)) from None
                out = _fresh(artifact)  # first, so an artifact too deep to copy is not cached
                _remember(key, artifact)
                return out, digest
            _cache.move_to_end(key)
            return _fresh(entry[0]), digest
        except OSError as exc:
            raise error("cannot read %s: %s" % (path, exc)) from None
        except RecursionError as exc:
            raise error("input nested too deep: %s: %s" % (path, exc)) from None

    @classmethod
    def _check_size(cls, shape):
        """Refuse, before it is allocated, a table of this shape that is
        too large to hold; a subclass with a cap overrides it."""


# -- reader --

_DECODER = json.JSONDecoder()

# Bound on the array bytes the artifact cache holds. 32 MiB takes about
# four million int64 entries, sixteen million of a set with r <= 2^15; a
# larger artifact is not cached.
CACHE_BYTES = 1 << 25

# (class, path, sha256) -> (artifact, bytes its arrays hold), oldest first
_cache = collections.OrderedDict()


def _parse(raw, path, error):
    """The JSON value of a file's bytes, decoded as json.loads decodes
    bytes; undecodable bytes and text json refuses (an integer over
    Python's digit limit, nesting past the recursion limit) raise error."""
    try:
        text = raw.decode(json.detect_encoding(raw), "surrogatepass")
    except UnicodeDecodeError as exc:
        raise error("cannot decode %s: %s" % (path, exc)) from None
    try:
        return _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
        raise error("malformed JSON in %s: %s" % (path, exc)) from None


def read_json(path, error):
    """The JSON value a file holds, uncached. A file that cannot be read,
    decoded or parsed raises error."""
    try:
        with open(path, "rb") as fh:
            return _parse(fh.read(), path, error)
    except OSError as exc:
        raise error("cannot read %s: %s" % (path, exc)) from None


# -- the fast path for canonical files --

# bytes of the first pass's one buffer: it hashes the file through
# min(file size, this) bytes and holds nothing else, so a file of up to
# 2 MiB is read in one call and a larger one never whole. Freeing this
# one buffer is what keeps glibc's mmap threshold, which malloc raises to
# the largest mapped block freed, above the ~1.2 MB grid temporaries of
# eval-long's drcs eval: with its 1.6 MB set read in 64 KiB blocks, those
# were mapped afresh each time, and its fft grids took ~35% longer (the
# traced pass ~15%).
_SURVEY_BYTES = 1 << 21

# bytes the fast path reads at a time; it holds a few of these beside
# the array
_READ_BYTES = 1 << 16

# the longest text of an int64, "-9223372036854775808"
_INT_CHARS = 20

# brackets and commas read as spaces, leaving np.fromstring the numbers
_SPACES = bytes.maketrans(b"[],", b"   ")


def _blocks(src, lo, hi, size):
    """src[lo:hi] of a seekable binary file, size bytes at a time."""
    src.seek(lo)
    while lo < hi:
        block = src.read(min(size, hi - lo))
        if not block:
            return
        lo += len(block)
        yield block


def _digest(src):
    """The sha256 hex digest of a seekable binary file, read from its
    start into one buffer of min(size, _SURVEY_BYTES) bytes, reused for
    every block."""
    sha = hashlib.sha256()
    view = memoryview(bytearray(min(src.seek(0, io.SEEK_END), _SURVEY_BYTES)))
    src.seek(0)
    while n := src.readinto(view):
        sha.update(view[:n])
    return sha.hexdigest()


def _canonical_value(src, cls):
    """The JSON value of a canonical file, its cls.TABLE_FIELD already an
    _Owned array of the shape the header's cls.SHAPE_FIELDS declare, in
    the dtype cls stores for its modulus; None for any other file, src
    being the seekable binary file. cls._check_size may refuse the shape
    before the array is made. The table's text is src[start:end], from
    the "[" after the field's first key to the "\n ]" that closes it."""
    field = cls.TABLE_FIELD
    key = b'\n "%s": [' % field.encode()
    size = src.seek(0, io.SEEK_END)
    start = _find(src, key, 0, size)
    if start < 0:
        return None
    start += len(key) - 1
    # a nested list closes on "]\n ]"; taken from the end of the file, as
    # the fields after the table are small, and checked by _writes_as
    end = _rfind(src, b"]\n ]", start, size) + 4
    value = _rest(src, start, end) if end > start else None
    if value is None:
        return None
    # a field of None stands for the count of "[" inside the table
    shape = tuple(value.get(k) if k else _count(src, b"[", start + 1, end)
                  for k in cls.SHAPE_FIELDS)
    # each entry takes at least a digit and a newline
    if not all(type(d) is int and d > 0 for d in shape) or math.prod(shape) > (end - start) // 2:
        return None
    cls._check_size(shape)
    modulus = value.get(cls.MODULUS_FIELD)
    # a header from_json will refuse leaves the table int64
    valid = type(modulus) is int and modulus >= 1
    arr = _parse_ints(src, start, end, shape, cls._dtype(modulus) if valid else np.int64)
    if arr is None:
        return None
    # an entry the dtype cannot hold wraps when it is stored, so the
    # writer's text is not the file's: the file goes the json way, to the
    # error an out-of-range entry gets there
    value[field] = arr.view(_Owned)
    return value if _writes_as(value, src) else None


def _find(src, pattern, lo, hi):
    """Where pattern first occurs in src[lo:hi], or -1."""
    pos, data = lo, b""
    for block in _blocks(src, lo, hi, _READ_BYTES):
        data = data[1 - len(pattern):] + block
        pos += len(block)
        i = data.find(pattern)
        if i >= 0:
            return pos - len(data) + i
    return -1


def _rfind(src, pattern, lo, hi):
    """Where pattern last occurs in src[lo:hi], or -1; read from hi back."""
    data = b""
    while hi > lo:
        size = min(_READ_BYTES, hi - lo)
        hi -= size
        src.seek(hi)
        data = src.read(size) + data[:len(pattern) - 1]
        i = data.rfind(pattern)
        if i >= 0:
            return hi + i
    return -1


def _count(src, byte, lo, hi):
    """How often byte occurs in src[lo:hi]."""
    return sum(block.count(byte) for block in _blocks(src, lo, hi, _READ_BYTES))


class _Differs(Exception):
    """The file is not the writer's text."""


def _rest(src, start, end):
    """The JSON object of the file with its table's text src[start:end]
    replaced by null, through _parse; None if that is not an object. A
    byte outside ASCII, never the writer's, is left to _writes_as."""
    src.seek(0)
    head = src.read(start)
    src.seek(end)
    try:
        value = _parse(head + b"null" + src.read(), None, _Differs)
    except _Differs:
        return None
    return value if isinstance(value, dict) else None


def _parse_ints(src, start, end, shape, dtype):
    """The integers of src[start:end] in an array of the shape and dtype,
    read a block at a time: each block is parsed as int64 and stored in
    the dtype, wrapping what it cannot hold. None if the text holds
    anything np.fromstring cannot read as whitespace-separated integers,
    or a count other than the shape's."""
    out = np.empty(shape, dtype)
    flat = out.reshape(-1)
    filled = 0
    carry = b""  # a number the block before ended in
    with warnings.catch_warnings():
        # older numpy warns, and reads on, where newer numpy raises
        warnings.simplefilter("error", DeprecationWarning)
        for block in _blocks(src, start, end, _READ_BYTES):
            text = (carry + block).translate(_SPACES)
            cut = max(text.rfind(b" "), text.rfind(b"\n")) + 1
            text, carry = text[:cut], text[cut:]
            if len(carry) > _INT_CHARS:
                return None
            if not text or text.isspace():  # np.fromstring reads one 0 from spaces
                continue
            try:
                values = np.fromstring(text, dtype=np.int64, sep=" ")
            except (DeprecationWarning, ValueError):
                return None
            if filled + values.size > flat.size:
                return None
            flat[filled : filled + values.size] = values
            filled += values.size
    # the text ends in "]", so no number is left over
    return out if filled == flat.size else None


def _writes_as(value, src):
    """Whether the writer's text of value, and a newline, is the whole of
    src; compared a piece at a time, each piece a block at a time,
    without making the whole text or a copy of a piece."""
    size = src.seek(0, io.SEEK_END)
    pos = 0

    def match(piece):
        nonlocal pos
        i = 0
        for block in _blocks(src, pos, pos + len(piece), _READ_BYTES):
            # latin-1 gives each byte one character, so a byte outside
            # ASCII differs from the writer's text
            if not piece.startswith(block.decode("latin-1"), i):
                raise _Differs
            i += len(block)
        if i < len(piece):  # the file ended first
            raise _Differs
        pos += i
    try:
        _encode(value, match)
        match("\n")
    except _Differs:
        return False
    return pos == size


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
    obj may also hold signed integer numpy arrays, written as the nested
    lists they hold without building them."""
    out = []
    _encode(obj, out.append)
    return "".join(out)


def write_json(obj, fh):
    """Write json_text(obj) and a newline to the text file fh, each piece
    as it is made, so the whole text never exists as one string."""
    _encode(obj, fh.write)
    fh.write("\n")


def _encode(obj, write):
    """Pass the text of obj to write, in pieces: json's encoder lays out
    the document, and each non-empty signed integer array it meets is
    laid out by _int_array (an empty one json lays out as its lists)."""
    tables = []

    def hold(o):
        if isinstance(o, np.ndarray) and o.dtype.kind == "i" and o.ndim > 0:
            if not o.size:
                return o.tolist()
            tables.append(o)
            return ""
        return json.JSONEncoder.default(encoder, o)  # json's TypeError

    encoder = json.JSONEncoder(sort_keys=True, indent=1, default=hold)
    level = 0
    # iterencode without _one_shot is json's pure-Python generator: it
    # calls default when it reaches an object and yields the text of what
    # default returned as the very next piece, so the '""' after hold
    # keeps an array is where that array's text goes
    for piece in encoder.iterencode(obj):
        if tables:
            _int_array(tables.pop(), level, write)
        else:
            write(piece)
            # a piece that starts a line ends in its indent; a JSON string
            # never holds a raw newline
            if "\n" in piece:
                level = len(piece.rpartition("\n")[2])


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
    every value formatted once. A value range too wide for the table to
    stay below the entry count has each block's values formatted as they
    come instead; an empty array never reaches it."""
    d, n = arr.ndim, arr.size
    lo = int(arr.min())
    span = int(arr.max()) - lo + 1
    wide = (d + 1) * span > n
    ind = ["\n" + " " * (level + k) for k in range(d + 1)]
    closes = ["".join(ind[d - i] + "]" for i in range(1, j + 1)) for j in range(d + 1)]
    seps = [closes[j] + "," + "".join(ind[d - j + i] + "[" for i in range(j)) + ind[d]
            for j in range(d)] + [closes[d]]
    if not wide:
        values = [int.__repr__(v) for v in range(lo, lo + span)]
        tokens = np.array([v + s for s in seps for v in values], dtype=object)
    # one more list ends at every period-th entry, for each axis
    periods = np.cumprod(arr.shape[::-1]).tolist()
    flat = arr.reshape(-1)
    write("[" + "".join(ind[k] + "[" for k in range(1, d)) + ind[d])
    for s in range(0, n, _BLOCK):
        block = flat[s : s + _BLOCK]
        # the lists that end at each entry: the index of its separator, or
        # of its token, step rows down the table from its value's
        if wide:
            idx, step = np.zeros(block.size, np.int64), 1
        else:
            idx, step = block.astype(np.int64), span
            idx -= lo
        for p in periods:
            idx[(p - 1 - s) % p :: p] += step
        if wide:
            write("".join(map(str.__add__, map(int.__repr__, block.tolist()),
                              map(seps.__getitem__, idx.tolist()))))
        else:
            write("".join(tokens[idx].tolist()))
