"""Exception types shared across the package, the field checks the
JSON loaders raise them from, and the writer for every JSON artifact.

Each error carries an exit_code used by the CLI: 2 for validation
failures, 3 for infeasible parameters, 4 for I/O and parsing trouble.
"""

import itertools
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


def json_int_array(value, what, error):
    """A nested JSON list of integers as an int64 array; any float,
    string, boolean or ragged nesting raises error instead of being cast."""
    msg = "%s must be a nested list of integers" % what
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # ragged nesting
        raise error(msg) from None
    if arr.size and arr.dtype.kind != "i":
        raise error(msg)
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


# -- JSON writer --

def json_text(obj):
    """json.dumps(obj, sort_keys=True, indent=1), byte for byte.

    The standard encoder drops to pure Python whenever indent is set.
    This one joins each list of plain integers in one call, and also
    takes integer numpy arrays, written as the nested lists they hold.
    """
    return _encode(obj, 0)


def _block(open_, close, parts, level):
    if not parts:
        return open_ + close
    inner = "\n" + " " * (level + 1)
    return open_ + inner + ("," + inner).join(parts) + "\n" + " " * level + close


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


def _encode(obj, level):
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, (list, tuple)):
        if obj and set(map(type, obj)) == {int}:
            return _block("[", "]", list(map(str, obj)), level)
        return _block("[", "]", [_encode(v, level + 1) for v in obj], level)
    if isinstance(obj, dict):
        return _block("{", "}", [
            encode_basestring_ascii(_key(k)) + ": " + _encode(v, level + 1)
            for k, v in sorted(obj.items())
        ], level)
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "i" and obj.ndim:
        return _int_array(obj, level)
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _int_array(arr, level):
    """Each distinct value is formatted once, through a table spanning the
    array's range; a range wider than the array goes through tolist."""
    if arr.size:
        lo, hi = int(arr.min()), int(arr.max())
        if hi - lo < arr.size:
            table = np.array([str(v) for v in range(lo, hi + 1)], dtype=object)
            return _nested(table[arr - lo], level)
    return _encode(arr.tolist(), level)


def _nested(strs, level):
    if strs.ndim == 1:
        return _block("[", "]", strs.tolist(), level)
    return _block("[", "]", [_nested(s, level + 1) for s in strs], level)
