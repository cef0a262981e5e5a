"""Exception types shared across the package, and the JSON field
checks the loaders raise them from.

Each error carries an exit_code used by the CLI: 2 for validation
failures, 3 for infeasible parameters, 4 for I/O and parsing trouble.
"""

import itertools
import numbers

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
