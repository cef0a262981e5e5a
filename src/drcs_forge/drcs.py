"""Doppler-resilient complementary sequence sets and their JSON format.

A set holds K flocks of M unimodular sequences of length L, stored as
integer exponents over the r-th roots of unity. The builder pairs a
rectangle (alphabet Z_N, entries indexing Butson rows) with a Butson
matrix of order N: sequence m of flock k reads column m of the Butson
row selected by rectangle entry a[k][n].
"""

import functools
import math

import numpy as np

from ._artifacts import Table, _Owned, write_file, write_json
from ._limits import SET_CAP, require
from .errors import (
    InvariantError,
    OrderMismatchError,
    ParamsOutOfRangeError,
    RectangleClassError,
    SchemaError,
    UnitarityError,
    json_int,
    json_int_array,
    json_object,
)
from .hadamard import verify_bh
from .rectangles import verify_c1, verify_c2


class Zone:
    """Delay/Doppler box (-Z_x, Z_x) x (-Z_y, Z_y) around the origin."""

    def __init__(self, Z_x, Z_y):
        Z_x, Z_y = int(Z_x), int(Z_y)
        if Z_x < 1 or Z_y < 1:
            raise ParamsOutOfRangeError("zone half-widths must be >= 1")
        self.Z_x = Z_x
        self.Z_y = Z_y

    def __eq__(self, other):
        return isinstance(other, Zone) and (self.Z_x, self.Z_y) == (other.Z_x, other.Z_y)

    def __repr__(self):
        return "Zone(%d, %d)" % (self.Z_x, self.Z_y)

    def check_length(self, L):
        """Refuse half-widths over the sequence length L. Past L a delay
        leaves no overlap and a Doppler bin wraps: nu = +-L is nu = 0, so a
        peak scan would report aliases of the origin."""
        if self.Z_x > L or self.Z_y > L:
            raise ParamsOutOfRangeError(
                "zone (%d, %d) exceeds length %d" % (self.Z_x, self.Z_y, L)
            )


class DrcsSet(Table):
    """K x M x L exponent array over Z_r plus the zone it targets. The
    array is stored in the narrowest signed dtype that holds r - 1."""

    READ_ERROR = FIELD_ERROR = SchemaError
    TABLE_FIELD = "flocks"
    SHAPE_FIELDS = ("K", "M", "L")
    MODULUS_FIELD = "r"

    @staticmethod
    def _dtype(r):
        for dtype in (np.int8, np.int16, np.int32):
            if r - 1 <= np.iinfo(dtype).max:
                return np.dtype(dtype)
        return np.dtype(np.int64)

    def __init__(self, flocks, r, zone=None, provenance=None):
        self.r = int(r)
        self.flocks = self._table(flocks, self.r, provenance)
        if self.flocks.ndim != 3:
            raise SchemaError("flocks must be a 3-D array, got ndim=%d" % self.flocks.ndim)
        if min(self.flocks.shape) < 1:
            raise InvariantError("flocks must be non-empty in every axis")
        self.zone = zone if zone is not None else Zone(self.L, self.L)
        self.zone.check_length(self.L)

    @property
    def K(self):
        return self.flocks.shape[0]

    @property
    def M(self):
        return self.flocks.shape[1]

    @property
    def L(self):
        return self.flocks.shape[2]

    def __repr__(self):
        return "DrcsSet(K=%d, M=%d, L=%d, r=%d)" % (self.K, self.M, self.L, self.r)

    def flock(self, k):
        return self.flocks[k]

    @classmethod
    def _check_size(cls, shape):
        """Refuse a set file whose table has more than SET_CAP entries."""
        require(math.prod(shape), SET_CAP,
                "set file of %s entries" % " x ".join(map(str, shape)))

    def _fields(self):
        return {
            "K": self.K,
            "M": self.M,
            "L": self.L,
            "r": self.r,
            "flocks": self.flocks,
            "zone": [self.zone.Z_x, self.zone.Z_y],
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, obj):
        """The set a parsed {K, M, L, r, flocks, zone} object holds; the
        declared shape must match the payload. Nested lists of more than
        SET_CAP entries are refused before the array is made, and a header
        that declares more, in sizes that are all positive, before the
        shapes are compared."""
        try:
            flocks, r = obj["flocks"], obj["r"]
            zone = obj.get("zone")
        except (KeyError, TypeError) as exc:
            raise SchemaError("set JSON needs flocks, r: %s" % exc) from None
        cls._check_size(_first_shape(flocks))
        flocks = json_int_array(flocks, "flocks", SchemaError)
        r = json_int(r, "r", SchemaError)
        if zone is not None:
            if not isinstance(zone, list) or len(zone) != 2:
                raise SchemaError("zone must be a list [Z_x, Z_y], got %r" % (zone,))
            zone = Zone(*(json_int(z, "zone", SchemaError) for z in zone))
        if flocks.ndim != 3:
            raise SchemaError("flocks must be K x M x L, got ndim=%d" % flocks.ndim)
        declared = tuple(json_int(obj[k], k, SchemaError) if k in obj else flocks.shape[i]
                         for i, k in enumerate("KML"))
        if min(declared) > 0:  # as on the fast path; any other shape is malformed
            cls._check_size(declared)
        if declared != flocks.shape:
            raise SchemaError("declared shape %s != payload shape %s" % (declared, flocks.shape))
        prov = json_object(obj.get("provenance"), "provenance", SchemaError) or {"source": "external"}
        return cls(flocks, r, zone, prov)


def _first_shape(value):
    """The length of the first list at each depth of a nested JSON list,
    without making an array; empty for anything else, such as the array
    the reader of a canonical file made once its shape passed the cap."""
    shape = []
    while isinstance(value, list):
        shape.append(len(value))
        value = value[0] if value else None
    return shape


def build_drcs(A, B):
    """Assemble a DRCS set from rectangle A and Butson matrix B.

    A must use alphabet Z_N with N equal to B's order, satisfy C1 and
    linear C2, and B must verify as Butson-type. The output has K = A's
    rows, M = N sequences per flock, length L = A's columns, and targets
    the full zone (-L, L) x (-L, L): flock autos vanish off the origin
    and cross pairs stay at magnitude 0 or N everywhere. A set of more
    than SET_CAP entries is refused before any check or allocation.
    """
    if B.N != A.N:
        raise OrderMismatchError(
            "rectangle alphabet Z_%d does not match Butson order %d" % (A.N, B.N)
        )
    require(A.nrows * B.N * A.ncols, SET_CAP,
            "set of %d x %d x %d entries" % (A.nrows, B.N, A.ncols))
    if not verify_c1(A):
        raise RectangleClassError("rectangle fails C1")
    if not verify_c2(A, circular=False):
        raise RectangleClassError("rectangle fails linear C2")
    if not verify_bh(B):
        raise UnitarityError("matrix is not Butson-type")
    # flocks[k, m, n] = B.exps[A.rows[k, n], m], gathered in C order from
    # the N x N table cast to the set's dtype, so the set is made narrow
    exps = B.exps.T.astype(DrcsSet._dtype(B.r))
    flocks = exps[np.arange(B.N)[:, None], A.rows[:, None, :]]
    return DrcsSet(
        flocks.view(_Owned),
        B.r,
        Zone(A.ncols, A.ncols),
        {"builder": "drcs", "rectangle": A.provenance, "butson": B.provenance},
    )


def export_drcs(S, path):
    """Write the set losslessly as JSON: the text of S.to_json(), made
    from the exponent array without converting it to lists first."""
    write_file(path, functools.partial(write_json, S._fields()))


def import_drcs(path):
    """Read a set back; shape declarations must match the payload. A
    file with no provenance, or an empty one, gets {"source":
    "external"}; a non-empty provenance without a source gets the
    file's path and sha256."""
    S, sha = DrcsSet.read(path)
    S.provenance.setdefault("source", {"path": str(path), "sha256": sha})
    return S
