"""Doppler-resilient complementary sequence sets and their JSON format.

A set holds K flocks of M unimodular sequences of length L, stored as
integer exponents over the r-th roots of unity. The builder pairs a
rectangle (alphabet Z_N, entries indexing Butson rows) with a Butson
matrix of order N: sequence m of flock k reads column m of the Butson
row selected by rectangle entry a[k][n].
"""

import hashlib
import json

import numpy as np

from .errors import (
    InvariantError,
    OrderMismatchError,
    ParamsOutOfRangeError,
    ParseError,
    RectangleClassError,
    SchemaError,
    UnitarityError,
    json_int,
    json_int_array,
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

    def lattice(self):
        """All (tau, nu) lattice points inside the open box."""
        for tau in range(-self.Z_x + 1, self.Z_x):
            for nu in range(-self.Z_y + 1, self.Z_y):
                yield tau, nu


class DrcsSet:
    """K x M x L exponent array over Z_r plus the zone it targets."""

    def __init__(self, flocks, r, zone=None, provenance=None):
        flocks = np.array(flocks, dtype=np.int64)
        r = int(r)
        if flocks.ndim != 3:
            raise SchemaError("flocks must be a 3-D array, got ndim=%d" % flocks.ndim)
        if r < 1:
            raise InvariantError("root order must be positive")
        if flocks.size and (flocks.min() < 0 or flocks.max() >= r):
            raise InvariantError("exponents must lie in [0, %d)" % r)
        K, M, L = flocks.shape
        if min(K, M, L) < 1:
            raise InvariantError("flocks must be non-empty in every axis")
        flocks.setflags(write=False)
        self.flocks = flocks
        self.r = r
        self.zone = zone if zone is not None else Zone(L, L)
        if self.zone.Z_x > L or self.zone.Z_y > L:
            raise ParamsOutOfRangeError(
                "zone (%d, %d) exceeds length %d" % (self.zone.Z_x, self.zone.Z_y, L)
            )
        self.provenance = dict(provenance) if provenance else {}

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

    def to_json(self):
        return {
            "K": self.K,
            "M": self.M,
            "L": self.L,
            "r": self.r,
            "flocks": self.flocks.tolist(),
            "zone": [self.zone.Z_x, self.zone.Z_y],
            "provenance": self.provenance,
        }


def build_drcs(A, B):
    """Assemble a DRCS set from rectangle A and Butson matrix B.

    A must use alphabet Z_N with N equal to B's order, satisfy C1 and
    linear C2, and B must verify as Butson-type. The output has K = A's
    rows, M = N sequences per flock, length L = A's columns, and targets
    the full zone (-L, L) x (-L, L): flock autos vanish off the origin
    and cross pairs stay at magnitude 0 or N everywhere.
    """
    if B.N != A.N:
        raise OrderMismatchError(
            "rectangle alphabet Z_%d does not match Butson order %d" % (A.N, B.N)
        )
    if not verify_c1(A):
        raise RectangleClassError("rectangle fails C1")
    if not verify_c2(A, circular=False):
        raise RectangleClassError("rectangle fails linear C2")
    if not verify_bh(B):
        raise UnitarityError("matrix is not Butson-type")
    # flocks[k, m, n] = B.exps[A.rows[k, n], m]
    flocks = np.transpose(B.exps[A.rows], (0, 2, 1)).copy()
    return DrcsSet(
        flocks,
        B.r,
        Zone(A.ncols, A.ncols),
        {"builder": "drcs", "rectangle": A.provenance, "butson": B.provenance},
    )


def export_drcs(S, path):
    """Write the set losslessly as JSON; returns the written dict."""
    obj = S.to_json()
    data = json.dumps(obj, sort_keys=True, indent=1)
    try:
        with open(path, "w") as fh:
            fh.write(data)
            fh.write("\n")
    except OSError as exc:
        raise ParseError("cannot write %s: %s" % (path, exc)) from None
    return obj


def import_drcs(path):
    """Read a set back; shape declarations must match the payload."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        obj = json.loads(raw)
    except OSError as exc:
        raise SchemaError("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise SchemaError("malformed JSON in %s: %s" % (path, exc)) from None
    try:
        flocks, r = obj["flocks"], obj["r"]
        zone = obj.get("zone")
    except (KeyError, TypeError) as exc:
        raise SchemaError("set JSON needs flocks, r: %s" % exc) from None
    flocks = json_int_array(flocks, "flocks", SchemaError)
    r = json_int(r, "r", SchemaError)
    if zone:
        if not isinstance(zone, list) or len(zone) != 2:
            raise SchemaError("zone must be a list [Z_x, Z_y], got %r" % (zone,))
        zone = Zone(*(json_int(z, "zone", SchemaError) for z in zone))
    else:
        zone = None
    if flocks.ndim != 3:
        raise SchemaError("flocks must be K x M x L, got ndim=%d" % flocks.ndim)
    declared = tuple(obj.get(k, flocks.shape[i]) for i, k in enumerate(("K", "M", "L")))
    if declared != flocks.shape:
        raise SchemaError("declared shape %s != payload shape %s" % (declared, flocks.shape))
    prov = obj.get("provenance") or {"source": "external"}
    if "source" not in prov:
        prov = dict(prov)
        prov["source"] = {"path": str(path), "sha256": hashlib.sha256(raw).hexdigest()}
    return DrcsSet(flocks, r, zone, prov)
