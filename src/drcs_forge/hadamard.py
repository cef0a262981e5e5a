"""Butson-type Hadamard matrices kept as integer exponent tables.

A matrix H of order N over the r-th roots of unity is Butson-type when
H H* = N I. Everything here stores the exponent table E with
H = omega_r^E, so constructions and Kronecker products stay exact
integer arithmetic; only the composite-order verifier touches floats.
"""

import hashlib
import json
import math

import numpy as np

from .errors import (
    InvariantError,
    ParamsOutOfRangeError,
    ParseError,
    UnitarityError,
    json_int,
    json_int_array,
)
from .finite_field import is_prime


class PhaseMatrix:
    """Square exponent table over Z_r with provenance."""

    def __init__(self, N, r, exps, provenance=None):
        N, r = int(N), int(r)
        exps = np.array(exps, dtype=np.int64)
        if N < 1 or r < 1:
            raise InvariantError("need N >= 1 and r >= 1")
        if exps.shape != (N, N):
            raise InvariantError("exponents must be %dx%d, got %s" % (N, N, exps.shape))
        if exps.size and (exps.min() < 0 or exps.max() >= r):
            raise InvariantError("exponents must lie in [0, %d)" % r)
        exps.setflags(write=False)
        self.N = N
        self.r = r
        self.exps = exps
        self.provenance = dict(provenance) if provenance else {}

    def __repr__(self):
        return "PhaseMatrix(N=%d, r=%d)" % (self.N, self.r)

    def __eq__(self, other):
        if not isinstance(other, PhaseMatrix):
            return NotImplemented
        return (
            self.N == other.N
            and self.r == other.r
            and np.array_equal(self.exps, other.exps)
        )

    def to_complex(self):
        return np.exp(2j * np.pi * self.exps / self.r)

    def to_json(self):
        return {
            "N": self.N,
            "r": self.r,
            "exps": self.exps.tolist(),
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, obj):
        try:
            N, r, exps = obj["N"], obj["r"], obj["exps"]
        except (KeyError, TypeError) as exc:
            raise ParseError("seed JSON needs N, r, exps: %s" % exc) from None
        N = json_int(N, "N", ParseError)
        r = json_int(r, "r", ParseError)
        exps = json_int_array(exps, "exps", ParseError)
        try:
            return cls(N, r, exps, obj.get("provenance"))
        except InvariantError as exc:
            raise ParseError(str(exc)) from None


def dft_matrix(N):
    """Fourier exponents i*j mod N; a Butson matrix of order N over r = N."""
    N = int(N)
    if N < 1:
        raise ParamsOutOfRangeError("need N >= 1, got %d" % N)
    i = np.arange(N, dtype=np.int64)
    return PhaseMatrix(N, N, (i[:, None] * i[None, :]) % N, {"builder": "dft", "N": N})


def walsh_hadamard(m):
    """Sylvester doubling to order 2^m over r = 2.

    The entry at (i, j) equals popcount(i & j) mod 2.
    """
    m = int(m)
    if m < 0:
        raise ParamsOutOfRangeError("need m >= 0, got %d" % m)
    exps = np.zeros((1, 1), dtype=np.int64)
    for _ in range(m):
        exps = np.block([[exps, exps], [exps, (exps + 1) % 2]])
    return PhaseMatrix(2 ** m, 2, exps, {"builder": "walsh", "m": m})


def kronecker(B1, B2):
    """Kronecker product: order N1*N2 over r = lcm(r1, r2).

    Phases add after rescaling both factors onto the common root.
    """
    r = math.lcm(B1.r, B2.r)
    s1, s2 = r // B1.r, r // B2.r
    a = (s1 * B1.exps)[:, None, :, None]
    b = (s2 * B2.exps)[None, :, None, :]
    N = B1.N * B2.N
    exps = ((a + b) % r).reshape(N, N)
    return PhaseMatrix(
        N, r, exps, {"builder": "kronecker", "left": B1.provenance, "right": B2.provenance}
    )


UNITARITY_RTOL = 1e-9


def verify_bh(B):
    """Check H H* = N I for the exponent table B.

    Prime r admits an exact test: a sum of N r-th roots of unity with
    prime r vanishes iff every residue appears equally often, so each
    off-diagonal row pair must spread its exponent differences uniformly
    (and r must divide N for that to be possible at all). Composite r
    falls back to a numeric Gram check with tolerance 1e-9 * N.
    """
    N, r = B.N, B.r
    if N == 1:
        return True
    if is_prime(r):
        if N % r != 0:
            return False
        want = N // r
        for i in range(N):
            diffs = (B.exps[i] - B.exps[i + 1 :]) % r
            for v in range(r):
                if not np.all(np.sum(diffs == v, axis=1) == want):
                    return False
        return True
    H = B.to_complex()
    G = H @ H.conj().T
    off = G - N * np.eye(N)
    return bool(np.max(np.abs(off)) <= UNITARITY_RTOL * N)


def load_seed(path):
    """Load and verify an exponent table from a {N, r, exps} JSON file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        obj = json.loads(raw)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise ParseError("malformed JSON in %s: %s" % (path, exc)) from None
    B = PhaseMatrix.from_json(obj)
    if not verify_bh(B):
        raise UnitarityError("matrix in %s is not Butson-type" % path)
    B.provenance.setdefault("source", {"path": str(path), "sha256": hashlib.sha256(raw).hexdigest()})
    return B
