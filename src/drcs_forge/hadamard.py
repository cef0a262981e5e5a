"""Butson-type Hadamard matrices kept as integer exponent tables.

A matrix H of order N over the r-th roots of unity is Butson-type when
H H* = N I. Everything here stores the exponent table E with
H = omega_r^E, so constructions and Kronecker products stay exact
integer arithmetic. The verifier works from the float Gram matrix: for
prime r a stated rounding bound makes its verdict exact (or it counts
exponent differences instead), for composite r it is a tolerance test.
Builders refuse orders above ORDER_CAP before allocating anything; the
cap and its cost are in _limits.
"""

import math

import numpy as np

from ._artifacts import Table
from ._limits import ORDER_CAP, require
from .errors import (
    InvariantError,
    ParamsOutOfRangeError,
    ParseError,
    UnitarityError,
    json_int,
    json_int_array,
    json_object,
)
from .finite_field import is_prime


class PhaseMatrix(Table):
    """Square exponent table over Z_r with provenance."""

    TABLE_FIELD = "exps"
    SHAPE_FIELDS = ("N", "N")

    def __init__(self, N, r, exps, provenance=None):
        self.N, self.r = int(N), int(r)
        self.exps = self._table(exps, self.r, provenance)
        if self.N < 1 or self.exps.shape != (self.N, self.N):
            raise InvariantError("need N >= 1 and %dx%d exponents, got %s"
                                 % (self.N, self.N, self.exps.shape))

    def __repr__(self):
        return "PhaseMatrix(N=%d, r=%d)" % (self.N, self.r)

    def to_complex(self):
        """H = omega_r^E, gathered from a table of the r roots. Each entry
        has the bits of np.exp(2j * np.pi * e / r); when r exceeds the
        entry count, the entries are computed directly instead."""
        if self.r > self.exps.size:
            return np.exp(2j * np.pi * self.exps / self.r)
        return np.exp(2j * np.pi * np.arange(self.r) / self.r)[self.exps]

    def _fields(self):
        return {"N": self.N, "r": self.r, "exps": self.exps, "provenance": self.provenance}

    @classmethod
    def from_json(cls, obj):
        """The table a parsed {N, r, exps} object holds, unverified."""
        try:
            N, r, exps = obj["N"], obj["r"], obj["exps"]
        except (KeyError, TypeError) as exc:
            raise ParseError("seed JSON needs N, r, exps: %s" % exc) from None
        N = json_int(N, "N", ParseError)
        r = json_int(r, "r", ParseError)
        exps = json_int_array(exps, "exps", ParseError)
        return cls(N, r, exps, json_object(obj.get("provenance"), "provenance", ParseError))


def dft_matrix(N):
    """Fourier exponents i*j mod N; a Butson matrix of order N over r = N."""
    N = int(N)
    if N < 1:
        raise ParamsOutOfRangeError("need N >= 1, got %d" % N)
    require(N, ORDER_CAP, "dft matrix of order %d" % N)
    i = np.arange(N, dtype=np.int64)
    return PhaseMatrix(N, N, (i[:, None] * i[None, :]) % N, {"builder": "dft", "N": N})


def walsh_hadamard(m):
    """Sylvester doubling to order 2^m over r = 2.

    The entry at (i, j) equals popcount(i & j) mod 2.
    """
    m = int(m)
    if m < 0:
        raise ParamsOutOfRangeError("need m >= 0, got %d" % m)
    # 2^min(m, 14) is over the cap exactly when 2^m is, which is never computed
    require(2 ** min(m, ORDER_CAP.bit_length()), ORDER_CAP, "walsh matrix of order 2^%d" % m)
    exps = np.zeros((1, 1), dtype=np.int64)
    for _ in range(m):
        exps = np.block([[exps, exps], [exps, (exps + 1) % 2]])
    return PhaseMatrix(2 ** m, 2, exps, {"builder": "walsh", "m": m})


def kronecker(B1, B2):
    """Kronecker product: order N1*N2 over r = lcm(r1, r2).

    Phases add after rescaling both factors onto the common root; with
    r <= 2^62 the sum of two rescaled exponents, below 2r, fits int64.
    """
    N = B1.N * B2.N
    require(N, ORDER_CAP, "kronecker product of order %d" % N)
    r = math.lcm(B1.r, B2.r)
    require(r, 2 ** 62, "int64 kronecker root order %d" % r)
    s1, s2 = r // B1.r, r // B2.r
    a = (s1 * B1.exps)[:, None, :, None]
    b = (s2 * B2.exps)[None, :, None, :]
    exps = ((a + b) % r).reshape(N, N)
    return PhaseMatrix(
        N, r, exps, {"builder": "kronecker", "left": B1.provenance, "right": B2.provenance}
    )


UNITARITY_RTOL = 1e-9


def _norm_floor(N, r):
    """Smallest |x| of a nonzero x = sum of N r-th roots of unity, r prime.

    x lies in Z[omega_r] and its norm, the product of its r - 1
    conjugates, is a nonzero integer. The conjugates come in (r - 1) / 2
    complex-conjugate pairs, each of magnitude at most N, so
    |x|^2 * N^(r - 3) >= 1. For r = 2 x is an integer; r = 3 gives 1 too.
    """
    return float(N) ** (-(max(r, 3) - 3) / 2)


def _gram_error_bound(N):
    """Entrywise bound on |G~ - H H*|, G~ the Gram matrix computed in floats.

    Each computed root is within 12 eps of omega_r^e: the angle
    2 pi e / r carries three roundings (< 10 eps absolute), cos and sin
    one ulp each. So the exact Gram matrix of the computed roots is
    within 25 N eps of H H*. Computing it in floats adds, to each real
    and imaginary part, the error of a length-2N dot product whose terms
    sum to at most N: at most gamma_2N * N ~ N^2 eps, in any summation
    order. Both fit under 8 (N^2 + 4N) eps with room to spare.
    """
    return 8 * (N * N + 4 * N) * np.finfo(np.float64).eps


def _uniform_differences(E, r):
    """True when, for every row pair (i, p), the differences E[i] - E[p]
    mod r hit each residue N / r times: one bincount per row i over the
    codes (p offset) * r + difference."""
    N = len(E)
    for i in range(N - 1):
        rest = N - 1 - i
        codes = E[i] - E[i + 1:]
        codes %= r
        codes += (np.arange(rest) * r)[:, None]
        if not np.all(np.bincount(codes.ravel(), minlength=rest * r) == N // r):
            return False
    return True


# Entries of one block of the Gram matrix: 16 MiB of complex values. At
# N <= 1024 the whole Gram matrix is one block.
_GRAM_BLOCK = 1 << 20


def _gram_deviation(B):
    """max |H H* - N I| over all entries, from float Gram products of
    at most _GRAM_BLOCK entries: rows i:j of conj(H H*) are conj(H[i:j])
    H^T, and conj keeps each magnitude and the diagonal N."""
    H, N = B.to_complex(), B.N
    rows = max(1, _GRAM_BLOCK // N)
    dev = 0.0
    for i in range(0, N, rows):
        G = H[i:i + rows].conj() @ H.T
        G.flat[i:: N + 1] -= N
        dev = max(dev, np.max(np.abs(G)))
    return dev


def verify_bh(B):
    """Check H H* = N I for the exponent table B.

    Prime r is decided exactly. An off-diagonal entry x of H H* is a sum
    of N r-th roots of unity; it vanishes iff every residue appears
    equally often among its exponent differences, so r must divide N.
    A nonzero x has |x| >= floor = N^(-(r - 3) / 2) (1 for r = 2, 3;
    see _norm_floor). When the rounding bound 8 (N^2 + 4N) eps on the
    float Gram matrix is below floor / 4, which holds for r = 2, 3 and 5
    at every order up to ORDER_CAP, the verdict is
    max |G - N I| < floor / 2: an exact zero reads below floor / 4, a
    nonzero entry above 3 floor / 4. Otherwise (large r, as in
    dft_matrix(p) for a prime p) the differences are counted exactly.

    Composite r keeps a numeric Gram check with tolerance 1e-9 * N.
    """
    N, r = B.N, B.r
    if N == 1:
        return True
    if is_prime(r):
        if N % r != 0:  # so r <= N: at most (N - 1) r bins in a count
            return False
        floor = _norm_floor(N, r)
        if _gram_error_bound(N) >= floor / 4:
            return _uniform_differences(B.exps, r)
        return bool(_gram_deviation(B) < floor / 2)
    return bool(_gram_deviation(B) <= UNITARITY_RTOL * N)


def load_seed(path):
    """Load and verify an exponent table from a {N, r, exps} JSON file."""
    B, sha = PhaseMatrix.read(path)
    if not verify_bh(B):
        raise UnitarityError("matrix in %s is not Butson-type" % path)
    B.provenance.setdefault("source", {"path": str(path), "sha256": sha})
    return B
