"""The GF(p^n) machinery behind the quasi-Florentine rectangle builder.

A FieldSpec pins down GF(p^n) by a monic primitive polynomial, found
by a deterministic search, and gives the table of powers of its root
alpha as coefficient vectors over Z_p (low degree first). The builder
reads rectangle symbols off that table. One walk over the powers of x
modulo the polynomial both builds the table and decides primitivity:
no order is factored. This module also holds the package's one
trial-division loop, which finds the smallest prime factor of N for
the circular Florentine builder and tests primes for the rectangle and
Butson layers.
"""

import itertools

import numpy as np

from .errors import CapExceededError, InvariantError, NonPrimeError, ParamsOutOfRangeError

# Above this the exp/log tables stop being a desk-scale object.
FIELD_CAP = 1 << 20

# Largest number trial division is asked to factor: at most 2^19 odd
# divisors to try, a fraction of a second.
TRIAL_DIVISION_CAP = 1 << 40


def smallest_prime_factor(N):
    """The smallest prime dividing N >= 2, by trial division."""
    if N < 2:
        raise ParamsOutOfRangeError("need N >= 2, got %d" % N)
    if N > TRIAL_DIVISION_CAP:
        raise ParamsOutOfRangeError(
            "%d is over the trial-division cap of 2^40" % N)
    if N % 2 == 0:
        return 2
    d = 3
    while d * d <= N:
        if N % d == 0:
            return d
        d += 2
    return N


def is_prime(m):
    return m >= 2 and smallest_prime_factor(m) == m


def check_field(p, n):
    """p^n, once p is prime, n >= 1 and p^n <= FIELD_CAP; raises otherwise.

    n is compared with the cap before p^n is computed, so a huge n
    costs nothing.
    """
    if not is_prime(p):
        raise NonPrimeError("p = %d is not prime" % p)
    if n < 1:
        raise ParamsOutOfRangeError("extension degree must be >= 1, got %d" % n)
    if n >= FIELD_CAP.bit_length() or p ** n > FIELD_CAP:  # p^n >= 2^n
        raise CapExceededError("GF(%d^%d) is over the %d-element table cap"
                               % (p, n, FIELD_CAP))
    return p ** n


def _power_walk(p, n, poly):
    """The rows x^0, ..., x^(q-2) mod (poly, p), q = p^n, if x has order
    exactly q - 1; None otherwise.

    The walk stops at the first return to 1, or after q - 1 steps. The
    ring Z_p[x]/(poly) has at most q - 1 units, and exactly q - 1 only
    when it is a field, so full order makes poly both irreducible and
    primitive. When poly(0) = 0, x is no unit and never returns to 1.
    """
    units = p ** n - 1
    one = (1,) + (0,) * (n - 1)
    rows, cur = [], one
    for _ in range(units):
        rows.append(cur)
        # times x, reduced by x^n = -(c0 + c1 x + ... + c_{n-1} x^{n-1})
        top, cur = cur[-1], (0,) + cur[:-1]
        if top:
            cur = tuple([(c - top * m) % p for c, m in zip(cur, poly)])
        if cur == one:
            break
    return rows if len(rows) == units and cur == one else None


class FieldSpec:
    """GF(p^n) defined by a monic primitive polynomial (low-to-high coeffs)."""

    def __init__(self, p, n, poly):
        p, n = int(p), int(n)
        check_field(p, n)
        poly = tuple(int(c) % p for c in poly)
        if len(poly) != n + 1 or poly[-1] != 1:
            raise InvariantError("modulus must be monic of degree n (got %r)" % (poly,))
        rows = _power_walk(p, n, poly)
        if rows is None:
            raise InvariantError("polynomial %r is not primitive over Z_%d" % (poly, p))
        self.p = p
        self.n = n
        self.poly = poly
        self._digits = np.array(rows, dtype=np.int64)
        self._digits.setflags(write=False)

    @property
    def order(self):
        return self.p ** self.n

    def __repr__(self):
        return "FieldSpec(p=%d, n=%d, poly=%r)" % (self.p, self.n, list(self.poly))

    def power_digits(self):
        """(p^n - 1) x n array; row j holds the coefficients of alpha^j.

        Read-only: the rectangle builder reads its symbols off this
        table.
        """
        return self._digits

    def to_json(self):
        return {"p": self.p, "n": self.n, "poly": list(self.poly)}


def find_primitive_polynomial(p, n):
    """Lexicographically smallest monic primitive polynomial for GF(p^n).

    Candidates are scanned in ascending (c0, c1, ..., c_{n-1}) order, so
    the result is deterministic across runs. GF(3^2) lands on x^2+x+2,
    GF(2) on x+1.
    """
    p, n = int(p), int(n)
    check_field(p, n)

    # Ascending (c0, ..., c_{n-1}); c0 != 0 or x would divide the modulus.
    # The norm (-1)^n c0 of a primitive element generates Z_p^*, so for
    # n > 1 a c0 whose norm does not (a walk in GF(p) tells) is passed
    # over with all its candidates.
    for c0 in range(1, p):
        if n > 1 and _power_walk(p, 1, ((-1) ** (n + 1) * c0 % p, 1)) is None:
            continue
        for rest in itertools.product(range(p), repeat=n - 1):
            poly = (c0,) + rest + (1,)
            if _power_walk(p, n, poly) is not None:
                return FieldSpec(p, n, poly)
    raise InvariantError("no primitive polynomial found for GF(%d^%d)" % (p, n))
