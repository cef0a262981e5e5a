"""The GF(p^n) machinery behind the quasi-Florentine rectangle builder.

A FieldSpec pins down GF(p^n) by a monic primitive polynomial, found
by a deterministic search, and gives the table of powers of its root
alpha as coefficient vectors over Z_p (low degree first). The builder
reads rectangle symbols off that table. This module also holds the
package's one trial-division loop, which factors orders and tests
primes for the rectangle and Butson layers.
"""

import functools

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


@functools.lru_cache(maxsize=64)
def _prime_factors(m):
    """Distinct prime divisors of m, in ascending order. Memoised: the
    primitivity test factors the same p^n - 1 for every candidate
    polynomial of a field."""
    out = []
    while m > 1:
        d = smallest_prime_factor(m)
        out.append(d)
        while m % d == 0:
            m //= d
    return tuple(out)


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


def _mul_mod_poly(a, b, p, poly):
    """Multiply two coefficient tuples and reduce mod (poly, p).

    poly is the full modulus c0..c_{n-1}, 1 (monic), so
    x^n = -(c0 + c1 x + ... + c_{n-1} x^{n-1}).
    """
    n = len(a)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(2 * n - 2, n - 1, -1):
        c = prod[d]
        if c == 0:
            continue
        prod[d] = 0
        for i in range(n):
            prod[d - n + i] = (prod[d - n + i] - c * poly[i]) % p
    return tuple(prod[:n])


def _times_x(coeffs, p, poly):
    """Multiply by x and reduce; O(n), used to walk the power table."""
    n = len(coeffs)
    top = coeffs[-1]
    shifted = (0,) + coeffs[:-1]
    if top == 0:
        return shifted
    return tuple((shifted[i] - top * poly[i]) % p for i in range(n))


def _alpha_order_is_full(p, n, poly):
    """True iff x has multiplicative order exactly p^n - 1 mod (poly, p).

    Full order forces every nonzero residue to be a power of x, so the
    quotient ring is a field and poly is both irreducible and primitive;
    no separate irreducibility pass is needed.
    """
    e = p ** n - 1
    alpha = tuple(1 if i == 1 else 0 for i in range(n)) if n > 1 else ((-poly[0]) % p,)
    one = (1,) + (0,) * (n - 1)

    def powmod(base, k):
        acc = one
        while k:
            if k & 1:
                acc = _mul_mod_poly(acc, base, p, poly)
            base = _mul_mod_poly(base, base, p, poly)
            k >>= 1
        return acc

    if powmod(alpha, e) != one:
        return False
    for q in _prime_factors(e):
        if powmod(alpha, e // q) == one:
            return False
    return True


class FieldSpec:
    """GF(p^n) defined by a monic primitive polynomial (low-to-high coeffs)."""

    def __init__(self, p, n, poly):
        p, n = int(p), int(n)
        check_field(p, n)
        poly = tuple(int(c) % p for c in poly)
        if len(poly) != n + 1 or poly[-1] != 1:
            raise InvariantError("modulus must be monic of degree n (got %r)" % (poly,))
        if not _alpha_order_is_full(p, n, poly):
            raise InvariantError("polynomial %r is not primitive over Z_%d" % (poly, p))
        self.p = p
        self.n = n
        self.poly = poly
        self._exp_digits = None

    @property
    def order(self):
        return self.p ** self.n

    def __repr__(self):
        return "FieldSpec(p=%d, n=%d, poly=%r)" % (self.p, self.n, list(self.poly))

    def power_digits(self):
        """(p^n - 1) x n array; row j holds the coefficients of alpha^j.

        Cached and read-only: the rectangle builder reads its symbols
        off this table.
        """
        if self._exp_digits is None:
            q = self.order
            digits = np.zeros((q - 1, self.n), dtype=np.int64)
            cur = (1,) + (0,) * (self.n - 1)
            for j in range(q - 1):
                digits[j] = cur
                cur = _times_x(cur, self.p, self.poly)
            self._exp_digits = digits
            self._exp_digits.setflags(write=False)
        return self._exp_digits

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

    # Odometer over (c0, ..., c_{n-1}); c0 != 0 or x would divide the modulus.
    coeffs = [0] * n
    while True:
        poly = tuple(coeffs) + (1,)
        if coeffs[0] != 0 and _alpha_order_is_full(p, n, poly):
            return FieldSpec(p, n, poly)
        i = n - 1
        while i >= 0 and coeffs[i] == p - 1:
            coeffs[i] = 0
            i -= 1
        if i < 0:
            raise InvariantError("no primitive polynomial found for GF(%d^%d)" % (p, n))
        coeffs[i] += 1
