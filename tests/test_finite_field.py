import itertools
import time

import numpy as np
import pytest

from drcs_forge.errors import (
    CapExceededError,
    InvariantError,
    NonPrimeError,
    ParamsOutOfRangeError,
)
from drcs_forge.finite_field import (
    FieldSpec,
    check_field,
    find_primitive_polynomial,
    is_prime,
    smallest_prime_factor,
)
from drcs_forge.rectangles import build_circular_quasi_florentine

PRIMES_TO_64 = [p for p in range(2, 65) if all(p % d for d in range(2, p))]
PRIME_POWERS_TO_64 = [(p, n) for p in PRIMES_TO_64 for n in range(1, 7) if p ** n <= 64]


class RefField:
    """GF(p^n) as coefficient tuples over Z_p (low degree first) modulo a
    monic polynomial, by schoolbook products and long division. Written
    apart from finite_field, as a reference for what it builds."""

    def __init__(self, p, poly):
        self.p = p
        self.poly = tuple(poly)
        self.n = len(poly) - 1

    def reduce(self, coeffs):
        """The remainder of a coefficient list modulo poly."""
        c = [v % self.p for v in coeffs] + [0] * self.n
        for d in range(len(c) - 1, self.n - 1, -1):
            lead = c[d]
            for i, ci in enumerate(self.poly):
                c[d - self.n + i] = (c[d - self.n + i] - lead * ci) % self.p
        return tuple(c[: self.n])

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        return self.reduce(prod)

    def one(self):
        return self.reduce([1])

    def alpha(self):
        """The class of x, a root of poly."""
        return self.reduce([0, 1])

    def powers(self, a, count):
        """a^0, ..., a^(count - 1)."""
        out = [self.one()]
        for _ in range(count - 1):
            out.append(self.mul(out[-1], a))
        return out

    def elements(self):
        return itertools.product(range(self.p), repeat=self.n)

    def psi(self, a):
        """Base-p encoding of a coefficient vector."""
        return sum(c * self.p ** i for i, c in enumerate(a))


def brute_force_primitive(p, n):
    """The first monic poly in ascending (c0, ..., c_{n-1}) order whose
    root x has order exactly p^n - 1."""
    q = p ** n
    for coeffs in itertools.product(range(p), repeat=n):
        F = RefField(p, coeffs + (1,))
        units = F.powers(F.alpha(), q)
        if units[-1] == F.one() and F.one() not in units[1:-1]:
            return F.poly
    raise AssertionError("no primitive polynomial for GF(%d^%d)" % (p, n))


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert is_prime(n) == (n in primes)


class TestTrialDivision:
    def test_agrees_with_a_sieve(self):
        for m in range(2, 2000):
            d = smallest_prime_factor(m)
            assert m % d == 0 and all(d % k for k in range(2, d))
            assert all(m % k for k in range(2, d))

    def test_admits_the_cap(self):
        assert smallest_prime_factor(1 << 40) == 2
        assert is_prime(10 ** 12) is False

    @pytest.mark.parametrize("m", [(1 << 40) + 1, 2 ** 61 - 1, 10 ** 30])
    def test_refuses_above_the_cap(self, m):
        t0 = time.perf_counter()
        with pytest.raises(ParamsOutOfRangeError):
            is_prime(m)
        assert time.perf_counter() - t0 < 0.1


class TestPrimitivePolynomial:
    def test_prime_fields_use_smallest_primitive_root_shift(self):
        # for n = 1 the polynomial is x + c0 with -c0 a primitive root
        assert find_primitive_polynomial(2, 1).poly == (1, 1)
        assert find_primitive_polynomial(3, 1).poly == (1, 1)
        assert find_primitive_polynomial(5, 1).poly == (2, 1)

    def test_gf9_polynomial(self):
        # candidates below (2, 1) in low-to-high lex order all fail:
        # x^2+1 has order-4 root, x^2+x+1 and x^2+2x+1 are squares,
        # x^2+2 has the root 1
        assert find_primitive_polynomial(3, 2).poly == (2, 1, 1)

    def test_gf8_polynomial(self):
        # both x^3+x+1 and x^3+x^2+1 are primitive; the lex rule picks
        # the latter since (1,0,1) < (1,1,0)
        assert find_primitive_polynomial(2, 3).poly == (1, 0, 1, 1)

    def test_nonprime_rejected(self):
        with pytest.raises(NonPrimeError):
            find_primitive_polynomial(4, 2)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            find_primitive_polynomial(2, 21)

    def test_alpha_generates_all_units(self):
        # rows of power_digits are alpha^0 .. alpha^14: all distinct and
        # nonzero, so alpha has the full order 15
        d = find_primitive_polynomial(2, 4).power_digits()
        assert d.shape == (15, 4)
        assert len({tuple(row) for row in d.tolist()}) == 15
        assert d.any(axis=1).all()

    @pytest.mark.parametrize("p, n", PRIME_POWERS_TO_64)
    def test_lex_first_by_brute_force(self, p, n):
        assert find_primitive_polynomial(p, n).poly == brute_force_primitive(p, n)


@pytest.mark.parametrize("p, n", PRIME_POWERS_TO_64)
def test_field_spec_accepts_exactly_the_primitive_polynomials(p, n):
    # every monic polynomial of degree n, c0 = 0 and reducible ones too:
    # FieldSpec takes it iff x has order p^n - 1, and its table then
    # holds the powers of x
    q = p ** n
    for coeffs in itertools.product(range(p), repeat=n):
        F = RefField(p, coeffs + (1,))
        units = F.powers(F.alpha(), q)
        if units[-1] == F.one() and F.one() not in units[1:-1]:
            assert FieldSpec(p, n, F.poly).power_digits().tolist() == [list(u) for u in units[:-1]]
        else:
            with pytest.raises(InvariantError):
                FieldSpec(p, n, F.poly)


class TestFieldCheck:
    def test_returns_the_order(self):
        assert check_field(3, 3) == 27
        assert check_field(2, 20) == 1 << 20

    @pytest.mark.parametrize("p, n, error", [
        (4, 1, NonPrimeError),
        (1, 1, NonPrimeError),
        (3, 0, ParamsOutOfRangeError),
        (2, 21, CapExceededError),
        (1031, 2, CapExceededError),
        (3, 1000000, CapExceededError),
        (3, 100000000, CapExceededError),
        (2 ** 61 - 1, 1, ParamsOutOfRangeError),
    ])
    def test_refusals_are_quick(self, p, n, error):
        # the message leaves p^n out: it may have more digits than str() takes
        t0 = time.perf_counter()
        with pytest.raises(error) as info:
            check_field(p, n)
        assert time.perf_counter() - t0 < 0.5
        assert len(str(info.value)) < 200


class TestPsi:
    def test_base_p_encoding(self):
        # coefficient vector (c0, c1) encodes as c0 + 3*c1
        assert RefField(3, (2, 1, 1)).psi((2, 1)) == 2 + 3 * 1

    def test_exp_table_gf9(self):
        fs = find_primitive_polynomial(3, 2)
        assert (fs.power_digits() @ 3 ** np.arange(2)).tolist() == [1, 3, 7, 8, 2, 6, 5, 4]

    def test_psi_bijective_gf27(self):
        F = RefField(3, find_primitive_polynomial(3, 3).poly)
        assert sorted(F.psi(e) for e in F.elements()) == list(range(27))


class TestArithmetic:
    """The reference field itself, before it is trusted with the builder."""

    def test_add_and_mul_match_integer_field(self):
        F = RefField(7, find_primitive_polynomial(7, 1).poly)
        a, b = (3,), (5,)
        assert F.psi(F.add(a, b)) == (3 + 5) % 7
        assert F.psi(F.mul(a, b)) == (3 * 5) % 7

    def test_fermat(self):
        F = RefField(2, find_primitive_polynomial(2, 4).poly)
        for e in F.elements():
            if any(e):
                assert F.powers(e, 16)[-1] == F.one()


@pytest.mark.parametrize("p, n", PRIME_POWERS_TO_64)
def test_builder_rows_follow_the_field(p, n):
    # row 0 is psi(alpha^j), row i > 0 is psi(alpha^j + alpha^(i-1))
    F = RefField(p, brute_force_primitive(p, n))
    q = p ** n
    units = F.powers(F.alpha(), q - 1)
    want = [[F.psi(a) for a in units]]
    want += [[F.psi(F.add(a, units[i - 1])) for a in units] for i in range(1, q)]
    assert build_circular_quasi_florentine(p, n).rows.tolist() == want


def test_field_spec_json_round_trip():
    fs = find_primitive_polynomial(5, 2)
    fs2 = FieldSpec(**fs.to_json())
    assert fs2.p == 5 and fs2.n == 2 and fs2.poly == fs.poly


def test_power_digits_readonly():
    fs = find_primitive_polynomial(2, 3)
    d = fs.power_digits()
    with pytest.raises(ValueError):
        d[0, 0] = 1
