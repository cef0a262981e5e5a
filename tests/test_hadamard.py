import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drcs_forge import hadamard
from drcs_forge.errors import InvariantError, ParamsOutOfRangeError, ParseError, UnitarityError
from drcs_forge.hadamard import (
    ORDER_CAP,
    PhaseMatrix,
    _gram_error_bound,
    _norm_floor,
    _uniform_differences,
    dft_matrix,
    kronecker,
    load_seed,
    verify_bh,
    walsh_hadamard,
)

SEED_DIR = "src/drcs_forge/data/seeds"

# Cyclotomic polynomials Phi_r, lowest coefficient first: a sum
# sum_k c_k omega_r^k vanishes iff c(x) is divisible by Phi_r(x).
CYCLOTOMIC = {
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    7: [1, 1, 1, 1, 1, 1, 1],
}


def literal_butson(E, r):
    """Every off-diagonal entry of H H* is zero, decided from counts.

    For prime r this is the literal test that each row pair's exponent
    differences hit every residue equally often; for composite r the
    count vector is reduced modulo Phi_r in integer arithmetic.
    """
    E = np.asarray(E).tolist()
    phi = CYCLOTOMIC[r]
    for i in range(len(E)):
        for j in range(i + 1, len(E)):
            counts = [0] * r
            for a, b in zip(E[i], E[j]):
                counts[(a - b) % r] += 1
            if len(phi) == r:  # prime r: Phi_r = 1 + x + ... + x^(r-1)
                if len(set(counts)) != 1:
                    return False
                continue
            for k in range(r - 1, len(phi) - 2, -1):  # long division by monic Phi_r
                q = counts[k]
                for t, c in enumerate(phi):
                    counts[k - len(phi) + 1 + t] -= q * c
            if any(counts):
                return False
    return True


def monomial(B, rng):
    """Row/column permutations plus per-row/per-column offsets mod r;
    these keep H H* = N I."""
    N, r = B.N, B.r
    E = B.exps[rng.permutation(N)][:, rng.permutation(N)]
    E = (E + rng.integers(0, r, N)[:, None] + rng.integers(0, r, N)[None, :]) % r
    return PhaseMatrix(N, r, E)


def tampered(B, i, j, step):
    E = B.exps.copy()
    E[i, j] = (E[i, j] + step) % B.r
    return PhaseMatrix(B.N, B.r, E)


def _bh21():
    return load_seed(f"{SEED_DIR}/bh21_3.json")


# Known Butson tables by root order r, as builders of (N, r) tables.
KNOWN = {
    2: [lambda: walsh_hadamard(1), lambda: walsh_hadamard(3), lambda: walsh_hadamard(5)],
    3: [lambda: dft_matrix(3), lambda: kronecker(dft_matrix(3), dft_matrix(3)), _bh21,
        lambda: kronecker(dft_matrix(3), _bh21())],
    5: [lambda: dft_matrix(5), lambda: kronecker(dft_matrix(5), dft_matrix(5))],
    7: [lambda: dft_matrix(7), lambda: kronecker(dft_matrix(7), dft_matrix(7))],
    4: [lambda: dft_matrix(4), lambda: kronecker(dft_matrix(4), walsh_hadamard(2))],
    6: [lambda: dft_matrix(6), lambda: kronecker(dft_matrix(3), walsh_hadamard(2)),
        lambda: kronecker(_bh21(), walsh_hadamard(1))],
}


class TestDft:
    @pytest.mark.parametrize("N", range(1, 9))
    def test_orthogonal(self, N):
        assert verify_bh(dft_matrix(N))

    def test_entries(self):
        B = dft_matrix(4)
        assert B.exps.tolist() == [
            [0, 0, 0, 0],
            [0, 1, 2, 3],
            [0, 2, 0, 2],
            [0, 3, 2, 1],
        ]

    def test_tampered_fails(self):
        B = dft_matrix(4)
        exps = B.exps.copy()
        exps[2, 1] = 1
        assert not verify_bh(PhaseMatrix(4, 4, exps))


class TestWalsh:
    @pytest.mark.parametrize("m", range(5))
    def test_orthogonal(self, m):
        B = walsh_hadamard(m)
        assert B.N == 2 ** m and B.r == 2
        assert verify_bh(B)

    def test_popcount_form(self):
        B = walsh_hadamard(4)
        for i in range(16):
            for j in range(16):
                assert B.exps[i, j] == bin(i & j).count("1") % 2


class TestKronecker:
    def test_preserves_orthogonality(self):
        B = kronecker(dft_matrix(3), walsh_hadamard(2))
        assert (B.N, B.r) == (12, 6)
        assert verify_bh(B)

    def test_matches_numeric_product(self):
        B1, B2 = dft_matrix(3), dft_matrix(4)
        B = kronecker(B1, B2)
        want = np.kron(B1.to_complex(), B2.to_complex())
        assert np.allclose(B.to_complex(), want, atol=1e-12)

    @given(st.sampled_from([2, 3, 4, 5]), st.sampled_from([2, 3, 4]))
    @settings(max_examples=12, deadline=None)
    def test_order_multiplies(self, n1, n2):
        B = kronecker(dft_matrix(n1), dft_matrix(n2))
        assert B.N == n1 * n2
        assert verify_bh(B)

    def test_root_order_up_to_2_62_is_exact(self):
        """A 1 x 1 table is Butson over any r. At r = 2^62 the largest
        sum of rescaled exponents, (2^62 - 1) + 2^61, still fits int64;
        root orders above it are refused before any product."""
        top = 2 ** 62
        B = kronecker(PhaseMatrix(1, top, [[top - 1]]), dft_matrix(2))
        assert B.r == top
        assert B.exps.tolist() == [[top - 1, top - 1], [top - 1, 2 ** 61 - 1]]
        for r, other in ((5534023222112865276, 6), (4611686018427387847, 3)):
            with pytest.raises(ParamsOutOfRangeError, match="root order"):
                kronecker(PhaseMatrix(1, r, [[r - 1]]), dft_matrix(other))


class TestVerify:
    def test_trivial_order(self):
        assert verify_bh(PhaseMatrix(1, 1, [[0]]))

    def test_prime_root_needs_divisible_order(self):
        # rows over Z_3 can't be orthogonal when 3 does not divide N
        assert not verify_bh(PhaseMatrix(4, 3, np.zeros((4, 4), dtype=int)))

    def test_huge_prime_root_refused_before_counting(self, monkeypatch):
        """At r = 2^31 - 1 the norm floor underflows to 0.0, so the counting
        path would run and ask bincount for (N - 1) r = 2^31 int64 bins
        (16 GiB): the N % r guard refuses the table first."""
        r = 2 ** 31 - 1
        assert _norm_floor(2, r) == 0.0

        def unreached(*args):
            raise AssertionError("counted the differences")
        monkeypatch.setattr(hadamard, "_uniform_differences", unreached)
        assert not verify_bh(PhaseMatrix(2, r, [[0, 0], [0, 1]]))

    def test_composite_root_numeric_path(self):
        assert verify_bh(dft_matrix(6))
        exps = dft_matrix(6).exps.copy()
        exps[5, 5] = (exps[5, 5] + 3) % 6
        assert not verify_bh(PhaseMatrix(6, 6, exps))

    @given(st.sampled_from(sorted(KNOWN)), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_literal_oracle(self, r, data):
        """Monomial copies of known tables pass, the same copies with one
        entry changed fail, and verify_bh agrees with the oracle on both."""
        base = data.draw(st.sampled_from(KNOWN[r]))()
        B = monomial(base, np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))))
        assert verify_bh(B) and literal_butson(B.exps, r)
        i = data.draw(st.integers(0, B.N - 1))
        j = data.draw(st.integers(0, B.N - 1))
        bad = tampered(B, i, j, data.draw(st.integers(1, r - 1)))
        assert not verify_bh(bad) and not literal_butson(bad.exps, r)

    @given(st.sampled_from(sorted(KNOWN)), st.integers(1, 12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_literal_oracle_on_drawn_tables(self, r, N, data):
        """Small drawn tables, mostly not Butson, including orders r does
        not divide; the counting path gives the same verdict for prime r."""
        E = data.draw(st.lists(st.lists(st.integers(0, r - 1), min_size=N, max_size=N),
                               min_size=N, max_size=N))
        B = PhaseMatrix(N, r, E)
        want = literal_butson(E, r)
        assert verify_bh(B) == want
        if len(CYCLOTOMIC[r]) == r and N % r == 0:
            assert _uniform_differences(B.exps, r) == want

    def test_root_order_far_above_the_entry_count(self):
        # [[1, 1], [1, -1]] written over r = 10^12: no table of r roots is built
        r = 10 ** 12
        assert verify_bh(PhaseMatrix(2, r, [[0, 0], [0, r // 2]]))
        assert not verify_bh(PhaseMatrix(2, r, [[0, 0], [0, r // 4]]))

    def test_gram_path_covers_small_primes_up_to_the_cap(self):
        for r in (2, 3, 5):
            assert _gram_error_bound(ORDER_CAP) < _norm_floor(ORDER_CAP, r) / 4

    @pytest.mark.parametrize("r, top", [(2, 12), (3, 12), (5, 12), (7, 8)])
    def test_norm_floor_is_below_every_nonzero_sum_of_roots(self, r, top):
        """The least nonzero |x| over every multiset of N r-th roots is at
        least _norm_floor(N, r); at r = 5 and 7 it lies below N^(-(r - 3) / 4)
        for several N, so a floor with half the exponent fails here."""
        roots = np.exp(2j * np.pi * np.arange(r) / r)
        for N in range(1, top + 1):
            exps = np.array(list(itertools.combinations_with_replacement(range(r), N)))
            counts = np.stack([(exps == d).sum(axis=1) for d in range(r)], axis=1)
            # for prime r the sum vanishes iff every root is taken equally often
            nonzero = counts.min(axis=1) < counts.max(axis=1)
            least = np.abs(roots[exps[nonzero]].sum(axis=1)).min()
            # r = 2 and 3 meet the floor, up to the roots' rounding
            assert least >= _norm_floor(N, r) * (1 - 1e-9), (r, N, least)

    def test_counting_path(self):
        B = dft_matrix(211)
        assert _gram_error_bound(B.N) >= _norm_floor(B.N, B.r) / 4  # Gram not exact here
        assert verify_bh(B)
        assert verify_bh(monomial(B, np.random.default_rng(5)))
        assert not verify_bh(tampered(B, 17, 100, 1))
        assert not verify_bh(tampered(B, 0, 0, 210))


class TestPhaseMatrix:
    def test_invariants(self):
        with pytest.raises(InvariantError):
            PhaseMatrix(2, 2, [[0, 0]])  # not square
        with pytest.raises(InvariantError):
            PhaseMatrix(2, 2, [[0, 2], [0, 1]])  # exponent out of range
        with pytest.raises(InvariantError):
            PhaseMatrix(0, 2, [])  # empty order

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 6, 7, 160, 211, 304, 5000])
    def test_to_complex_bits(self, r):
        N = 60 if r <= 3600 else 40  # r > N^2 computes entries directly
        E = np.random.default_rng(r).integers(0, r, (N, N))
        got = PhaseMatrix(N, r, E).to_complex()
        assert got.tobytes() == np.exp(2j * np.pi * E / r).tobytes()

    def test_to_complex_unit_modulus(self):
        H = dft_matrix(5).to_complex()
        assert np.allclose(np.abs(H), 1.0)

    def test_json_round_trip(self):
        B = walsh_hadamard(2)
        again = PhaseMatrix.from_json(json.loads(json.dumps(B.to_json())))
        assert again == B


class TestOrderCap:
    def test_builders_refuse_orders_over_the_cap(self):
        with pytest.raises(ParamsOutOfRangeError):
            dft_matrix(ORDER_CAP + 1)
        with pytest.raises(ParamsOutOfRangeError):
            walsh_hadamard(ORDER_CAP.bit_length())
        with pytest.raises(ParamsOutOfRangeError):
            walsh_hadamard(10 ** 12)  # refused without computing 2^m
        with pytest.raises(ParamsOutOfRangeError):
            kronecker(dft_matrix(91), dft_matrix(91))

    def test_verify_holds_the_gram_matrix_a_block_at_a_time(self):
        # H is 64 MiB at N = 2048; one float Gram product of the whole
        # matrix would add H*, G and |G|, 160 MiB more
        B = walsh_hadamard(11)
        tracemalloc.start()
        try:
            assert verify_bh(B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2048 * 2048 * 16

    @pytest.mark.parametrize("N, r", [(4, 2), (12, 6), (16, 16)])
    def test_gram_deviation_blocks_match_one_product(self, N, r, monkeypatch):
        # a random table, far from Butson: any block height gives the
        # deviation of one whole Gram product
        exps = np.random.default_rng(N).integers(0, r, size=(N, N))
        B = PhaseMatrix(N, r, exps)
        H = B.to_complex()
        whole = np.max(np.abs(H @ H.conj().T - N * np.eye(N)))
        for rows in (1, 3, N):
            monkeypatch.setattr(hadamard, "_GRAM_BLOCK", rows * N)
            assert hadamard._gram_deviation(B) == pytest.approx(whole, abs=1e-12)


class TestSeeds:
    @pytest.mark.parametrize("name", ["bh6_3.json", "bh21_3.json"])
    def test_shipped_seed_verifies(self, name):
        B = load_seed(f"{SEED_DIR}/{name}")
        assert B.r == 3
        assert verify_bh(B)
        assert "sha256" in B.provenance.get("source", {})

    def test_seed_digest_matches_file(self):
        path = f"{SEED_DIR}/bh6_3.json"
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        B = load_seed(path)
        assert B.provenance["source"]["sha256"] == digest

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_seed(str(tmp_path / "nope.json"))

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_seed(str(p))

    def test_out_of_range_exponent(self, tmp_path):
        p = tmp_path / "range.json"
        p.write_text(json.dumps({"N": 2, "r": 2, "exps": [[0, 5], [0, 1]]}))
        with pytest.raises(ParseError):
            load_seed(str(p))

    def test_non_orthogonal_rejected(self, tmp_path):
        p = tmp_path / "flat.json"
        p.write_text(json.dumps({"N": 2, "r": 2, "exps": [[0, 0], [0, 0]]}))
        with pytest.raises(UnitarityError):
            load_seed(str(p))

    def test_order_63_composite(self):
        B = kronecker(dft_matrix(3), load_seed(f"{SEED_DIR}/bh21_3.json"))
        assert (B.N, B.r) == (63, 3)
        assert verify_bh(B)
