import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drcs_forge.bounds import asymptotic_check
from drcs_forge.errors import (
    C1ViolatedError,
    DrcsForgeError,
    ParamsOutOfRangeError,
    ParseError,
    PreconditionError,
    SchemaError,
    TooManyColumnsRemovedError,
)
from drcs_forge.oracles import CATALOG_RECTANGLE_FAMILIES, definition_literal_c2
from drcs_forge.rectangles import (
    TABLE_CAP,
    Rectangle,
    build_circular_florentine,
    build_circular_quasi_florentine,
    build_extended_quasi_florentine,
    c2_witness,
    family_dimensions,
    load_fixture,
    product_construct,
    product_family,
    search_max_rows,
    smallest_prime_factor,
    truncate_columns,
    verify_c1,
    verify_c2,
)


@st.composite
def c1_matrices(draw, N=6, max_rows=5):
    """Random matrices over Z_N whose rows each carry distinct symbols."""
    ncols = draw(st.integers(1, N))
    nrows = draw(st.integers(1, max_rows))
    rows = [
        draw(st.permutations(range(N)))[:ncols]
        for _ in range(nrows)
    ]
    return Rectangle(N, rows)


@st.composite
def c1_rectangles_with_repeats(draw, max_N=12, max_rows=8):
    """C1 rectangles over Z_N, N <= 12, where a row may copy an earlier
    row or a rotation of it, so that C2 failures are common."""
    N = draw(st.integers(1, max_N))
    ncols = draw(st.integers(1, N))
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        kind = draw(st.sampled_from(("fresh", "copy", "rotate")) if rows else st.just("fresh"))
        if kind == "fresh":
            rows.append(draw(st.permutations(range(N)))[:ncols])
        else:
            base = rows[draw(st.integers(0, len(rows) - 1))]
            k = draw(st.integers(0, ncols - 1)) if kind == "rotate" else 0
            rows.append(base[k:] + base[:k])
    return Rectangle(N, rows)


@st.composite
def matrices_with_repeats(draw, N=6, max_rows=5):
    """Random matrices over Z_N where any row may repeat a symbol: each
    row is either distinct symbols or free draws."""
    ncols = draw(st.integers(1, N))
    rows = [
        draw(st.permutations(range(N)))[:ncols] if draw(st.booleans())
        else draw(st.lists(st.integers(0, N - 1), min_size=ncols, max_size=ncols))
        for _ in range(draw(st.integers(1, max_rows)))
    ]
    return Rectangle(N, rows)


def literal_c2_witness(rows, N, circular):
    """The C2 witness by definition: smallest step, then the smallest
    ordered pair (a, b), then the two lowest rows holding it."""
    n = len(rows[0])
    for m in range(1, n):
        for a in range(N):
            for b in range(N):
                hits = [
                    k for k, row in enumerate(rows)
                    if any(row[j] == a and row[(j + m) % n] == b
                           for j in range(n if circular else n - m))
                ]
                if len(hits) > 1:
                    return {"pair": [a, b], "step": m, "rows": hits[:2]}
    return None


@st.composite
def small_c1_rectangles(draw):
    """Random C1 rectangles with N <= 7, n <= 5 and K <= 5."""
    N = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, min(N, 5)))
    rows = [draw(st.permutations(range(N)))[:ncols] for _ in range(draw(st.integers(1, 5)))]
    return Rectangle(N, rows)


def literal_coincidence_c2(rows, circular):
    """C2 by coincidences: no two distinct rows agree at two columns
    under one shift, taken cyclically when circular."""
    n = len(rows[0])
    for x, y in itertools.permutations(rows, 2):
        for tau in range(n):
            cols = range(n) if circular else range(n - tau)
            if sum(x[j] == y[(j + tau) % n] for j in cols) > 1:
                return False
    return True


def c2_both_ways(R):
    """verify_c2 linear and circular, each checked against the literal
    coincidence form."""
    out = tuple(verify_c2(R, circular) for circular in (False, True))
    assert out == tuple(literal_coincidence_c2(R.rows.tolist(), c) for c in (False, True))
    return out


class TestVerifyC1:
    def test_fixture_passes(self, rect_a8):
        assert verify_c1(rect_a8)

    def test_repeated_symbol_fails(self):
        assert not verify_c1(Rectangle(3, [[0, 0, 1]]))

    def test_single_column_always_passes(self):
        assert verify_c1(Rectangle(4, [[0], [0], [3]]))


class TestVerifyC2:
    def test_fixture_linear(self, rect_a8):
        assert verify_c2(rect_a8, circular=False)

    def test_identical_rows_fail(self):
        R = Rectangle(3, [[0, 1, 2], [0, 1, 2]])
        assert not verify_c2(R, circular=False)
        wit = c2_witness(R, circular=False)
        assert wit["step"] >= 1 and len(wit["rows"]) == 2

    def test_florentine7_circular(self, rect_a7):
        assert verify_c2(rect_a7, circular=True)

    def test_c1_precondition(self):
        R = Rectangle(3, [[0, 0, 1]])
        with pytest.raises(C1ViolatedError):
            verify_c2(R)
        # the literal oracle takes no precondition and still answers
        assert isinstance(definition_literal_c2(R.rows.tolist(), R.N), bool)

    @given(matrices_with_repeats())
    @settings(max_examples=100, deadline=None)
    def test_c1_failure_raised_exactly_when_verify_c1_fails(self, R):
        for circ in (False, True):
            for check in (verify_c2, c2_witness):
                if verify_c1(R):
                    check(R, circular=circ)
                else:
                    with pytest.raises(C1ViolatedError):
                        check(R, circular=circ)

    @given(c1_matrices())
    @settings(max_examples=60, deadline=None)
    def test_circular_implies_linear(self, R):
        if verify_c2(R, circular=True):
            assert verify_c2(R, circular=False)

    @given(c1_rectangles_with_repeats())
    @settings(max_examples=150, deadline=None)
    def test_matches_literal_oracle(self, R):
        for circ in (False, True):
            assert verify_c2(R, circular=circ) == definition_literal_c2(
                R.rows.tolist(), R.N, circular=circ
            )

    @given(c1_rectangles_with_repeats())
    @settings(max_examples=150, deadline=None)
    def test_witness_matches_literal_search(self, R):
        for circ in (False, True):
            assert c2_witness(R, circular=circ) == literal_c2_witness(
                R.rows.tolist(), R.N, circ
            )

    def test_witness_on_a_wide_alphabet(self):
        # symbols near 10**12 would overflow any key that packs (step, a, b)
        a, b = 10**12 - 7, 10**12 - 3
        R = Rectangle(10**12, [[5, a, b], [a, b, 5]])
        assert verify_c2(R, circular=False) is False
        assert c2_witness(R, circular=False) == {"pair": [a, b], "step": 1, "rows": [0, 1]}
        assert c2_witness(R, circular=True) == {"pair": [5, a], "step": 1, "rows": [0, 1]}

    def test_catalog_rectangle(self):
        # 60 x 3843 over Z_3904: O(K * n^2) placement keys would need GBs
        R = product_family("florentine_x_primepower", N1=61, p=2, n=6, c=1)
        assert (R.nrows, R.ncols, R.N) == (60, 3843, 3904)
        assert verify_c2(R)


class TestBuilders:
    def test_florentine7_matches_worked_example(self, rect_a7):
        assert rect_a7.rows[1].tolist() == [0, 2, 4, 6, 1, 3, 5]
        assert rect_a7.nrows == 6 and rect_a7.N == 7

    def test_florentine4_single_row(self):
        R = build_circular_florentine(4)
        assert R.rows.tolist() == [[0, 1, 2, 3]]

    def test_florentine9_two_rows(self):
        R = build_circular_florentine(9)
        assert R.nrows == 2 and R.ncols == 9
        assert verify_c2(R, circular=True)

    def test_qfr_degenerate(self):
        R = build_circular_quasi_florentine(2, 1)
        assert R.nrows == 2 and R.ncols == 1

    def test_qfr_3_1(self):
        R = build_circular_quasi_florentine(3, 1)
        assert (R.nrows, R.ncols) == (3, 2)
        assert verify_c2(R, circular=True)

    def test_qfr_9(self):
        R = build_circular_quasi_florentine(3, 2)
        assert (R.nrows, R.ncols, R.N) == (9, 8, 9)
        assert verify_c2(R, circular=True)
        # each row misses exactly one symbol (quasi property)
        for row in R.rows:
            assert len(set(row.tolist())) == 8

    def test_extended_is_linear_not_circular(self):
        R = build_extended_quasi_florentine(2, 2)
        assert (R.nrows, R.ncols, R.N) == (4, 4, 5)
        assert verify_c2(R, circular=False)
        assert not verify_c2(R, circular=True)

    def test_extended_column_latin(self):
        # the appended-symbol argument needs every base column to hold
        # all p^n values; check it directly
        R = build_circular_quasi_florentine(3, 2)
        for j in range(R.ncols):
            assert len(set(R.rows[:, j].tolist())) == R.nrows


class TestTruncate:
    def test_identity(self, rect_a7):
        assert truncate_columns(rect_a7, 0).rows.tolist() == rect_a7.rows.tolist()

    def test_florentine7_drop_two(self, rect_a7):
        R = truncate_columns(rect_a7, 2, "right")
        assert (R.nrows, R.ncols) == (6, 5)
        assert verify_c2(R, circular=False)

    def test_fixture_drop_one_more(self, rect_a8):
        R = truncate_columns(rect_a8, 1, "right")
        assert verify_c2(R, circular=False)

    def test_left_side(self, rect_a7):
        R = truncate_columns(rect_a7, 3, "left")
        assert R.rows.tolist() == rect_a7.rows[:, 3:].tolist()

    def test_too_many(self, rect_a7):
        with pytest.raises(TooManyColumnsRemovedError):
            truncate_columns(rect_a7, rect_a7.ncols - 1)
        with pytest.raises(TooManyColumnsRemovedError):
            truncate_columns(rect_a7, -1)


class TestProduct:
    def test_first_entry(self, rect_d63):
        # a_{0,0} + 7 * b_{0,0} = 0 + 7
        assert rect_d63.rows[0, 0] == 7

    def test_single_row_product(self):
        A = Rectangle(2, [[0, 1]])
        B = Rectangle(2, [[0, 1]])
        D = product_construct(A, B)
        assert D.N == 4 and D.rows.tolist() == [[0, 1, 2, 3]]

    def test_output_is_linear(self, rect_d63):
        assert verify_c1(rect_d63)
        assert verify_c2(rect_d63, circular=False)

    def test_noncircular_left_rejected(self, rect_a8):
        B = Rectangle(2, [[0, 1]])
        with pytest.raises(PreconditionError):
            product_construct(rect_a8, B)  # fixture is linear-only

    def test_c1_violation_rejected(self):
        bad = Rectangle(3, [[0, 0]])
        with pytest.raises(PreconditionError):
            product_construct(bad, Rectangle(2, [[0, 1]]))

    def test_alphabet_past_int64_refused(self):
        # found by the rectangle-loader fuzz: an OverflowError traceback
        A = Rectangle(2 ** 63, [[0, 1], [1, 2]])
        with pytest.raises(ParamsOutOfRangeError):
            product_construct(A, A)

    def test_round_trip_decode(self, rect_a7, rect_b9, rect_d63):
        for i in range(6):
            for j in range(56):
                d = int(rect_d63.rows[i, j])
                assert d % 7 == rect_a7.rows[i, j % 7]
                assert d // 7 == rect_b9.rows[i, j // 7]


class TestFamilies:
    def test_worked_example_dimensions(self):
        D = product_family("florentine_x_primepower", N1=7, p=3, n=2, c=1)
        assert (D.nrows, D.ncols, D.N) == (6, 56, 63)
        assert verify_c2(D, circular=False)
        assert family_dimensions("florentine_x_primepower", N1=7, p=3, n=2, c=1) == (6, 63, 56)

    def test_plus_one_family(self):
        D = product_family("florentine_x_primepower_plus_one", N1=5, p=2, n=2, c=1)
        assert (D.nrows, D.N, D.ncols) == (4, 25, 20)
        assert verify_c2(D, circular=False)

    def test_dimensions_agree_with_builds(self):
        cases = [
            ("primepower_x_florentine", {"p": 3, "n": 1, "N1": 7, "c": 2}),
            ("primepower_x_primepower", {"p": 2, "n": 2, "p1": 3, "n1": 1, "c": 1}),
            ("primepower_x_primepower_plus_one", {"p": 2, "n": 2, "p1": 2, "n1": 2, "c": 1}),
        ]
        for fam, params in cases:
            K, N, L = family_dimensions(fam, **params)
            D = product_family(fam, **params)
            assert (D.nrows, D.N, D.ncols) == (K, N, L)

    def test_out_of_range(self):
        with pytest.raises(ParamsOutOfRangeError):
            product_family("florentine_x_primepower", N1=7, p=3, n=2, c=8)
        with pytest.raises(ParamsOutOfRangeError):
            product_family("no_such_family", N1=7)
        with pytest.raises(ParamsOutOfRangeError):
            family_dimensions("primepower_x_florentine", p=3, n=1, N1=7, c=6)


# each family's parameters, listed apart from the family table
FAMILY_PARAMS = {
    "florentine_x_primepower": ("N1", "p", "n", "c"),
    "florentine_x_primepower_plus_one": ("N1", "p", "n", "c"),
    "primepower_x_florentine": ("p", "n", "N1", "c"),
    "primepower_x_primepower": ("p", "n", "p1", "n1", "c"),
    "primepower_x_primepower_plus_one": ("p", "n", "p1", "n1", "c"),
}
# mostly valid, and small enough that a product stays under 16k entries
_prime = st.sampled_from([2, 3, 5]) | st.sampled_from([2, 3]) | st.integers(-1, 6)
_degree = st.integers(1, 2) | st.integers(1, 2) | st.integers(-1, 3)
SMALL_PARAM = {"N1": st.integers(2, 30) | st.integers(-1, 30), "p": _prime, "p1": _prime,
               "n": _degree, "n1": _degree, "c": st.integers(0, 6) | st.integers(-2, 30)}


@st.composite
def family_params(draw):
    family = draw(st.sampled_from(sorted(FAMILY_PARAMS)))
    return family, {k: draw(SMALL_PARAM[k]) for k in FAMILY_PARAMS[family]}


class TestFamilyTable:
    @given(family_params())
    @settings(max_examples=300, deadline=None)
    def test_build_matches_closed_form(self, drawn):
        family, params = drawn
        try:
            dims = family_dimensions(family, **params)
        except DrcsForgeError as exc:
            with pytest.raises(DrcsForgeError) as info:
                product_family(family, **params)
            assert type(info.value) is type(exc)
            return
        D = product_family(family, **params)
        assert (D.nrows, D.N, D.ncols) == dims
        assert verify_c2(D, circular=False)

    def test_catalog_rows_build_to_printed_sizes(self):
        for row in CATALOG_RECTANGLE_FAMILIES:
            if row["N"] > 3904:
                continue
            D = product_family(row["family"], **row["params"])
            assert (D.nrows, D.N, D.ncols) == (row["rows"], row["N"], row["L"])
            assert D.provenance["params"] == row["params"]
            assert verify_c2(D, circular=False)

    @pytest.mark.parametrize("params", [
        {"N1": 7, "p": 3, "n": 2},
        {"N1": 7, "p": 3, "n": 2, "c": 1, "k": 0},
        {"N1": 7.5, "p": 3, "n": 2, "c": 1},
        {"N1": 7, "p": 3, "n": 2, "c": True},
    ], ids=["missing", "extra", "float", "bool"])
    def test_malformed_params_refused(self, params):
        for fn in (product_family, family_dimensions):
            with pytest.raises(ParamsOutOfRangeError):
                fn("florentine_x_primepower", **params)
        with pytest.raises(ParamsOutOfRangeError):
            asymptotic_check("florentine_x_primepower", [params])

    def test_zero_degree_refused_by_both(self):
        for fn in (product_family, family_dimensions):
            with pytest.raises(ParamsOutOfRangeError):
                fn("primepower_x_florentine", N1=7, p=3, n=0, c=1)

    def test_provenance_holds_ints(self):
        D = product_family("primepower_x_florentine", p=np.int64(3), n=1, N1=7, c=0)
        assert D.provenance["params"] == {"p": 3, "n": 1, "N1": 7, "c": 0}
        assert type(D.provenance["params"]["p"]) is int


class TestTableCap:
    def test_admits_the_largest_catalog_rectangle(self):
        # the N = 15246 row of the prime-power product table
        D = product_family("primepower_x_primepower_plus_one", p=11, n=2, p1=5, n1=3, c=1)
        assert (D.nrows, D.ncols, D.N) == (121, 15000, 15246)
        assert 2048 * 2048 <= TABLE_CAP

    @pytest.mark.parametrize("build, args", [
        (build_circular_florentine, (2053,)),
        (build_circular_florentine, (TABLE_CAP + 1,)),
        (build_circular_florentine, (2 ** 61 - 1,)),
        (build_circular_quasi_florentine, (2, 12)),
        (build_circular_quasi_florentine, (2053, 1)),
        (build_extended_quasi_florentine, (2, 12)),
    ], ids=["florentine_2053", "florentine_past_cap", "florentine_huge",
            "qfr_4096", "qfr_2053", "extended_4096"])
    def test_builders_refuse_over_cap(self, build, args):
        with pytest.raises(ParamsOutOfRangeError):
            build(*args)

    def test_product_refused_before_allocating(self):
        row = Rectangle(10 ** 5, [np.arange(10 ** 5)])
        tracemalloc.start()
        try:
            with pytest.raises(ParamsOutOfRangeError):
                product_construct(row, row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_family_refused_before_building(self):
        # 1024 x 1023 factors, 1024 x 1023^2 product
        t0 = time.perf_counter()
        with pytest.raises(ParamsOutOfRangeError):
            product_family("primepower_x_primepower", p=2, n=10, p1=2, n1=10, c=1)
        assert time.perf_counter() - t0 < 0.5
        assert family_dimensions("primepower_x_primepower", p=2, n=10, p1=2, n1=10,
                                 c=1) == (1024, 2 ** 20, 1023 * 1023)


    def test_position_table_refused_before_allocating(self):
        # rows k, ..., k + 3 mod 4099 for k < 4096: C1 holds, and the
        # position table would hold 4096 x 4099 entries
        R = Rectangle(4099, (np.arange(4096)[:, None] + np.arange(4)) % 4099)
        for check in (verify_c2, c2_witness):
            with pytest.raises(ParamsOutOfRangeError):
                check(R)
        # an extended field rectangle at q = 2048 and the largest
        # catalog row (128 x 21632) stay under the position-table cap
        assert max(2048 * 2049, 128 * 21632) <= 2 * TABLE_CAP


class TestCoincidence:
    """verify_c2 against C2 in coincidence form: two distinct rows agree
    at no more than one column under any one shift."""

    @given(small_c1_rectangles(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_literal_coincidences(self, R, circular):
        assert verify_c2(R, circular) == literal_coincidence_c2(R.rows.tolist(), circular)

    def test_shifted_rows(self):
        # row 1 is row 0 moved one column right: they agree at two
        # columns under shift 1
        assert c2_both_ways(Rectangle(3, [[0, 1, 2], [2, 0, 1]])) == (False, False)

    def test_exactly_one_match(self):
        # under shift 2 the rows agree at one column, but under shift
        # -1 (row 1 read one column left) at two
        assert c2_both_ways(Rectangle(3, [[0, 1, 2], [1, 2, 0]])) == (False, False)

    def test_disjoint_rows(self):
        assert c2_both_ways(Rectangle(6, [[0, 1, 2], [3, 4, 5]])) == (True, True)

    def test_fixture_all_pairs(self, rect_a8):
        # the fixture is linear-only
        assert c2_both_ways(rect_a8) == (True, False)


class TestSearch:
    def test_circular_5x5_max_is_4(self):
        R, cert = search_max_rows(5, 5, circular=True)
        assert cert["max_rows"] == 4 and cert["exhaustive"]
        assert verify_c2(R, circular=True)

    def test_linear_3x2(self):
        R, cert = search_max_rows(3, 2, circular=False)
        assert cert["max_rows"] >= 3

    def test_2x2(self):
        # circularly the two permutations collide at step 1; linearly
        # they occupy different (pair, step) slots
        _, cert_c = search_max_rows(2, 2, circular=True)
        assert cert_c["max_rows"] == 1
        _, cert_l = search_max_rows(2, 2, circular=False)
        assert cert_l["max_rows"] == 2

    def test_row_cap_sets_flag(self):
        _, cert = search_max_rows(5, 3, row_cap=2)
        assert not cert["exhaustive"]
        assert cert["max_rows"] <= 2

    def test_cap_on_modulus(self):
        with pytest.raises(ParamsOutOfRangeError):
            search_max_rows(11, 3)

    @pytest.mark.parametrize("N, n", [(9, 9), (10, 10), (9, 6)])
    def test_refuses_over_8_factorial_rows_before_listing_them(self, N, n):
        # 9 x 9 would list 362880 candidate rows (about 40 MB) first
        t0 = time.perf_counter()
        with pytest.raises(ParamsOutOfRangeError):
            search_max_rows(N, n)
        assert time.perf_counter() - t0 < 0.1

    def test_admits_8_factorial_rows(self):
        _, cert = search_max_rows(8, 8, circular=True, row_cap=1)
        assert cert["max_rows"] == 1

    def test_known_maximum_at_primes(self):
        # at prime N with full-width rows the construction is optimal
        for N in (3, 5, 7):
            t0 = time.perf_counter()
            _, cert = search_max_rows(N, N, circular=True)
            assert time.perf_counter() - t0 < 10
            assert cert["max_rows"] == N - 1 and cert["exhaustive"]
        assert cert["nodes"] == 32866

    @pytest.mark.parametrize("N, n", [(N, n) for N in range(1, 6) for n in range(1, N + 1)])
    def test_matches_reference_dfs(self, N, n):
        for circular in (False, True):
            for row_cap in (None, 1, 2, 3):
                R, cert = search_max_rows(N, n, circular=circular, row_cap=row_cap)
                rows, want = reference_search(N, n, circular, row_cap)
                assert R.rows.tolist() == rows and cert == want


def reference_search(N, n, circular, row_cap):
    """Reference for search_max_rows: the same DFS on one set of
    (step, a, b) key tuples, rebuilt per candidate and undone on backtrack."""
    cands = list(itertools.permutations(range(N), n))

    def keys_of(row):
        out = []
        for m in range(1, n):
            span = n if circular else n - m
            for j in range(span):
                out.append((m, row[j], row[(j + m) % n]))
        return out

    used = set()
    chosen = [0]
    used.update(keys_of(cands[0]))
    best = list(chosen)
    state = {"nodes": 1, "truncated": False}

    def dfs(start):
        nonlocal best
        if row_cap is not None and len(chosen) >= row_cap:
            state["truncated"] = True
            return
        for idx in range(start, len(cands)):
            ks = keys_of(cands[idx])
            if any(k in used for k in ks):
                continue
            used.update(ks)
            chosen.append(idx)
            state["nodes"] += 1
            if len(chosen) > len(best):
                best = list(chosen)
            dfs(idx + 1)
            chosen.pop()
            used.difference_update(ks)

    dfs(1)
    rows = [list(cands[i]) for i in best]
    certificate = {
        "max_rows": len(best),
        "exhaustive": not state["truncated"],
        "nodes": state["nodes"],
        "row_cap": row_cap,
    }
    return rows, certificate


class TestSerialization:
    def test_json_round_trip(self, rect_a8):
        R = Rectangle.from_json(rect_a8.to_json())
        assert R == rect_a8 and R.provenance == rect_a8.provenance

    def test_schema_checks(self):
        with pytest.raises(SchemaError):
            Rectangle.from_json({"N": 3, "rows": [[0, 1]]})
        with pytest.raises(SchemaError):
            Rectangle.from_json({"N": 3, "n": 3, "rows": [[0, 1]]})

    def test_missing_fixture_is_a_parse_error(self):
        with pytest.raises(ParseError):
            load_fixture("no_such_fixture")

    def test_rows_immutable(self, rect_a7):
        with pytest.raises(ValueError):
            rect_a7.rows[0, 0] = 5


def test_smallest_prime_factor():
    assert smallest_prime_factor(63) == 3
    assert smallest_prime_factor(37) == 37
    with pytest.raises(ParamsOutOfRangeError):
        smallest_prime_factor(1)
