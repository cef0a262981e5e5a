import pytest

from drcs_forge.errors import MismatchError, ParamsOutOfRangeError
from drcs_forge.oracles import (
    CATALOG_RECTANGLE_FAMILIES,
    CATALOGS,
    check_table_row,
    definition_literal_c2,
    naive_af,
    naive_correlation,
    recompute_table_row,
)
from drcs_forge.rectangles import family_dimensions


class TestNaiveEvaluators:
    def test_shift_at_length_vanishes(self):
        a = [0, 1, 2, 0]
        assert naive_af(a, a, 3, 4, 0) == 0

    def test_zero_doppler_reduces_to_correlation(self):
        a, b = [0, 2, 1], [1, 1, 0]
        for tau in range(-3, 4):
            assert naive_af(a, b, 3, tau, 0) == pytest.approx(
                naive_correlation(a, b, 3, tau)
            )


class TestLiteralC2:
    def test_fixtures_pass(self, rect_a8, rect_b9):
        assert definition_literal_c2(rect_a8.rows.tolist(), 8)
        assert definition_literal_c2(rect_b9.rows.tolist(), 9)

    def test_identical_rows_fail(self):
        assert not definition_literal_c2([[0, 1, 2], [0, 1, 2]], 3)

    def test_circular_stricter(self):
        rows = [[0, 1], [1, 0]]
        assert definition_literal_c2(rows, 2, circular=False)
        assert not definition_literal_c2(rows, 2, circular=True)


class TestTableReplay:
    def test_first_row_is_three_halves(self):
        _, rho = recompute_table_row("small_alphabet", 0)
        assert rho == pytest.approx(1.5, abs=1e-12)

    def test_prime_product_row4(self):
        _, rho = recompute_table_row("prime_product", 4)
        assert rho == pytest.approx(1.1726, abs=5e-5)

    def test_prime_power_product_row9(self):
        _, rho = recompute_table_row("prime_power_product", 9)
        assert rho == pytest.approx(1.0662, abs=5e-5)

    def test_prior_columns(self):
        _, rho_prev = recompute_table_row("prime_product", 1, prior=True)
        assert rho_prev == pytest.approx(1.5514, abs=5e-5)

    def test_all_rows_replay(self):
        for name, catalog in CATALOGS.items():
            for idx in range(len(catalog)):
                rho, rho_prev = check_table_row(name, idx)
                assert rho > 1.0 and rho_prev > rho

    def test_tight_tolerance_trips(self):
        with pytest.raises(MismatchError):
            check_table_row("small_alphabet", 0, tol=1e-12)

    def test_bad_lookups(self):
        # row -1 would replay the last row, as a list index does
        for replay in (recompute_table_row, check_table_row):
            for catalog, row in [("no_such_catalog", 0), ("small_alphabet", 99),
                                 ("small_alphabet", -1)]:
                with pytest.raises(ParamsOutOfRangeError):
                    replay(catalog, row)


class TestRectangleFamilyRows:
    def test_decompositions_reproduce_printed_sizes(self):
        for row in CATALOG_RECTANGLE_FAMILIES:
            K, N, L = family_dimensions(row["family"], **row["params"])
            assert (K, N, L) == (row["rows"], row["N"], row["L"])

    def test_new_rows_beat_prior_classes(self):
        for row in CATALOG_RECTANGLE_FAMILIES:
            assert row["rows"] > max(row["prior"].values())
