import math

import pytest

from drcs_forge.ambiguity import theta_max
from drcs_forge.bounds import (
    BoundReport,
    af_lower_bound,
    asymptotic_check,
    optimality_factor,
)
from drcs_forge.drcs import Zone
from drcs_forge.errors import InfeasibleError, ParamsOutOfRangeError
from drcs_forge.oracles import CATALOG_PRIME_POWER_PRODUCT


class TestLowerBound:
    def test_worked_value_exact(self):
        res = af_lower_bound(6, 63, 56, 56, Z_x=56)
        assert res["bound"] == 42.0
        assert res["feasible"] and res["k_feasible"] and res["zx_feasible"]

    def test_second_worked_value(self):
        res = af_lower_bound(9, 99, 88, 88)
        assert res["bound"] == pytest.approx(71.80, abs=0.005)

    def test_boundary_k_equals_3m(self):
        # K * Z_y == 3M exactly: not strictly covered, bound still real
        res = af_lower_bound(3, 4, 5, 4)
        assert not res["k_feasible"]
        assert res["bound"] is not None and not res["feasible"]

    def test_negative_radicand(self):
        res = af_lower_bound(1, 4, 4, 1)
        assert res["bound"] is None and res["radicand"] < 0
        assert not res["feasible"]

    def test_zx_flag(self):
        res = af_lower_bound(6, 63, 56, 56, Z_x=3)
        assert res["zx_feasible"] is False and not res["feasible"]
        assert af_lower_bound(6, 63, 56, 56)["zx_feasible"] is None

    def test_monotone_in_k_and_zy(self):
        base = af_lower_bound(6, 63, 56, 56)["bound"]
        assert af_lower_bound(12, 63, 56, 56)["bound"] > base
        assert af_lower_bound(6, 63, 56, 28)["bound"] < base

    def test_params_must_be_positive(self):
        with pytest.raises(ParamsOutOfRangeError):
            af_lower_bound(0, 63, 56, 56)


class TestOptimalityFactor:
    def test_set63(self, set63):
        rep = optimality_factor(set63, theta_max(set63, method="fft"))
        assert rep.bound == pytest.approx(42.0, abs=1e-9)
        assert rep.rho == pytest.approx(1.5, abs=1e-9)
        obj = rep.to_json()
        assert obj["rho_4dp"] == 1.5
        assert obj["set_params"]["flocks"] == 6
        assert obj["bound_params"]["N_len"] == 56

    def test_infeasible_tiny_zone(self, set63):
        with pytest.raises(InfeasibleError):
            optimality_factor(set63, theta_max(set63, zone=Zone(1, 1)))

    def test_report_round_trip_fields(self):
        rep = BoundReport(6, 63, 56, 56, 56, 63.0, 42.0)
        assert rep.rho == 1.5
        assert rep.to_json()["set_params"] is None


class TestAsymptotic:
    def test_catalog_ladder(self):
        rungs = [
            {"K": row["K"], "N": row["N"], "L": row["L"]}
            for row in CATALOG_PRIME_POWER_PRODUCT
        ]
        out = asymptotic_check("custom", rungs)
        assert out["conditions"]["asymptotic"]
        assert all(row["covered"] for row in out["rungs"])

    def test_family_params_ladder(self):
        rungs = [
            {"N1": 11, "p": 3, "n": 2, "c": 1},
            {"N1": 23, "p": 5, "n": 2, "c": 1},
            {"N1": 59, "p": 7, "n": 2, "c": 1},
        ]
        out = asymptotic_check("florentine_x_primepower", rungs)
        conds = out["conditions"]
        assert conds["covered_everywhere"] and conds["k_growing"]
        assert conds["length_ratio_improving"]
        assert conds["k_ge_4_plus_c"]

    def test_exact_coverage_boundary_fails(self):
        out = asymptotic_check("custom", [{"K": 3, "N": 10, "L": 10}])
        assert not out["rungs"][0]["covered"]
        assert not out["conditions"]["asymptotic"]

    def test_flat_k_ladder_fails(self):
        rungs = [{"K": 9, "N": n, "L": n - 1} for n in (20, 40, 80)]
        out = asymptotic_check("custom", rungs)
        assert not out["conditions"]["k_growing"]
        assert not out["conditions"]["asymptotic"]

    def test_flat_stretch_with_net_growth_passes(self):
        rungs = [
            {"K": 9, "N": 20, "L": 19},
            {"K": 9, "N": 40, "L": 39},
            {"K": 16, "N": 80, "L": 79},
        ]
        out = asymptotic_check("custom", rungs)
        assert out["conditions"]["k_growing"]

    def test_bad_inputs(self):
        with pytest.raises(ParamsOutOfRangeError):
            asymptotic_check("custom", [])
        with pytest.raises(ParamsOutOfRangeError):
            asymptotic_check("custom", [{"K": 5, "N": 10}])
        with pytest.raises(ParamsOutOfRangeError):
            asymptotic_check("mystery_family", [{"N1": 7}])

    @pytest.mark.parametrize("family", ["florentine_x_primepower", "custom"])
    @pytest.mark.parametrize("rung", [[1, 2], "N1", 7, None, {1: 2}],
                             ids=["list", "str", "int", "none", "int_key"])
    def test_rung_that_is_not_a_mapping_is_refused(self, family, rung):
        with pytest.raises(ParamsOutOfRangeError):
            asymptotic_check(family, [rung])

    @pytest.mark.parametrize("field", ["K", "N", "L"])
    @pytest.mark.parametrize("value", ["a", True, 2.5], ids=["str", "bool", "float"])
    def test_custom_rung_needs_integer_k_n_l(self, field, value):
        rung = {"K": 6, "N": 63, "L": 56}
        rung[field] = value
        with pytest.raises(ParamsOutOfRangeError):
            asymptotic_check("custom", [rung])

    def test_rho_column_matches_direct_formula(self):
        out = asymptotic_check("custom", [{"K": 6, "N": 63, "L": 56}])
        row = out["rungs"][0]
        want = 63 / math.sqrt(63 * 56 * (1 - 2 * math.sqrt(63 / (3 * 6 * 56))))
        assert row["rho"] == pytest.approx(want, rel=1e-12)
        assert row["rho"] == pytest.approx(1.5, abs=1e-12)
