"""Peak-ambiguity lower bound, optimality factor, asymptotic conditions.

For a (K, M, N_len, theta, Pi)-set with zone half-heights Z_x, Z_y, the
aperiodic bound reads

    theta_max >= sqrt(M * N_len * (1 - 2 * sqrt(M / (3 * K * Z_y)))),

valid when K > 3M/Z_y and N_len * sqrt(3M/(K*Z_y)) <= Z_x <= N_len. The
optimality factor rho is the achieved peak divided by this bound; a
family is asymptotically optimal when K > 3N/L holds along the family
while L/N -> 1 and 1/K -> 0.

The sets this package constructs instantiate the bound with
M := flock size (= the Butson order) and N_len := sequence length L;
reports keep both namings side by side so nothing gets transposed.
"""

import math
from collections.abc import Mapping

from .errors import InfeasibleError, ParamsOutOfRangeError, json_int


def af_lower_bound(K, M, N_len, Z_y, Z_x=None):
    """Evaluate the bound; returns a dict of value plus feasibility flags.

    The bound value is None when the radicand goes negative (too few
    flocks for the zone height); flags are reported rather than raised
    so sweeps can chart the infeasible region.
    """
    if min(K, M, N_len, Z_y) < 1:
        raise ParamsOutOfRangeError("K, M, N_len, Z_y must all be >= 1")
    radicand = M * N_len * (1.0 - 2.0 * math.sqrt(M / (3.0 * K * Z_y)))
    k_feasible = K * Z_y > 3 * M
    zx_feasible = None
    if Z_x is not None:
        zx_feasible = N_len * math.sqrt(3.0 * M / (K * Z_y)) <= Z_x <= N_len
    value = math.sqrt(radicand) if radicand >= 0 else None
    return {
        "bound": value,
        "radicand": radicand,
        "k_feasible": k_feasible,
        "zx_feasible": zx_feasible,
        "feasible": bool(value is not None and k_feasible and zx_feasible is not False),
    }


class BoundReport:
    """Bound evaluation bundled with the parameters it used and the peak
    it was compared against."""

    def __init__(self, K, M, N_len, Z_x, Z_y, theta, bound, set_params=None):
        self.K = K
        self.M = M
        self.N_len = N_len
        self.Z_x = Z_x
        self.Z_y = Z_y
        self.theta = theta
        self.bound = bound
        self.rho = theta / bound
        self.set_params = dict(set_params) if set_params else None

    def to_json(self):
        return {
            "bound_params": {
                "K": self.K, "M": self.M, "N_len": self.N_len,
                "Z_x": self.Z_x, "Z_y": self.Z_y,
            },
            "set_params": self.set_params,
            "theta_max": self.theta,
            "bound": self.bound,
            "rho": self.rho,
            "rho_4dp": round(self.rho, 4),
        }


def optimality_factor(S, theta):
    """BoundReport for a DRCS set against its evaluated ThetaReport.

    Raises InfeasibleError when the bound's preconditions fail for the
    set's parameters (the factor would compare against nothing).
    """
    peak = theta.theta_max
    if peak is None:
        raise InfeasibleError("theta report carries no peak (empty scan)")
    K, M, N_len = S.K, S.M, S.L
    Z_x, Z_y = theta.zone.Z_x, theta.zone.Z_y
    res = af_lower_bound(K, M, N_len, Z_y, Z_x)
    if not res["feasible"]:
        raise InfeasibleError(
            "bound infeasible at K=%d, M=%d, N_len=%d, zone (%d, %d)"
            % (K, M, N_len, Z_x, Z_y)
        )
    return BoundReport(
        K, M, N_len, Z_x, Z_y, peak, res["bound"],
        {"flocks": S.K, "flock_size": S.M, "length": S.L, "r": S.r},
    )


def _constructed_rho(K, N, L):
    """rho for a constructed set: theta = N, M = N, N_len = Z_y = L."""
    res = af_lower_bound(K, N, L, L)
    if res["bound"] is None or not res["k_feasible"]:
        return None
    return N / res["bound"]


def asymptotic_check(family, rungs):
    """Evaluate the asymptotic-optimality conditions along a parameter
    ladder.

    family is one of the product-family names, with each rung a params
    dict for family_dimensions, or "custom" with each rung carrying
    explicit K, N, L. The report lists per-rung (K, N, L, rho, coverage)
    where coverage is the exact integer test K*L > 3N, plus ladder-level
    flags: coverage everywhere, K nondecreasing and growing (1/K -> 0),
    |1 - L/N| decreasing (L/N -> 1), rho strictly decreasing, and
    K >= 4 + c whenever the rungs carry a common truncation depth c.
    """
    from .rectangles import family_dimensions
    if not rungs:
        raise ParamsOutOfRangeError("need at least one rung")
    rows = []
    for rung in rungs:
        if not isinstance(rung, Mapping) or not all(isinstance(k, str) for k in rung):
            raise ParamsOutOfRangeError("each rung must be a mapping of parameter names, "
                                        "got %r" % (rung,))
        if family == "custom":
            if not {"K", "N", "L"} <= rung.keys():
                raise ParamsOutOfRangeError("custom rungs need K, N, L")
            K, N, L = (json_int(rung[k], k, ParamsOutOfRangeError) for k in "KNL")
        else:
            K, N, L = family_dimensions(family, **rung)
        rows.append({
            "params": dict(rung),
            "K": K, "N": N, "L": L,
            "rho": _constructed_rho(K, N, L),
            "covered": K * L > 3 * N,
        })
    Ks = [row["K"] for row in rows]
    gaps = [abs(1.0 - row["L"] / row["N"]) for row in rows]
    rhos = [row["rho"] for row in rows]
    cs = [rung.get("c") for rung in rungs] if family != "custom" else [None]
    conditions = {
        "covered_everywhere": all(row["covered"] for row in rows),
        # nondecreasing with net growth; ladders may hold K flat for a
        # few rungs while the length ratio improves
        "k_growing": (
            len(Ks) > 1
            and all(a <= b for a, b in zip(Ks, Ks[1:]))
            and Ks[-1] > Ks[0]
        ),
        "length_ratio_improving": len(gaps) > 1 and all(a > b for a, b in zip(gaps, gaps[1:])),
        "rho_decreasing": (
            all(r is not None for r in rhos)
            and len(rhos) > 1
            and all(a > b for a, b in zip(rhos, rhos[1:]))
        ),
    }
    if all(c is not None for c in cs):
        conditions["k_ge_4_plus_c"] = all(
            row["K"] >= 4 + c for row, c in zip(rows, cs)
        )
    conditions["asymptotic"] = all(conditions.values())
    return {"family": family, "rungs": rows, "conditions": conditions}
