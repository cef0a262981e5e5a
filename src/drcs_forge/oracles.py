"""Definition-literal reference implementations.

Everything here is deliberately slow and table-free: plain loops,
cmath, no FFT, no hashing. The fast paths in ambiguity and rectangles
are tested against these, and the CLI --paranoid mode reruns them at
evaluation time. Keep this module boring.
"""

import cmath
import math

from .errors import LengthMismatchError, MismatchError, ParamsOutOfRangeError


def naive_af(a, b, r, tau, nu):
    """Aperiodic ambiguity sum, transcribed from the piecewise definition.

    a and b are integer exponent sequences of a common length L over
    r-th roots of unity; the Doppler root is the L-th root. Returns the
    complex value at integer shift tau and Doppler nu.
    """
    if len(a) != len(b):
        raise LengthMismatchError("sequences differ in length: %d vs %d" % (len(a), len(b)))
    L = len(a)
    if abs(tau) >= L:
        return 0j
    wr = 2j * cmath.pi / r
    wL = 2j * cmath.pi / L
    total = 0j
    if tau >= 0:
        for t in range(0, L - tau):
            total += cmath.exp(wr * (a[t] - b[t + tau])) * cmath.exp(wL * (nu * t))
    else:
        for t in range(-tau, L):
            total += cmath.exp(wr * (a[t] - b[t + tau])) * cmath.exp(wL * (nu * t))
    return total


def naive_correlation(a, b, r, tau):
    """Aperiodic cross-correlation (the zero-Doppler line), written as its
    own sum rather than by delegating to naive_af."""
    if len(a) != len(b):
        raise LengthMismatchError("sequences differ in length: %d vs %d" % (len(a), len(b)))
    L = len(a)
    if abs(tau) >= L:
        return 0j
    wr = 2j * cmath.pi / r
    total = 0j
    if tau >= 0:
        for t in range(0, L - tau):
            total += cmath.exp(wr * (a[t] - b[t + tau]))
    else:
        for t in range(-tau, L):
            total += cmath.exp(wr * (a[t] - b[t + tau]))
    return total


def naive_flock_af(C, D, r, tau, nu):
    """Sum of per-sequence ambiguity values across a flock pair."""
    if len(C) != len(D):
        raise LengthMismatchError("flocks differ in sequence count")
    return sum(naive_af(c, d, r, tau, nu) for c, d in zip(C, D))


def definition_literal_c2(rows, n_symbols, circular=False):
    """The at-most-one-row condition checked by quadruple loop.

    For every ordered pair (a, b) of distinct symbols and every step m
    in [1, ncols), count the rows in which b sits exactly m steps right
    of a; all counts must stay at or below 1. No C1 assumption is made:
    a row that exhibits the pattern several times still counts once,
    which is the literal reading.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return True
    ncols = len(rows[0])
    for a in range(n_symbols):
        for b in range(n_symbols):
            if a == b:
                continue
            for m in range(1, ncols):
                hits = 0
                for row in rows:
                    found = False
                    for j in range(ncols):
                        jr = j + m
                        if circular:
                            jr %= ncols
                        elif jr >= ncols:
                            break
                        if row[j] == a and row[jr] == b:
                            found = True
                            break
                    if found:
                        hits += 1
                        if hits > 1:
                            return False
    return True


# --- printed reference rows ---
#
# Parameter/result rows of the published comparison tables, kept
# verbatim so the bound formula can be replayed against them. The rho
# columns are printed at 4 decimals; recomputation must land within
# 5e-5 of them. Zone half-widths equal L throughout; theta equals N.
# prev1 columns evaluate the same bound at (K_prev1, N, N-1, N-1),
# the best previously constructible set at that alphabet.

CATALOG_SMALL_ALPHABET = (
    {"alphabet_r": 3, "K_prev1": 4, "K": 6, "N": 63, "L": 56, "rho": 1.5000, "rho_prev1": 1.5591},
    {"alphabet_r": 3, "K_prev1": 4, "K": 16, "N": 144, "L": 120, "rho": 1.3248, "rho_prev1": 1.5473},
    {"alphabet_r": 4, "K_prev1": 4, "K": 6, "N": 56, "L": 49, "rho": 1.5179, "rho_prev1": 1.5618},
    {"alphabet_r": 4, "K_prev1": 4, "K": 64, "N": 5184, "L": 5040, "rho": 1.0977, "rho_prev1": 1.5384},
    {"alphabet_r": 5, "K_prev1": 4, "K": 8, "N": 1000, "L": 868, "rho": 1.4320, "rho_prev1": 1.5395},
    {"alphabet_r": 5, "K_prev1": 4, "K": 16, "N": 10000, "L": 9360, "rho": 1.2340, "rho_prev1": 1.5383},
    {"alphabet_r": 6, "K_prev1": 6, "K": 49, "N": 1323, "L": 1248, "rho": 1.1300, "rho_prev1": 1.3762},
    {"alphabet_r": 6, "K_prev1": 4, "K": 128, "N": 21632, "L": 21336, "rho": 1.0630, "rho_prev1": 1.5382},
)

CATALOG_PRIME_PRODUCT = (
    {"K_prev": 2, "K_prev1": 4, "K": 6, "N": 63, "L": 56, "alphabet": "7*3^2", "rho": 1.5000, "rho_prev1": 1.5591},
    {"K_prev": 2, "K_prev1": 4, "K": 9, "N": 99, "L": 88, "alphabet": "11*3^2", "rho": 1.3788, "rho_prev1": 1.5514},
    {"K_prev": 1, "K_prev1": 4, "K": 12, "N": 208, "L": 195, "alphabet": "13*2^4", "rho": 1.2754, "rho_prev1": 1.5444},
    {"K_prev": 1, "K_prev1": 4, "K": 16, "N": 304, "L": 285, "alphabet": "19*2^4", "rho": 1.2328, "rho_prev1": 1.5425},
    {"K_prev": 2, "K_prev1": 4, "K": 22, "N": 759, "L": 736, "alphabet": "23*(2^5+1)", "rho": 1.1726, "rho_prev1": 1.5399},
    {"K_prev": 4, "K_prev1": 4, "K": 25, "N": 925, "L": 888, "alphabet": "37*5^2", "rho": 1.1674, "rho_prev1": 1.5396},
    {"K_prev": 2, "K_prev1": 4, "K": 30, "N": 1023, "L": 992, "alphabet": "31*(2^5+1)", "rho": 1.1455, "rho_prev1": 1.5395},
    {"K_prev": 6, "K_prev1": 6, "K": 46, "N": 2303, "L": 2256, "alphabet": "47*7^2", "rho": 1.1104, "rho_prev1": 1.3759},
    {"K_prev": 4, "K_prev1": 4, "K": 60, "N": 3965, "L": 3904, "alphabet": "61*(2^6+1)", "rho": 1.0932, "rho_prev1": 1.5385},
    {"K_prev": 2, "K_prev1": 4, "K": 66, "N": 5494, "L": 5427, "alphabet": "67*(3^4+1)", "rho": 1.0869, "rho_prev1": 1.5384},
)

CATALOG_PRIME_POWER_PRODUCT = (
    {"K_prev": 1, "K_prev1": 4, "K": 9, "N": 160, "L": 135, "alphabet": "2^4*(3^2+1)", "rho": 1.4283, "rho_prev1": 1.5463},
    {"K_prev": 2, "K_prev1": 4, "K": 25, "N": 675, "L": 624, "alphabet": "3^3*5^2", "rho": 1.1932, "rho_prev1": 1.5401},
    {"K_prev": 1, "K_prev1": 4, "K": 25, "N": 832, "L": 775, "alphabet": "2^5*(5^2+1)", "rho": 1.1880, "rho_prev1": 1.5397},
    {"K_prev": 1, "K_prev1": 4, "K": 25, "N": 1274, "L": 1200, "alphabet": "7^2*(5^2+1)", "rho": 1.1803, "rho_prev1": 1.5392},
    {"K_prev": 1, "K_prev1": 4, "K": 27, "N": 1350, "L": 1274, "alphabet": "(7^2+1)*3^3", "rho": 1.1722, "rho_prev1": 1.5391},
    {"K_prev": 2, "K_prev1": 4, "K": 27, "N": 1755, "L": 1664, "alphabet": "3^3*(2^6+1)", "rho": 1.1690, "rho_prev1": 1.5389},
    {"K_prev": 2, "K_prev1": 4, "K": 49, "N": 3969, "L": 3840, "alphabet": "7^2*3^4", "rho": 1.1144, "rho_prev1": 1.5385},
    {"K_prev": 1, "K_prev1": 4, "K": 64, "N": 5248, "L": 5103, "alphabet": "2^6*(3^4+1)", "rho": 1.0976, "rho_prev1": 1.5384},
    {"K_prev": 2, "K_prev1": 4, "K": 81, "N": 9801, "L": 9600, "alphabet": "3^4*11^2", "rho": 1.0831, "rho_prev1": 1.5383},
    {"K_prev": 1, "K_prev1": 4, "K": 121, "N": 15246, "L": 15000, "alphabet": "11^2*(5^3+1)", "rho": 1.0662, "rho_prev1": 1.5383},
)

# Published rectangle-size rows with the family decomposition that
# reproduces each one; "prior" lists the best row counts available to
# the three earlier rectangle classes at that alphabet.
CATALOG_RECTANGLE_FAMILIES = (
    {"N": 160, "L": 135, "rows": 9,
     "family": "primepower_x_primepower_plus_one",
     "params": {"p": 2, "n": 4, "p1": 3, "n1": 2, "c": 1},
     "prior": {"circular_florentine": 1, "florentine": 4, "quasi_florentine": 4}},
    {"N": 832, "L": 775, "rows": 25,
     "family": "primepower_x_primepower_plus_one",
     "params": {"p": 2, "n": 5, "p1": 5, "n1": 2, "c": 1},
     "prior": {"circular_florentine": 1, "florentine": 4, "quasi_florentine": 4}},
    {"N": 1350, "L": 1274, "rows": 27,
     "family": "primepower_x_primepower_plus_one",
     "params": {"p": 3, "n": 3, "p1": 7, "n1": 2, "c": 1},
     "prior": {"circular_florentine": 1, "florentine": 4, "quasi_florentine": 4}},
    {"N": 1221, "L": 1184, "rows": 32,
     "family": "florentine_x_primepower_plus_one",
     "params": {"N1": 37, "p": 2, "n": 5, "c": 1},
     "prior": {"circular_florentine": 2, "florentine": 4, "quasi_florentine": 4}},
    {"N": 2303, "L": 2256, "rows": 46,
     "family": "primepower_x_florentine",
     "params": {"p": 7, "n": 2, "N1": 47, "c": 0},
     "prior": {"circular_florentine": 6, "florentine": 6, "quasi_florentine": 6}},
    {"N": 3904, "L": 3843, "rows": 60,
     "family": "florentine_x_primepower",
     "params": {"N1": 61, "p": 2, "n": 6, "c": 1},
     "prior": {"circular_florentine": 1, "florentine": 4, "quasi_florentine": 4}},
)

CATALOGS = {
    "small_alphabet": CATALOG_SMALL_ALPHABET,
    "prime_product": CATALOG_PRIME_PRODUCT,
    "prime_power_product": CATALOG_PRIME_POWER_PRODUCT,
}


def _row(catalog, row):
    """A printed row; an unknown catalog or a row outside [0, len) is
    ParamsOutOfRangeError, so row -1 never replays the last row."""
    if catalog not in CATALOGS:
        raise ParamsOutOfRangeError(
            "unknown catalog %r (choose from %s)" % (catalog, ", ".join(sorted(CATALOGS)))
        )
    rows = CATALOGS[catalog]
    if not 0 <= row < len(rows):
        raise ParamsOutOfRangeError("catalog %s has %d rows, no row %d" % (catalog, len(rows), row))
    return rows[row]


def recompute_table_row(catalog, row, prior=False):
    """Replay the bound formula on a printed table row; returns (bound, rho).

    Independent of the bounds module on purpose: the square root is
    written out here so the two paths share no code. With prior=True the
    formula is evaluated at the previously-best parameters (K_prev1,
    length N-1, zone N-1) instead of the row's own.
    """
    spec = _row(catalog, row)
    N = spec["N"]
    if prior:
        K, N_len, Z_y = spec["K_prev1"], N - 1, N - 1
    else:
        K, N_len, Z_y = spec["K"], spec["L"], spec["L"]
    bound = math.sqrt(N * N_len * (1.0 - 2.0 * math.sqrt(N / (3.0 * K * Z_y))))
    return bound, N / bound


def check_table_row(catalog, row, tol=5e-5):
    """Raise MismatchError unless both printed rho columns replay within tol."""
    spec = _row(catalog, row)
    _, rho = recompute_table_row(catalog, row)
    _, rho_prev = recompute_table_row(catalog, row, prior=True)
    if abs(rho - spec["rho"]) > tol:
        raise MismatchError(
            "%s row %d: recomputed rho %.6f vs printed %.4f"
            % (catalog, row, rho, spec["rho"])
        )
    if abs(rho_prev - spec["rho_prev1"]) > tol:
        raise MismatchError(
            "%s row %d: recomputed prior rho %.6f vs printed %.4f"
            % (catalog, row, rho_prev, spec["rho_prev1"])
        )
    return rho, rho_prev
