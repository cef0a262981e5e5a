"""The size policy: every cap, and require(), which refuses a count over
its cap with ParamsOutOfRangeError (exit 3) before the thing is made."""

from .errors import ParamsOutOfRangeError

# Entries of a builder's int64 table: 32 MiB, enough for every catalog
# rectangle (121 x 15000 at most) and field rectangles to order 2048.
TABLE_CAP = 1 << 22
# Entries of a C2 check's position table, rows x symbols: 64 MiB of int64.
POSITION_CAP = 2 * TABLE_CAP
# Elements of an ambiguity grid's largest array or root table: 64 MiB of
# complex values, enough for L = 1024 over its full zone.
GRID_CAP = 1 << 22
# Butson order: 512 MiB of int64 exponents (a builder peaks near twice
# that); verify_bh adds the 1 GiB complex matrix and 16 MiB Gram blocks.
ORDER_CAP = 8192
# Entries K x M x L of a built set: at most 1 GiB, as int64 when r > 2^31;
# a set is stored in the narrowest signed dtype that holds r - 1, so 256
# MiB of int16 when r <= 2^15.
SET_CAP = 1 << 27
# Elements of GF(p^n): find_primitive_polynomial(2, 20) takes 8.4 s, 400 MB.
FIELD_CAP = 1 << 20
# Numbers trial division factors: at most 2^19 odd divisors, under a second.
TRIAL_DIVISION_CAP = 1 << 40
# Alphabet size N of the exhaustive rectangle search. It bounds no time:
# "rect search 7 7 --circular" takes 2 s, "6 3" still runs for minutes.
SEARCH_CAP = 10
# Candidate rows N!/(N-n)! the search lists up front, as tuples and
# bitmasks: 8! rows take about 9 MB and 0.4 s.
SEARCH_ROWS_CAP = 40320


def require(count, cap, what):
    """Refuse count over cap; what names the counted thing."""
    if count > cap:
        raise ParamsOutOfRangeError("%s is over the cap of %d" % (what, cap))
