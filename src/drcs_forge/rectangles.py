"""Generalized quasi-Florentine rectangles: builders, verifiers, products.

A rectangle is a matrix over Z_N whose rows each carry distinct symbols
(C1) and whose ordered symbol pairs appear at most once per rightward
step across all rows (C2); the circular variant takes steps cyclically.
Circular C2 implies linear C2. Under C1 every symbol has one column
per row, so C2 is checked on one position table: two rows share an
ordered pair at one step exactly when two of their common symbols have
the same shift between the rows. Rectangles combine through a base-N1
product that multiplies alphabets and column counts while keeping the
minimum of the two row counts. One table, FAMILIES, lists the named
product families; both their builds and their closed-form sizes read it.
Builders refuse a table of more than TABLE_CAP entries before making it;
that cap, the C2 check's and the search's are in _limits.
"""

import collections
import itertools
import math
import os

import numpy as np

from ._artifacts import Table
from ._limits import POSITION_CAP, SEARCH_CAP, SEARCH_ROWS_CAP, TABLE_CAP, require
from .errors import (
    C1ViolatedError,
    InvariantError,
    ParamsOutOfRangeError,
    PreconditionError,
    SchemaError,
    TooManyColumnsRemovedError,
    json_int,
    json_int_array,
    json_object,
)
from .finite_field import check_field, find_primitive_polynomial, smallest_prime_factor


class Rectangle(Table):
    """Integer matrix over Z_N plus provenance describing how it was built."""

    FIELD_ERROR = SchemaError
    TABLE_FIELD = "rows"
    SHAPE_FIELDS = (None, "n")

    def __init__(self, N, rows, provenance=None):
        self.N = int(N)
        self.rows = self._table(rows, self.N, provenance)
        if self.rows.ndim != 2:
            raise SchemaError("rows must be a 2-D array, got ndim=%d" % self.rows.ndim)
        if self.rows.shape[1] < 1:
            raise InvariantError("a rectangle needs at least one column")

    @property
    def nrows(self):
        return self.rows.shape[0]

    @property
    def ncols(self):
        return self.rows.shape[1]

    def __repr__(self):
        return "Rectangle(N=%d, %dx%d)" % (self.N, self.nrows, self.ncols)

    def _fields(self):
        return {"N": self.N, "n": self.ncols, "rows": self.rows, "provenance": self.provenance}

    @classmethod
    def from_json(cls, obj):
        """The rectangle a parsed {N, n, rows} object holds."""
        try:
            N, n, rows = obj["N"], obj["n"], obj["rows"]
        except (KeyError, TypeError) as exc:
            raise SchemaError("rectangle JSON needs N, n, rows: %s" % exc) from None
        N = json_int(N, "N", SchemaError)
        n = json_int(n, "n", SchemaError)
        rows = json_int_array(rows, "rows", SchemaError)
        rect = cls(N, rows, json_object(obj.get("provenance"), "provenance", SchemaError))
        if rect.ncols != n:
            raise SchemaError("declared n=%d but rows have %d columns" % (n, rect.ncols))
        return rect


def load_fixture(name):
    """Bundled rectangle fixtures by name, e.g. "gqfr_z8_8x6", read from
    the data directory beside this module."""
    return Rectangle.read(os.path.join(os.path.dirname(__file__), "data", name + ".json"))[0]


# --- verification ---

def verify_c1(R):
    """True iff every row consists of pairwise-distinct symbols."""
    s = np.sort(R.rows, axis=1)
    return not bool(np.any(s[:, 1:] == s[:, :-1]))


def c1_witness(R):
    """None, or (row index, repeated symbol) for the first C1 violation."""
    for i in range(R.nrows):
        row = R.rows[i]
        seen = set()
        for v in row.tolist():
            if v in seen:
                return (i, v)
            seen.add(v)
    return None


def _positions(R):
    """The position table pos[k, s]: the column of symbol s in row k, or
    -1 where row k lacks s; plus ranks, each entry's symbol index s.

    Symbols are indexed by rank among those that occur, so the table
    has at most K * n columns whatever the alphabet size; one of more
    than POSITION_CAP entries is refused before it is made. Needs C1:
    a row that repeats a symbol fills fewer than n cells of its row of
    pos, and raises C1ViolatedError.
    """
    flat = np.sort(R.rows, axis=None)
    used = flat[np.concatenate(([True], flat[1:] != flat[:-1]))]
    require(R.nrows * used.size, POSITION_CAP,
            "position table of %d x %d entries" % (R.nrows, used.size))
    ranks = np.searchsorted(used, R.rows)
    pos = np.full((R.nrows, used.size), -1, dtype=np.int64)
    pos[np.arange(R.nrows)[:, None], ranks] = np.arange(R.ncols)
    if np.count_nonzero(pos >= 0) < R.rows.size:
        raise C1ViolatedError("rectangle fails C1; C2 check is not meaningful")
    return pos, ranks


def _shift_collisions(pos, ranks, circular):
    """Yield (i, key, cols) for each row i that shares a placement with a
    later row.

    For a row p > i and column j of row i, the shift of the symbol at
    j is its column in row p minus j (mod n when circular). Columns of
    row i whose symbols share key = (p - i - 1, shift) with another
    column are returned as cols, sorted by key and then by column, so
    each colliding key is one run of two or more ascending columns.
    """
    n = ranks.shape[1]
    j = np.arange(n)
    width = n if circular else 2 * n - 1
    for i in range(ranks.shape[0] - 1):
        later = pos[i + 1:, ranks[i]]
        present = later >= 0
        shift = (later - j) % n if circular else later - j + (n - 1)
        key = (np.arange(later.shape[0])[:, None] * width + shift)[present]
        counts = np.bincount(key)
        if counts.max(initial=0) > 1:
            hit = counts[key] > 1
            key, cols = key[hit], np.broadcast_to(j, later.shape)[present][hit]
            order = np.argsort(key, kind="stable")
            yield i, key[order], cols[order]


def verify_c2(R, circular=False):
    """The at-most-one-row pair/step condition over the whole rectangle.

    Under C1 a symbol sits in at most one column of a row, so its shift
    between rows i and p, pos[p, s] - pos[i, s], is well defined. Both
    rows hold the ordered pair (a, b) at one step exactly when a and b
    are common to them and have equal shifts: the step is then the
    distance from a to b in either row. C2 therefore holds iff, for
    every pair of rows, the shifts of their common symbols are pairwise
    distinct (compared mod n for circular C2). A row that repeats a
    symbol has no single position for it, so C1ViolatedError is raised
    when the precondition fails.
    """
    if R.ncols < 2:
        return True
    return next(_shift_collisions(*_positions(R), circular), None) is None


def c2_witness(R, circular=False):
    """None when C2 holds, else a dict naming the colliding pair, the step,
    and the two row indices. Meant for CLI diagnostics.

    The witness is the smallest step, then the lexicographically
    smallest pair (a, b) shared at that step, then the two lowest rows
    holding it. Columns of row i in one colliding run share a placement
    for every ordered pair of them; the shortest such step joins two
    neighbours in the run (or the last and first when circular), so
    only those pairs are candidates.
    """
    if R.ncols < 2:
        return None
    n = R.ncols
    pos, ranks = _positions(R)
    best = None
    for i, key, cols in _shift_collisions(pos, ranks, circular):
        run = key[1:] == key[:-1]
        left, right = cols[:-1][run], cols[1:][run]
        if circular:
            first = np.flatnonzero(np.concatenate(([True], ~run)))
            last = np.concatenate((first[1:], [key.size])) - 1
            left = np.concatenate((left, cols[last]))
            right = np.concatenate((right, cols[first]))
        step = (right - left) % n
        a, b = R.rows[i, left], R.rows[i, right]
        k = np.lexsort((b, a, step))[0]
        cand = (int(step[k]), int(a[k]), int(b[k]), ranks[i, left[k]], ranks[i, right[k]])
        if best is None or cand < best:
            best = cand
    if best is None:
        return None
    m, a, b, sa, sb = best
    pa, pb = pos[:, sa], pos[:, sb]
    dist = pb - pa
    if circular:
        dist %= n
    rows = np.flatnonzero((pa >= 0) & (pb >= 0) & (dist == m))
    return {"pair": [a, b], "step": m, "rows": rows[:2].tolist()}


# --- builders ---

def build_circular_florentine(N):
    """Rows (i+1)*j mod N for i < p-1, p the smallest prime factor of N.

    The result is a (p-1) x N circular Florentine rectangle over Z_N.
    """
    N = int(N)
    if N < 2:
        raise ParamsOutOfRangeError("need N >= 2, got %d" % N)
    require(N, TABLE_CAP, "Florentine rectangle of %d columns" % N)  # before factoring N
    p = smallest_prime_factor(N)
    require((p - 1) * N, TABLE_CAP, "Florentine rectangle of %d x %d entries" % (p - 1, N))
    j = np.arange(N, dtype=np.int64)
    i = np.arange(1, p, dtype=np.int64)
    rows = (i[:, None] * j[None, :]) % N
    return Rectangle(N, rows, {"builder": "circular_florentine", "N": N})


def build_circular_quasi_florentine(p, n):
    """The p^n x (p^n - 1) circular quasi-Florentine rectangle over Z_{p^n}.

    Row 0 lists psi(alpha^j); row i > 0 lists psi(alpha^j + alpha^{i-1}),
    with alpha a primitive element of GF(p^n) and psi the base-p
    encoding. Each column also carries p^n distinct entries, which the
    extended builder below relies on.
    """
    q = check_field(p, n)
    require(q * (q - 1), TABLE_CAP, "quasi-Florentine rectangle of %d x %d entries" % (q, q - 1))
    fs = find_primitive_polynomial(p, n)
    digits = fs.power_digits()          # (q-1) x n, row j = coeffs of alpha^j
    w = fs.p ** np.arange(fs.n, dtype=np.int64)
    rows = np.empty((q, q - 1), dtype=np.int64)
    rows[0] = digits @ w
    for i in range(1, q):
        rows[i] = ((digits + digits[i - 1]) % fs.p) @ w
    return Rectangle(
        q,
        rows,
        {"builder": "circular_quasi_florentine", "p": fs.p, "n": fs.n, "field": fs.to_json()},
    )


def build_extended_quasi_florentine(p, n):
    """Append the extra symbol p^n as a constant final column, giving a
    p^n x p^n rectangle over Z_{p^n + 1} that passes linear C2.

    Soundness: pairs not involving the new symbol keep their steps from
    the base rectangle; a pair (a, p^n) at step m pins a to one fixed
    column, and every column of the base rectangle holds p^n distinct
    entries, so no two rows can collide. The circular property does not
    survive (wrapped steps place p^n on the left), hence the linear
    classification.
    """
    q = check_field(p, n)
    require(q * q, TABLE_CAP, "extended quasi-Florentine rectangle of %d x %d entries" % (q, q))
    base = build_circular_quasi_florentine(p, n)
    extra = np.full((q, 1), q, dtype=np.int64)
    rows = np.hstack([base.rows, extra])
    return Rectangle(
        q + 1,
        rows,
        {"builder": "extended_quasi_florentine", "p": int(p), "n": int(n),
         "base": base.provenance},
    )


def truncate_columns(R, k, side="right"):
    """Drop k columns from one side; linear C2 survives truncation."""
    k = int(k)
    if side not in ("left", "right"):
        raise ParamsOutOfRangeError("side must be left or right, got %r" % side)
    if k < 0 or k > R.ncols - 2:
        raise TooManyColumnsRemovedError(
            "k must satisfy 0 <= k <= %d, got %d" % (R.ncols - 2, k)
        )
    rows = R.rows[:, : R.ncols - k] if side == "right" else R.rows[:, k:]
    return Rectangle(
        R.N, rows, {"builder": "truncate", "k": k, "side": side, "base": R.provenance}
    )


def product_construct(A, B):
    """Base-N1 product: d[i][j] = A[i][j mod n] + N1 * B[i][j div n].

    A must be a circular rectangle over Z_{N1}, B a linear one over
    Z_{N2}; the result is min(rows) x (n*m) over Z_{N1*N2} and passes
    linear C2. Decoding an output entry mod/div N1 recovers the factors.
    """
    s, n, m = min(A.nrows, B.nrows), A.ncols, B.ncols
    require(s * n * m, TABLE_CAP, "product of %d x %d entries" % (s, n * m))
    require(A.N * B.N, 2 ** 63, "int64 product alphabet %d x %d" % (A.N, B.N))
    if not verify_c1(A):
        raise PreconditionError("left factor fails C1")
    if not verify_c1(B):
        raise PreconditionError("right factor fails C1")
    if not verify_c2(A, circular=True):
        raise PreconditionError("left factor must pass circular C2")
    if not verify_c2(B, circular=False):
        raise PreconditionError("right factor must pass linear C2")
    N1 = A.N
    # index j = j1*n + j2 walks B-blocks outer, A-columns inner
    rows = (N1 * B.rows[:s, :, None] + A.rows[:s, None, :]).reshape(s, n * m)
    return Rectangle(
        N1 * B.N,
        rows,
        {
            "builder": "product",
            "left": A.provenance,
            "right": B.provenance,
            # B's column count is read as the m of the block indexing
            "note": "right factor columns indexed as blocks",
        },
    )


# --- parameterized product families ---

# A factor kind: its closed-form (rows, alphabet, columns), its builder,
# and the c that removes no column when it is the right factor.
Factor = collections.namedtuple("Factor", "dims build c_offset")


def _florentine_dims(N1):
    return smallest_prime_factor(N1) - 1, N1, N1


def _field_dims(p, n):
    q = check_field(p, n)
    return q, q, q - 1


def _field_plus_one_dims(p, n):
    q = check_field(p, n)
    return q, q + 1, q


FLORENTINE = Factor(_florentine_dims, build_circular_florentine, 0)
FIELD = Factor(_field_dims, build_circular_quasi_florentine, 1)
FIELD_PLUS_ONE = Factor(_field_plus_one_dims, build_extended_quasi_florentine, 1)

# name: (left factor, its parameter names, right factor, its parameter names)
FAMILIES = {
    "florentine_x_primepower": (FLORENTINE, ("N1",), FIELD, ("p", "n")),
    "florentine_x_primepower_plus_one": (FLORENTINE, ("N1",), FIELD_PLUS_ONE, ("p", "n")),
    "primepower_x_florentine": (FIELD, ("p", "n"), FLORENTINE, ("N1",)),
    "primepower_x_primepower": (FIELD, ("p", "n"), FIELD, ("p1", "n1")),
    "primepower_x_primepower_plus_one": (FIELD, ("p", "n"), FIELD_PLUS_ONE, ("p1", "n1")),
}


def _family(family, params):
    """Resolve a family's parameters into (params as ints, closed-form
    (rows, alphabet, columns), a function building the two factors).

    Unknown families and missing, extra or non-integer parameters raise
    ParamsOutOfRangeError, and each factor runs its builder's checks.
    Truncation keeps at least two columns of the right factor.
    """
    if not isinstance(family, str) or family not in FAMILIES:
        raise ParamsOutOfRangeError(
            "unknown family %r (choose from %s)" % (family, ", ".join(FAMILIES))
        )
    left, left_names, right, right_names = FAMILIES[family]
    names = left_names + right_names + ("c",)
    if set(params) != set(names):
        raise ParamsOutOfRangeError("family %s takes %s, got %s"
                                    % (family, ", ".join(names), ", ".join(sorted(params))))
    args = {k: json_int(params[k], k, ParamsOutOfRangeError) for k in names}
    left_args = [args[k] for k in left_names]
    right_args = [args[k] for k in right_names]
    rows1, alphabet1, cols1 = left.dims(*left_args)
    rows2, alphabet2, cols2 = right.dims(*right_args)
    removed = args["c"] - right.c_offset
    if not 0 <= removed <= cols2 - 2:
        raise ParamsOutOfRangeError("need %d <= c <= %d, got c = %d"
                                    % (right.c_offset, right.c_offset + cols2 - 2, args["c"]))

    def factors():
        return left.build(*left_args), truncate_columns(right.build(*right_args), removed)

    return args, (min(rows1, rows2), alphabet1 * alphabet2, cols1 * (cols2 - removed)), factors


def product_family(family, **params):
    """Instantiate one of the named product families.

    Families pair a circular left factor (Florentine over Z_{N1}, or
    quasi-Florentine over Z_{p^n}) with a truncated linear right factor;
    the plus_one variants extend the right factor by the extra symbol
    before truncating, raising its alphabet by one. The parameter c
    counts symbols missing from the right factor's alphabet, so c = 1
    (or c = 0 against a Florentine factor) means no truncation.
    """
    args, (K, _, L), factors = _family(family, params)
    require(K * L, TABLE_CAP, "product family %s of %d x %d entries" % (family, K, L))
    D = product_construct(*factors())
    D.provenance["family"] = family
    D.provenance["params"] = args
    return D


def family_dimensions(family, **params):
    """(rows, alphabet, columns) of product_family output, closed form.

    Refuses the parameter sets product_family refuses, with the same
    errors, except that it never builds the rectangles and so sizes
    tables over TABLE_CAP too; the asymptotic checker walks parameter
    ladders through here.
    """
    return _family(family, params)[1]


# --- exhaustive search at tiny N ---

def search_max_rows(N, n, circular=False, row_cap=None):
    """Backtracking search for a maximum-row rectangle at desk scale.

    Relabeling symbols maps any rectangle to one containing the row
    (0, 1, ..., n-1), which is the lexicographically smallest row
    possible; the search therefore fixes it first and extends with
    strictly lex-increasing rows, pruning the symmetric branches.
    Returns (Rectangle, certificate); certificate["exhaustive"] is False
    when row_cap stopped a branch from deepening. A row_cap below 1 is
    refused: the fixed first row always fits. So are more than 8!
    candidate rows, N!/(N-n)!, before any is listed.
    """
    N, n = int(N), int(n)
    require(N, SEARCH_CAP, "exhaustive search at N = %d" % N)
    if not 1 <= n <= N:
        raise ParamsOutOfRangeError("need 1 <= n <= N, got N = %d, n = %d" % (N, n))
    candidates = math.perm(N, n)
    require(candidates, SEARCH_ROWS_CAP, "search of %d candidate rows" % candidates)
    if row_cap is not None and row_cap < 1:
        # the fixed first row is placed before the cap is ever checked
        raise ParamsOutOfRangeError("row cap must be at least 1, got %d" % row_cap)

    cands = list(itertools.permutations(range(N), n))
    # bit ((m * N) + a) * N + b of a row's mask: the row holds the ordered
    # pair (a, b) at step m. Two rows fit together iff their masks share no
    # bit. A row never sets a bit twice (a fixes its column), so sum is OR.
    steps = [(m, j, (j + m) % n) for m in range(1, n) for j in range(n if circular else n - m)]
    masks = [sum(1 << ((m * N + row[j]) * N + row[k]) for m, j, k in steps) for row in cands]
    best = [0]
    nodes, truncated = 1, False

    def dfs(chosen, used, start):
        nonlocal best, nodes, truncated
        if row_cap is not None and len(chosen) >= row_cap:
            truncated = True
            return
        for idx in range(start, len(cands)):
            if used & masks[idx]:
                continue
            grown = chosen + [idx]
            nodes += 1
            if len(grown) > len(best):
                best = grown
            dfs(grown, used | masks[idx], idx + 1)

    dfs(best, masks[0], 1)
    rows = np.array([cands[i] for i in best], dtype=np.int64)
    rect = Rectangle(
        N, rows, {"builder": "search", "N": N, "n": n, "circular": bool(circular)}
    )
    certificate = {
        "max_rows": len(best),
        "exhaustive": not truncated,
        "nodes": nodes,
        "row_cap": row_cap,
    }
    return rect, certificate
