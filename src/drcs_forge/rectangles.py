"""Generalized quasi-Florentine rectangles: builders, verifiers, products.

A rectangle is a matrix over Z_N whose rows each carry distinct symbols
(C1) and whose ordered symbol pairs appear at most once per rightward
step across all rows (C2); the circular variant takes steps cyclically.
Circular C2 implies linear C2. Rectangles combine through a base-N1
product that multiplies alphabets and column counts while keeping the
minimum of the two row counts.
"""

import importlib.resources
import itertools
import json

import numpy as np

from .errors import (
    C1ViolatedError,
    CapExceededError,
    InvariantError,
    ParamsOutOfRangeError,
    PreconditionError,
    SameRowError,
    SchemaError,
    TooManyColumnsRemovedError,
    json_int,
    json_int_array,
)
from .finite_field import find_primitive_polynomial, is_prime


def smallest_prime_factor(N):
    if N < 2:
        raise ParamsOutOfRangeError("need N >= 2, got %d" % N)
    d = 2
    while d * d <= N:
        if N % d == 0:
            return d
        d += 1
    return N


class Rectangle:
    """Integer matrix over Z_N plus provenance describing how it was built."""

    def __init__(self, N, rows, provenance=None):
        N = int(N)
        rows = np.array(rows, dtype=np.int64)
        if rows.ndim != 2:
            raise SchemaError("rows must be a 2-D array, got ndim=%d" % rows.ndim)
        if rows.shape[1] < 1:
            raise InvariantError("a rectangle needs at least one column")
        if N < 1:
            raise InvariantError("alphabet modulus must be positive")
        if rows.size and (rows.min() < 0 or rows.max() >= N):
            raise InvariantError("entries must lie in [0, %d)" % N)
        rows.setflags(write=False)
        self.N = N
        self.rows = rows
        self.provenance = dict(provenance) if provenance else {}

    @property
    def nrows(self):
        return self.rows.shape[0]

    @property
    def ncols(self):
        return self.rows.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, Rectangle)
            and self.N == other.N
            and self.rows.shape == other.rows.shape
            and bool(np.all(self.rows == other.rows))
        )

    def __repr__(self):
        return "Rectangle(N=%d, %dx%d)" % (self.N, self.nrows, self.ncols)

    def to_json(self):
        return {
            "N": self.N,
            "n": self.ncols,
            "rows": self.rows.tolist(),
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, obj):
        try:
            N, n, rows = obj["N"], obj["n"], obj["rows"]
        except (KeyError, TypeError) as exc:
            raise SchemaError("rectangle JSON needs N, n, rows: %s" % exc) from None
        N = json_int(N, "N", SchemaError)
        n = json_int(n, "n", SchemaError)
        rows = json_int_array(rows, "rows", SchemaError)
        rect = cls(N, rows, obj.get("provenance"))
        if rect.ncols != n:
            raise SchemaError("declared n=%d but rows have %d columns" % (n, rect.ncols))
        return rect


def load_fixture(name):
    """Bundled rectangle fixtures by name, e.g. "gqfr_z8_8x6"."""
    text = (
        importlib.resources.files("drcs_forge")
        .joinpath("data/%s.json" % name)
        .read_text()
    )
    return Rectangle.from_json(json.loads(text))


# --- verification ---

def verify_c1(R):
    """True iff every row consists of pairwise-distinct symbols."""
    if R.ncols == 1:
        return True
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


def _step_keys(R, m, circular):
    """Encoded (step, left symbol, right symbol) keys for one step size."""
    N = R.N
    if circular:
        a = R.rows
        b = np.roll(R.rows, -m, axis=1)
    else:
        a = R.rows[:, : R.ncols - m]
        b = R.rows[:, m:]
    return ((np.int64(m) * N + a) * N + b).ravel()


def verify_c2(R, circular=False):
    """The at-most-one-row pair/step condition over the whole rectangle.

    Occurrences are hashed as (step, a, b) keys; under C1 each row
    produces each key at most once, so duplicate keys mean two distinct
    rows share a placement. Raises C1ViolatedError when the precondition
    fails (key counting and row counting only agree under C1).
    """
    if not verify_c1(R):
        raise C1ViolatedError("rectangle fails C1; C2 check is not meaningful")
    if R.ncols < 2:
        return True
    keys = np.concatenate([_step_keys(R, m, circular) for m in range(1, R.ncols)])
    return np.unique(keys).size == keys.size


def c2_witness(R, circular=False):
    """None when C2 holds, else a dict naming the colliding pair, the step,
    and the two row indices. Meant for CLI diagnostics."""
    if not verify_c1(R):
        raise C1ViolatedError("rectangle fails C1; C2 check is not meaningful")
    if R.ncols < 2:
        return None
    N, n = R.N, R.ncols
    for m in range(1, n):
        keys = _step_keys(R, m, circular)
        uniq, counts = np.unique(keys, return_counts=True)
        dup = uniq[counts > 1]
        if dup.size == 0:
            continue
        key = int(dup[0])
        b = key % N
        a = (key // N) % N
        hit_rows = []
        for i in range(R.nrows):
            row = R.rows[i]
            for j in range(n if circular else n - m):
                if row[j] == a and row[(j + m) % n] == b:
                    hit_rows.append(i)
                    break
        return {"pair": [a, b], "step": m, "rows": hit_rows[:2]}
    return None


def coincidence_count(R, i, p, tau):
    """Number of positions j with rows[i][j] == rows[p][j + tau].

    Any rectangle passing linear C2 keeps this at 0 or 1 for distinct
    rows, including tau = 0: two hits would exhibit the same ordered
    pair at the same step in both rows.
    """
    if i == p:
        raise SameRowError("rows must be distinct, both are %d" % i)
    n = R.ncols
    if not 0 <= tau < n:
        raise ParamsOutOfRangeError("tau must satisfy 0 <= tau < %d, got %d" % (n, tau))
    return int(np.sum(R.rows[i, : n - tau] == R.rows[p, tau:]))


# --- builders ---

def build_circular_florentine(N):
    """Rows (i+1)*j mod N for i < p-1, p the smallest prime factor of N.

    The result is a (p-1) x N circular Florentine rectangle over Z_N.
    """
    N = int(N)
    if N < 2:
        raise ParamsOutOfRangeError("need N >= 2, got %d" % N)
    p = smallest_prime_factor(N)
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
    fs = find_primitive_polynomial(p, n)
    q = fs.order
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
    base = build_circular_quasi_florentine(p, n)
    q = base.N
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
    if k == 0:
        rows = R.rows
    elif side == "right":
        rows = R.rows[:, :-k]
    else:
        rows = R.rows[:, k:]
    return Rectangle(
        R.N, rows, {"builder": "truncate", "k": k, "side": side, "base": R.provenance}
    )


def product_construct(A, B):
    """Base-N1 product: d[i][j] = A[i][j mod n] + N1 * B[i][j div n].

    A must be a circular rectangle over Z_{N1}, B a linear one over
    Z_{N2}; the result is min(rows) x (n*m) over Z_{N1*N2} and passes
    linear C2. Decoding an output entry mod/div N1 recovers the factors.
    """
    if not verify_c1(A):
        raise PreconditionError("left factor fails C1")
    if not verify_c1(B):
        raise PreconditionError("right factor fails C1")
    if not verify_c2(A, circular=True):
        raise PreconditionError("left factor must pass circular C2")
    if not verify_c2(B, circular=False):
        raise PreconditionError("right factor must pass linear C2")
    s = min(A.nrows, B.nrows)
    n, m = A.ncols, B.ncols
    N1 = A.N
    rows = np.empty((s, n * m), dtype=np.int64)
    for i in range(s):
        # index j = j1*n + j2 walks B-blocks outer, A-columns inner
        rows[i] = ((N1 * B.rows[i])[:, None] + A.rows[i][None, :]).ravel()
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

FAMILY_NAMES = (
    "florentine_x_primepower",
    "florentine_x_primepower_plus_one",
    "primepower_x_florentine",
    "primepower_x_primepower",
    "primepower_x_primepower_plus_one",
)


def _require_prime(p):
    if not is_prime(p):
        raise ParamsOutOfRangeError("p = %d is not prime" % p)


def product_family(family, **params):
    """Instantiate one of the named product families.

    Families pair a circular left factor (Florentine over Z_{N1}, or
    quasi-Florentine over Z_{p^n}) with a truncated linear right factor;
    the plus_one variants extend the right factor by the extra symbol
    before truncating, raising its alphabet by one. The parameter c
    counts symbols missing from the right factor's alphabet, so c = 1
    (or c = 0 against a Florentine factor) means no truncation.
    """
    if family == "florentine_x_primepower":
        N1, p, n, c = params["N1"], params["p"], params["n"], params["c"]
        _require_prime(p)
        if not 1 <= c < p ** n - 1:
            raise ParamsOutOfRangeError("need 1 <= c < p^n - 1, got c = %d" % c)
        A = build_circular_florentine(N1)
        B = truncate_columns(build_circular_quasi_florentine(p, n), c - 1)
    elif family == "florentine_x_primepower_plus_one":
        N1, p, n, c = params["N1"], params["p"], params["n"], params["c"]
        _require_prime(p)
        if not 1 <= c < p ** n:
            raise ParamsOutOfRangeError("need 1 <= c < p^n, got c = %d" % c)
        A = build_circular_florentine(N1)
        B = truncate_columns(build_extended_quasi_florentine(p, n), c - 1)
    elif family == "primepower_x_florentine":
        p, n, N1, c = params["p"], params["n"], params["N1"], params["c"]
        _require_prime(p)
        if not 0 <= c < N1 - 1:
            raise ParamsOutOfRangeError("need 0 <= c < N1 - 1, got c = %d" % c)
        A = build_circular_quasi_florentine(p, n)
        B = truncate_columns(build_circular_florentine(N1), c)
    elif family == "primepower_x_primepower":
        p, n, p1, n1, c = params["p"], params["n"], params["p1"], params["n1"], params["c"]
        _require_prime(p)
        _require_prime(p1)
        if not 1 <= c < p1 ** n1 - 1:
            raise ParamsOutOfRangeError("need 1 <= c < p1^n1 - 1, got c = %d" % c)
        A = build_circular_quasi_florentine(p, n)
        B = truncate_columns(build_circular_quasi_florentine(p1, n1), c - 1)
    elif family == "primepower_x_primepower_plus_one":
        p, n, p1, n1, c = params["p"], params["n"], params["p1"], params["n1"], params["c"]
        _require_prime(p)
        _require_prime(p1)
        if not 1 <= c < p1 ** n1:
            raise ParamsOutOfRangeError("need 1 <= c < p1^n1, got c = %d" % c)
        A = build_circular_quasi_florentine(p, n)
        B = truncate_columns(build_extended_quasi_florentine(p1, n1), c - 1)
    else:
        raise ParamsOutOfRangeError(
            "unknown family %r (choose from %s)" % (family, ", ".join(FAMILY_NAMES))
        )
    D = product_construct(A, B)
    D.provenance["family"] = family
    D.provenance["params"] = dict(params)
    return D


def family_dimensions(family, **params):
    """(rows, alphabet, columns) of product_family output, closed form.

    Shares the range checks with product_family so infeasible parameter
    sets fail identically, but never materializes the rectangles; the
    asymptotic checker walks parameter ladders through here.
    """
    if family == "florentine_x_primepower":
        N1, p, n, c = params["N1"], params["p"], params["n"], params["c"]
        _require_prime(p)
        if not 1 <= c < p ** n - 1:
            raise ParamsOutOfRangeError("need 1 <= c < p^n - 1, got c = %d" % c)
        return min(smallest_prime_factor(N1) - 1, p ** n), N1 * p ** n, N1 * (p ** n - c)
    if family == "florentine_x_primepower_plus_one":
        N1, p, n, c = params["N1"], params["p"], params["n"], params["c"]
        _require_prime(p)
        if not 1 <= c < p ** n:
            raise ParamsOutOfRangeError("need 1 <= c < p^n, got c = %d" % c)
        q1 = p ** n + 1
        return min(smallest_prime_factor(N1) - 1, p ** n), N1 * q1, N1 * (q1 - c)
    if family == "primepower_x_florentine":
        p, n, N1, c = params["p"], params["n"], params["N1"], params["c"]
        _require_prime(p)
        if not 0 <= c < N1 - 1:
            raise ParamsOutOfRangeError("need 0 <= c < N1 - 1, got c = %d" % c)
        return min(p ** n, smallest_prime_factor(N1) - 1), N1 * p ** n, (N1 - c) * (p ** n - 1)
    if family == "primepower_x_primepower":
        p, n, p1, n1, c = params["p"], params["n"], params["p1"], params["n1"], params["c"]
        _require_prime(p)
        _require_prime(p1)
        if not 1 <= c < p1 ** n1 - 1:
            raise ParamsOutOfRangeError("need 1 <= c < p1^n1 - 1, got c = %d" % c)
        return min(p ** n, p1 ** n1), p ** n * p1 ** n1, (p ** n - 1) * (p1 ** n1 - c)
    if family == "primepower_x_primepower_plus_one":
        p, n, p1, n1, c = params["p"], params["n"], params["p1"], params["n1"], params["c"]
        _require_prime(p)
        _require_prime(p1)
        if not 1 <= c < p1 ** n1:
            raise ParamsOutOfRangeError("need 1 <= c < p1^n1, got c = %d" % c)
        q1 = p1 ** n1 + 1
        return min(p ** n, p1 ** n1), p ** n * q1, (p ** n - 1) * (q1 - c)
    raise ParamsOutOfRangeError(
        "unknown family %r (choose from %s)" % (family, ", ".join(FAMILY_NAMES))
    )


# --- exhaustive search at tiny N ---

SEARCH_CAP = 10


def search_max_rows(N, n, circular=False, row_cap=None):
    """Backtracking search for a maximum-row rectangle at desk scale.

    Relabeling symbols maps any rectangle to one containing the row
    (0, 1, ..., n-1), which is the lexicographically smallest row
    possible; the search therefore fixes it first and extends with
    strictly lex-increasing rows, pruning the symmetric branches.
    Returns (Rectangle, certificate); certificate["exhaustive"] is False
    when row_cap stopped a branch from deepening.
    """
    N, n = int(N), int(n)
    if N > SEARCH_CAP:
        raise CapExceededError("exhaustive search capped at N <= %d, got %d" % (SEARCH_CAP, N))
    if not 1 <= n <= N:
        raise ParamsOutOfRangeError("need 1 <= n <= N, got n = %d" % n)

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
    rows = np.array([cands[i] for i in best], dtype=np.int64)
    rect = Rectangle(
        N, rows, {"builder": "search", "N": N, "n": n, "circular": bool(circular)}
    )
    certificate = {
        "max_rows": len(best),
        "exhaustive": not state["truncated"],
        "nodes": state["nodes"],
        "row_cap": row_cap,
    }
    return rect, certificate
