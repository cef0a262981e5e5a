"""Exact aperiodic ambiguity-function evaluation on integer lattices.

Sequences are integer exponent arrays over the r-th roots of unity; the
Doppler root is always the L-th root for length-L sequences, so every
term of the ambiguity sum is a root of unity of order lcm(r, L). Values
are accumulated from a precomputed root table in double precision
(numpy's pairwise summation), which keeps results within a few ulp of
exact.

Grids cover the open zone (-Z_x, Z_x) x (-Z_y, Z_y) on its integer
lattice. The fast path ("fft", the default of every scan) gathers all
lag-product sequences of a flock pair from one L x L product and runs
one inverse FFT over them. The reference path ("naive") builds each lag
line from integer exponent differences and takes a direct DFT of the
lines (a matrix product with the L-th root table), sharing no code with
the fast path; the two are cross-checked in tests and by the CLI
--paranoid mode. af_pair evaluates a single cell of one sequence pair.

A grid's largest array holds max(L, 2 Z_x - 1) * max(L, 2 Z_y - 1)
elements and a root table as many as its order; either one over
GRID_CAP is refused (exit 3) before anything is allocated.

The CSV writers print every float as "%.17g". Each distinct bit pattern
of a grid is formatted once, by a numpy kernel that gives the bytes
"%.17g" gives (the private module _g17, imported on first use), into a
table of 24 bytes a pattern; the lines are then written a block of rows
at a time. A writer holds that table, the grid's values as int64 while
they are sorted, and one block.
"""

import functools
import math

import numpy as np

from .errors import LengthMismatchError, ParamsOutOfRangeError, ShapeMismatchError


# Elements of the largest array one grid or root table may take: 2^22
# (64 MiB of complex values) admits L = 1024 over its full zone.
GRID_CAP = 1 << 22


@functools.lru_cache(maxsize=64)
def _roots(order):
    if order > GRID_CAP:
        raise ParamsOutOfRangeError(
            "root order %d is over the cap of %d" % (order, GRID_CAP))
    w = np.exp(2j * np.pi * np.arange(order) / order)
    w.setflags(write=False)
    return w


def af_pair(a, b, r, tau, nu):
    """Ambiguity value of two exponent sequences at integer (tau, nu).

    Zero for |tau| >= L; nu is taken mod L (the Doppler phase ring).
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatchError(
            "sequences differ in length: %s vs %s" % (a.shape, b.shape)
        )
    L = a.shape[0]
    if abs(tau) >= L:
        return 0j
    nu = int(nu) % L
    R = math.lcm(int(r), L)
    if tau >= 0:
        ai, bi = a[: L - tau], b[tau:]
        t = np.arange(0, L - tau, dtype=np.int64)
    else:
        ai, bi = a[-tau:], b[: L + tau]
        t = np.arange(-tau, L, dtype=np.int64)
    e = ((R // r) * (ai - bi) + (R // L) * nu * t) % R
    return complex(_roots(R)[e].sum())


class AfGrid:
    """Ambiguity values over the zone lattice, indexed by (tau, nu)."""

    def __init__(self, values, zone, L, pair=None):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (2 * zone.Z_x - 1, 2 * zone.Z_y - 1):
            raise ShapeMismatchError(
                "grid shape %s does not match zone %r" % (values.shape, zone)
            )
        self.values = values
        self.zone = zone
        self.L = int(L)
        self.pair = tuple(pair) if pair is not None else None

    def value(self, tau, nu):
        return complex(self.values[tau + self.zone.Z_x - 1, nu + self.zone.Z_y - 1])

    def magnitude(self):
        return np.abs(self.values)


# elements of the naive path's per-block temporaries: shifts are taken
# as many at a time as keep the M x shifts x L gathers this small
_NAIVE_BLOCK = 1 << 16


@functools.lru_cache(maxsize=4)
def _naive_tables(L, Z_x, Z_y):
    """The arrays _grid_naive needs for one shape, built once and frozen:
    cols[i, t] = t + tau clipped into [0, L) for tau = i - Z_x + 1,
    inside marks where t + tau lies in [0, L), single lists the shifts
    with exactly one such t, and W[t, nu] = w_L^((nu t) mod L)."""
    t = np.arange(L)
    u = t + np.arange(-Z_x + 1, Z_x)[:, None]
    inside = (u >= 0) & (u < L)
    cols = np.clip(u, 0, L - 1)
    single = np.flatnonzero(inside.sum(axis=1) == 1)
    W = _roots(L)[np.outer(t, np.arange(-Z_y + 1, Z_y)) % L]
    for a in (cols, inside, single, W):
        a.setflags(write=False)
    return cols, inside, single, W


def _grid_naive(C1, C2, zone, r):
    """Direct DFT of the lag lines, independent of the fft path: the line
    at shift tau is g(t) = sum_m w_r^(C1[m, t] - C2[m, t + tau]), summed
    in m order from integer exponent differences and zero where t + tau
    leaves [0, L). The grid is G @ W with W[t, nu] = w_L^((nu t) mod L).

    Both flocks are reduced mod r once, so every difference lies in
    (-r, r) and indexes the root table directly. Lines are built for a
    block of shifts at a time, no temporary over _NAIVE_BLOCK elements
    (or one shift's M x L). A line with a single term is summed on its
    own, as an M x 1 column, which numpy adds pairwise and not in m
    order; that keeps each line's bits independent of the blocking."""
    M, L = C1.shape
    w = _roots(r)
    C1 = C1 % r
    C2 = C2 % r
    cols, inside, single, W = _naive_tables(L, zone.Z_x, zone.Z_y)
    G = np.empty(cols.shape, dtype=np.complex128)
    step = max(1, _NAIVE_BLOCK // (M * L))
    for i in range(0, len(cols), step):
        lines = w[C1[:, None, :] - C2[:, cols[i : i + step]]].sum(axis=0)
        G[i : i + step] = np.where(inside[i : i + step], lines, 0)
    for i in single.tolist():
        t = int(np.flatnonzero(inside[i])[0])
        u = int(cols[i, t])
        G[i, t] = w[C1[:, t : t + 1] - C2[:, u : u + 1]].sum(axis=0)[0]
    return G @ W


@functools.lru_cache(maxsize=64)
def _conj_roots(order):
    w = _roots(order).conj()
    w.setflags(write=False)
    return w


@functools.lru_cache(maxsize=4)
def _lag_gather(L, Z_x, Z_y):
    """The index arrays of _grid_fft for one shape, built once and frozen:
    flat[i, t] is the position of P[t, t + tau] in P.ravel() for the
    shift tau = i - Z_x + 1 (clipped where t + tau leaves [0, L), which
    inside marks), and nus holds the nu bins mod L."""
    t = np.arange(L)
    u = t + np.arange(-Z_x + 1, Z_x)[:, None]
    inside = (u >= 0) & (u < L)
    flat = t * L + np.clip(u, 0, L - 1)
    nus = np.arange(-Z_y + 1, Z_y) % L
    for a in (flat, inside, nus):
        a.setflags(write=False)
    return flat, inside, nus


def _grid_fft(C1, C2, zone, r):
    """Every lag product is a diagonal of P = (w^C1)^T conj(w^C2): the
    line at shift tau is g(t) = P[t, t + tau], zero where t + tau leaves
    [0, L). All lines go through one inverse DFT along t, scaled by L in
    place; nu bins are sampled mod L. The root gathers wrap exponents
    into [0, r), as C % r does, and read conj(w) from a table of its own."""
    L = C1.shape[1]
    P = _roots(r).take(C1, mode="wrap").T @ _conj_roots(r).take(C2, mode="wrap")
    flat, inside, nus = _lag_gather(L, zone.Z_x, zone.Z_y)
    g = np.fft.ifft(np.where(inside, P.ravel().take(flat), 0), axis=1)
    g *= L
    return g.take(nus, axis=1)


def af_grid(C1, C2, zone, r, method="fft", pair=None):
    """Evaluate the full lattice; method is "fft" or "naive". A grid
    whose largest array would exceed GRID_CAP elements is refused before
    anything is allocated."""
    C1 = np.asarray(C1, dtype=np.int64)
    C2 = np.asarray(C2, dtype=np.int64)
    if C1.shape != C2.shape or C1.ndim != 2:
        raise ShapeMismatchError("flocks differ in shape: %s vs %s" % (C1.shape, C2.shape))
    L = C1.shape[1]
    # P is L x L, the lag lines (2 Z_x - 1) x L, the DFT table L x (2 Z_y - 1)
    if max(L, 2 * zone.Z_x - 1) * max(L, 2 * zone.Z_y - 1) > GRID_CAP:
        raise ParamsOutOfRangeError(
            "grid of length %d over %r needs arrays over the cap of %d elements"
            % (L, zone, GRID_CAP))
    if method == "naive":
        values = _grid_naive(C1, C2, zone, r)
    elif method == "fft":
        values = _grid_fft(C1, C2, zone, r)
    else:
        raise ParamsOutOfRangeError("method must be naive or fft, got %r" % method)
    return AfGrid(values, zone, L, pair=pair)


def _scan(grids, zone, tol, skip_origin):
    """Peak magnitude over grids given in pair order, and its witness:
    the lex-first (pair, tau, nu) whose magnitude is within tol of the
    peak. (None, None) when no cell is scanned."""
    # (magnitude, pair, flat cell) of each cell that beats every lex-earlier
    # one; the lex-first cell above any threshold is always among them
    stairs = []
    for g in grids:
        mags = g.magnitude()
        if skip_origin:
            mags[zone.Z_x - 1, zone.Z_y - 1] = -1.0
        mags = mags.ravel()
        top = stairs[-1][0] if stairs else -1.0
        if mags.max() <= top:
            continue  # no cell beats the running peak, so no new stair
        prior = np.maximum.accumulate(np.concatenate(([top], mags)))[:-1]
        stairs += [(float(mags[i]), g.pair, int(i)) for i in np.flatnonzero(mags > prior)]
    if not stairs:
        return None, None
    peak = stairs[-1][0]
    mag, pair, i = next(s for s in stairs if s[0] >= peak - tol)
    ti, ni = divmod(i, 2 * zone.Z_y - 1)
    return peak, {"pair": list(pair), "tau": ti - zone.Z_x + 1,
                  "nu": ni - zone.Z_y + 1, "abs": mag}


class ThetaReport:
    """Peak auto (origin excluded) and cross (origin included) magnitudes
    with stable witnesses; a witness's abs is its own cell's magnitude."""

    def __init__(self, theta_a, theta_c, witness_a, witness_c, zone, method):
        self.theta_a = theta_a
        self.theta_c = theta_c
        self.witness_a = witness_a
        self.witness_c = witness_c
        self.zone = zone
        self.method = method

    @property
    def theta_max(self):
        vals = [v for v in (self.theta_a, self.theta_c) if v is not None]
        return max(vals) if vals else None

    def to_json(self):
        return {
            "theta_a": self.theta_a,
            "theta_c": self.theta_c,
            "theta_max": self.theta_max,
            "witness_a": self.witness_a,
            "witness_c": self.witness_c,
            "zone": [self.zone.Z_x, self.zone.Z_y],
            "method": self.method,
        }


def theta_max(S, zone=None, method="fft"):
    """Exhaustive peak scan over all flocks, ordered pairs, and lattice
    points of the zone. Auto peaks exclude (0,0); cross peaks include
    every cell. Each witness is the lexicographically first (pair, tau,
    nu) within tol = 64*M*L*eps of its peak, so float noise cannot decide
    a tie and both methods name the same cell. A zone wider than L is
    refused, as DrcsSet refuses it: its nu = +-L bins alias the origin.
    """
    zone = zone if zone is not None else S.zone
    zone.check_length(S.L)
    tol = 64 * S.M * S.L * np.finfo(float).eps

    def grids(pairs):
        for k1, k2 in pairs:
            yield af_grid(S.flock(k1), S.flock(k2), zone, S.r, method, (k1, k2))

    autos = [(k, k) for k in range(S.K)]
    crosses = [(k1, k2) for k1 in range(S.K) for k2 in range(S.K) if k1 != k2]
    theta_a, witness_a = _scan(grids(autos), zone, tol, skip_origin=True)
    theta_c, witness_c = _scan(grids(crosses), zone, tol, skip_origin=False)
    return ThetaReport(theta_a, theta_c, witness_a, witness_c, zone, method)


# --- grid exports ---

# cells handled at a time: the CSV writers' blocks and the "%.17g"
# kernel's chunks stay this small whatever the grid size
_BLOCK_CELLS = 1 << 12


def _g17_table(*columns):
    """(text, where) for the float64 arrays columns, taken end to end:
    text[i] is "%.17g" of the i-th distinct bit pattern among them, as
    24 NUL-padded bytes, and where holds the int32 index of each value's
    pattern. Patterns are compared as integers, so -0.0 and 0.0, or NaNs
    of different payloads, keep text of their own. Each temporary is
    dropped as soon as it is used, so the peak stays near three int64
    copies of the values."""
    from . import _g17  # compiled and set up only by a process that writes CSV

    bits = np.concatenate(columns).view(np.int64)
    order = np.argsort(bits)
    bits = bits[order]
    new = np.empty(bits.size, dtype=bool)
    new[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    distinct = bits[new].view(np.float64)
    del bits
    where = np.empty(order.size, dtype=np.int32)
    where[order] = np.cumsum(new, dtype=np.int32)
    where -= 1
    del order, new
    return _g17.format_g17(distinct, _BLOCK_CELLS), where


def _abs(v):
    """abs() of each complex value of v: np.hypot, the libm call abs()
    makes, where both parts and the result are finite; abs() itself
    elsewhere, so it raises OverflowError wherever abs() would."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.hypot(v.real, v.imag)
    odd = np.flatnonzero(~(np.isfinite(v.real) & np.isfinite(v.imag) & np.isfinite(out)))
    out[odd] = [abs(z) for z in v[odd].tolist()]
    return out


def write_cells_csv(grid, fh):
    """One line per lattice cell, tau ascending then nu ascending: tau,
    nu, re, im, abs. Floats print as "%.17g"; abs is Python's abs() of
    the complex value, which can differ from np.abs in the last bit.

    Each distinct bit pattern of the three float columns is formatted
    once, into a table of 24 bytes a pattern; the lines are then written
    in blocks of whole tau rows."""
    fh.write("tau,nu,re,im,abs\n")
    Z_x, ny = grid.zone.Z_x, 2 * grid.zone.Z_y - 1
    v = grid.values.ravel()
    text, where = _g17_table(v.real, v.imag, _abs(v))
    where = where.reshape(3, -1)
    # one line per nu; joining them with "tau," puts tau at each line's start
    lines = [b""] + [b"%d,%%s,%%s,%%s\n" % nu for nu in range(-grid.zone.Z_y + 1, grid.zone.Z_y)]
    rows = max(1, _BLOCK_CELLS // ny)
    for i in range(0, 2 * Z_x - 1, rows):
        cells = where[:, i * ny : (i + rows) * ny]
        template = b"".join((b"%d," % tau).join(lines)
                            for tau in range(i - Z_x + 1, i - Z_x + 1 + cells.shape[1] // ny))
        fh.write((template % tuple(text[cells.T.ravel()].tolist())).decode("ascii"))


def write_magnitude_csv(grid, fh):
    """Rectangular magnitude matrix (np.abs); rows run nu from +max down
    to -max (plot orientation), columns run tau ascending. Floats print
    as "%.17g", each distinct bit pattern formatted once as in
    write_cells_csv. Written in blocks of whole nu rows."""
    mags = np.ascontiguousarray(grid.magnitude()[:, ::-1].T)
    nx = mags.shape[1]
    text, where = _g17_table(mags.ravel())
    line = b",".join([b"%s"] * nx) + b"\n"
    rows = max(1, _BLOCK_CELLS // nx)
    for j in range(0, where.size, rows * nx):
        fields = text[where[j : j + rows * nx]].tolist()
        fh.write(((line * (len(fields) // nx)) % tuple(fields)).decode("ascii"))


def write_pgm(grid, fh):
    """16-bit binary PGM heatmap, grid max scaled to 65535."""
    mags = grid.magnitude()
    top = float(mags.max())
    if top > 0:
        pix = np.round(mags / top * 65535).astype(">u2")
    else:
        pix = np.zeros(mags.shape, dtype=">u2")
    pix = pix.T[::-1]  # rows nu descending, cols tau ascending
    fh.write(b"P5\n%d %d\n65535\n" % (pix.shape[1], pix.shape[0]))
    fh.write(pix.tobytes())
