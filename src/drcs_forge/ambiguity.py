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
--paranoid mode. af_pair and af_flock evaluate single cells.
"""

import functools
import math

import numpy as np

from .errors import LengthMismatchError, ParamsOutOfRangeError, ShapeMismatchError
from .drcs import Zone


@functools.lru_cache(maxsize=64)
def _roots(order):
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


def af_flock(C1, C2, tau, nu, r):
    """Flock-level ambiguity: the sum of the M per-sequence values.

    C1 and C2 are (M, L) exponent arrays sharing r.
    """
    C1 = np.asarray(C1, dtype=np.int64)
    C2 = np.asarray(C2, dtype=np.int64)
    if C1.shape != C2.shape or C1.ndim != 2:
        raise ShapeMismatchError("flocks differ in shape: %s vs %s" % (C1.shape, C2.shape))
    L = C1.shape[1]
    if abs(tau) >= L:
        return 0j
    nu = int(nu) % L
    R = math.lcm(int(r), L)
    if tau >= 0:
        ai, bi = C1[:, : L - tau], C2[:, tau:]
        t = np.arange(0, L - tau, dtype=np.int64)
    else:
        ai, bi = C1[:, -tau:], C2[:, : L + tau]
        t = np.arange(-tau, L, dtype=np.int64)
    e = ((R // r) * (ai - bi) + (R // L) * nu * t[None, :]) % R
    return complex(_roots(R)[e].sum())


class AfGrid:
    """Ambiguity values over the zone lattice, indexed by (tau, nu)."""

    def __init__(self, values, zone, L, kind="cross", pair=None):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (2 * zone.Z_x - 1, 2 * zone.Z_y - 1):
            raise ShapeMismatchError(
                "grid shape %s does not match zone %r" % (values.shape, zone)
            )
        self.values = values
        self.zone = zone
        self.L = int(L)
        self.kind = kind
        self.pair = tuple(pair) if pair is not None else None

    def value(self, tau, nu):
        return complex(self.values[tau + self.zone.Z_x - 1, nu + self.zone.Z_y - 1])

    def magnitude(self):
        return np.abs(self.values)


def _grid_naive(C1, C2, zone, r):
    """Direct DFT of the lag lines, independent of the fft path: the line
    at shift tau is g(t) = sum_m w_r^((C1[m, t] - C2[m, t + tau]) mod r),
    summed from integer exponent differences and zero where t + tau
    leaves [0, L). The grid is G @ W with W[t, nu] = w_L^((nu t) mod L).
    One tau at a time, so no temporary exceeds O(M L)."""
    L = C1.shape[1]
    w = _roots(r)
    G = np.zeros((2 * zone.Z_x - 1, L), dtype=np.complex128)
    for i, tau in enumerate(range(-zone.Z_x + 1, zone.Z_x)):
        lo, hi = max(-tau, 0), min(L, L - tau)
        if lo < hi:
            G[i, lo:hi] = w[(C1[:, lo:hi] - C2[:, lo + tau : hi + tau]) % r].sum(axis=0)
    nus = np.arange(-zone.Z_y + 1, zone.Z_y)
    W = _roots(L)[np.outer(np.arange(L), nus) % L]
    return G @ W


def _grid_fft(C1, C2, zone, r):
    """Every lag product is a diagonal of P = (w^C1)^T conj(w^C2): the
    line at shift tau is g(t) = P[t, t + tau], zero where t + tau leaves
    [0, L). All lines go through one inverse DFT along t, scaled by L;
    nu bins are sampled mod L."""
    L = C1.shape[1]
    w = _roots(r)
    P = w[C1 % r].T @ w[C2 % r].conj()
    t = np.arange(L)
    u = t + np.arange(-zone.Z_x + 1, zone.Z_x)[:, None]
    g = np.where((u >= 0) & (u < L), P[t, np.clip(u, 0, L - 1)], 0)
    nus = np.arange(-zone.Z_y + 1, zone.Z_y) % L
    return (L * np.fft.ifft(g, axis=1))[:, nus]


def af_grid(C1, C2, zone, r, method="naive", kind="cross", pair=None):
    """Evaluate the full lattice; method is "naive" or "fft"."""
    C1 = np.asarray(C1, dtype=np.int64)
    C2 = np.asarray(C2, dtype=np.int64)
    if C1.shape != C2.shape or C1.ndim != 2:
        raise ShapeMismatchError("flocks differ in shape: %s vs %s" % (C1.shape, C2.shape))
    if method == "naive":
        values = _grid_naive(C1, C2, zone, r)
    elif method == "fft":
        values = _grid_fft(C1, C2, zone, r)
    else:
        raise ParamsOutOfRangeError("method must be naive or fft, got %r" % method)
    return AfGrid(values, zone, C1.shape[1], kind=kind, pair=pair)


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
    a tie and both methods name the same cell.
    """
    zone = zone if zone is not None else S.zone
    tol = 64 * S.M * S.L * np.finfo(float).eps

    def grids(pairs, kind):
        for k1, k2 in pairs:
            yield af_grid(S.flock(k1), S.flock(k2), zone, S.r, method, kind, (k1, k2))

    autos = [(k, k) for k in range(S.K)]
    crosses = [(k1, k2) for k1 in range(S.K) for k2 in range(S.K) if k1 != k2]
    theta_a, witness_a = _scan(grids(autos, "auto"), zone, tol, skip_origin=True)
    theta_c, witness_c = _scan(grids(crosses, "cross"), zone, tol, skip_origin=False)
    return ThetaReport(theta_a, theta_c, witness_a, witness_c, zone, method)


# --- grid exports ---

def write_cells_csv(grid, fh):
    """One line per lattice cell: tau, nu, re, im, abs."""
    fh.write("tau,nu,re,im,abs\n")
    for tau in range(-grid.zone.Z_x + 1, grid.zone.Z_x):
        for nu in range(-grid.zone.Z_y + 1, grid.zone.Z_y):
            v = grid.value(tau, nu)
            fh.write(
                "%d,%d,%.17g,%.17g,%.17g\n" % (tau, nu, v.real, v.imag, abs(v))
            )


def write_magnitude_csv(grid, fh):
    """Rectangular magnitude matrix; rows run nu from +max down to -max
    (plot orientation), columns run tau ascending."""
    mags = grid.magnitude()
    for ni in range(2 * grid.zone.Z_y - 2, -1, -1):
        fh.write(",".join("%.17g" % m for m in mags[:, ni]))
        fh.write("\n")


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
