"""The text "%.17g" gives for each float of an array, built with numpy.

The grid CSV writers print every float as "%.17g"; this kernel gives the
same bytes without a Python call per value. It is a module of its own,
imported by the writers on first use, and its tables are built on first
use: a process that writes no grid CSV neither compiles it nor builds
them.

format_g17 finds the 17 significant digits of |v| from exact products
and an explicit error bound, and hands every value that bound cannot
settle to "%.17g" itself, so each byte it returns is the byte "%.17g"
gives.
"""

import functools

import numpy as np

_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for 53-bit mantissas
_HALF_GAP = 2.0 ** -20  # a remainder this close to 1/2 is left to "%.17g"
_TINY = float(np.finfo(np.float64).tiny)
_HUGE = float(np.finfo(np.float64).max)


@functools.lru_cache(maxsize=None)
def _pow10(k):
    """10^k as (hi + lo) 2^e with hi in [0.5, 1): hi and lo are correctly
    rounded from the exact rational, so |10^k 2^-e - hi - lo| <= 2^-108.
    Returns (hi, hi's top 26 bits, the rest of hi, lo, e)."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    e = num.bit_length() - den.bit_length()
    if num << max(-e, 0) >= den << max(e, 0):
        e += 1
    a, b = num << max(-e, 0), den << max(e, 0)
    hi = a / b  # int / int rounds correctly
    lo = (a * (1 << 53) - int(hi * 2.0 ** 53) * b) / (b << 53)
    c = _SPLIT * hi
    top = c - (c - hi)
    return hi, top, hi - top, lo, e


@functools.lru_cache(maxsize=16)
def _pow10_table(k0, k1):
    """_pow10(k) for k0 <= k <= k1, as five arrays indexed by k - k0."""
    cols = list(zip(*(_pow10(k) for k in range(k0, k1 + 1))))
    return [np.array(c) for c in cols[:4]] + [np.array(cols[4], dtype=np.int64)]


@functools.lru_cache(maxsize=1)
def _tables():
    """The lookup tables of the layout step.

    A value's text is gathered from a 32-byte record: "0000" (bytes 0-3),
    digits 2-17 of its 17 as four 4-digit groups (bytes 4-19), its lead
    digit, ".", "-" and NUL (bytes 20-23), and its exponent suffix, "e",
    a sign and two or three digits, NUL-padded (bytes 24-31). Row key of
    `layouts` lists the record bytes of the 24 output bytes for
    key = (negative * 22 + class) * 17 + t, where class is X + 4 in fixed
    notation (-4 <= X < 17) and 21 in exponent notation, and t is the
    number of trailing zero digits, which are stripped (with the point
    when no fraction is left).
    """
    quads = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + 48)
    zeros = np.cumprod(quads[:, ::-1] == 48, axis=1).sum(axis=1)  # of "0000" .. "9999"
    lead = np.array([b"%d.-" % d for d in range(10)], dtype="S4")
    suffix = np.array([b"e%+03d" % X for X in range(-324, 325)], dtype="S8")
    # output byte c: "-" first when negative, then the digit string
    # "0" * lz + digits with a point after its first q characters, cut at
    # `end`, then (exponent notation only) the suffix
    neg, cls, t, c = np.ix_(range(2), range(22), range(17), range(24))
    c = c - neg
    fixed = cls < 21
    X = cls - 4
    lz = np.where(fixed, np.maximum(-X, 0), 0)
    q = np.where(fixed, np.maximum(X, 0) + 1, 1)
    flen = lz + 17 - q
    end = np.where(t >= flen, q, q + 1 + flen - t)
    j = np.where(c < q, c, c - 1) - lz  # index among the 17 digits
    body = np.where(c == q, 21, np.where(j < 0, 0, np.where(j > 0, j + 3, 20)))
    tail = np.where(fixed, 23, 24 + np.clip(c - end, 0, 7))
    layouts = np.where(c < 0, 22, np.where(c < end, body, tail)).reshape(-1, 24)
    return (quads.view(np.uint32).ravel(), zeros, lead.view(np.uint32), suffix.view(np.uint64),
            layouts.astype(np.intp))


def format_g17(x, chunk):
    """b"%.17g" % v for each float v of the 1-D array x, as an "S24" array
    (numpy drops the NUL padding when an item is read), worked through
    `chunk` values at a time.

    The 17 significant digits of |v| are D = round(|v| 10^k) for
    k = 16 - X, X = floor(log10 |v|), from exact products: |v| = m 2^s
    (frexp), 10^k = (hi + lo) 2^e (_pow10) and m hi = p + err (Dekker).
    For y = |v| 10^k in [10^16, 10^17) the scale 2^(s+e) is below 2^59,
    so y = floor(p 2^(s+e)) + r, and r, summed from the fraction of
    p 2^(s+e), err 2^(s+e) and (m lo) 2^(s+e), is off by less than 2^-45:
    two sums of terms under 2^7, the rounding of m lo, and the 2^-108
    that hi + lo leaves out of 10^k. A value goes to "%.17g" itself when
    that cannot settle it: zero, subnormal or non-finite; r within
    _HALF_GAP of a half (exact ties included); or D not strictly between
    10^16 and 10^17, which also catches an X that log10 got wrong.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty(x.shape, dtype="S24")
    for i in range(0, x.size, chunk):
        out[i : i + chunk] = _format_chunk(x[i : i + chunk])
    return out


def _format_chunk(x):
    quads, zeros, lead, suffix, layouts = _tables()
    n = x.size
    ax = np.abs(x)
    ok = (ax >= _TINY) & (ax <= _HUGE)
    ax[~ok] = 1.0
    X = np.floor(np.log10(ax)).astype(np.int64)
    k0 = 16 - int(X.max())
    hi, top, rest, lo, e = (a.take(16 - k0 - X) for a in _pow10_table(k0, 16 - int(X.min())))
    m, s = np.frexp(ax)
    c = _SPLIT * m
    m_top = c - (c - m)
    m_rest = m - m_top
    p = m * hi
    err = ((m_top * top - p) + m_top * rest + m_rest * top) + m_rest * rest
    scale = np.ldexp(1.0, s + e)
    y = p * scale
    y_int = np.floor(y)
    r = (y - y_int) + err * scale + (m * lo) * scale
    r_int = np.floor(r)
    frac = r - r_int
    D = y_int.astype(np.int64) + r_int.astype(np.int64) + (frac > 0.5)
    ok &= (np.abs(frac - 0.5) > _HALF_GAP) & (D > 10 ** 16) & (D < 10 ** 17)
    D[~ok] = 10 ** 16 + 1
    # D = a bbbb cccc dddd eeee
    high, low = np.divmod(D, 10 ** 8)
    a, bc = np.divmod(high, 10 ** 8)
    b, cc = np.divmod(bc, 10 ** 4)
    d, ee = np.divmod(low, 10 ** 4)
    rec = np.empty((n, 4), dtype=np.uint64)
    words = rec.view(np.uint32)
    words[:, 0] = 0x30303030  # "0000"
    words[:, 1], words[:, 2], words[:, 3], words[:, 4] = quads[b], quads[cc], quads[d], quads[ee]
    words[:, 5] = lead[a]
    rec[:, 3] = suffix[X + 324]
    t = zeros[ee]
    z = ee == 0
    for g in (d, cc, b):
        t += z * zeros[g]
        z &= g == 0
    cls = np.where((X >= -4) & (X < 17), X + 4, 21)
    idx = layouts.take((np.signbit(x) * 22 + cls) * 17 + t, axis=0)
    idx += np.arange(0, 32 * n, 32)[:, None]
    text = rec.view(np.uint8).ravel().take(idx).view("S24").ravel()
    for i in np.flatnonzero(~ok).tolist():
        text[i] = b"%.17g" % x[i]
    return text
