import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drcs_forge import _g17 as _g17_module
from drcs_forge import ambiguity
from drcs_forge.ambiguity import (
    GRID_CAP,
    AfGrid,
    _scan,
    af_grid,
    af_pair,
    theta_max,
    write_cells_csv,
    write_magnitude_csv,
    write_pgm,
)
from drcs_forge.drcs import DrcsSet, Zone, build_drcs
from drcs_forge.errors import LengthMismatchError, ParamsOutOfRangeError, ShapeMismatchError
from drcs_forge.hadamard import dft_matrix, walsh_hadamard
from drcs_forge.oracles import naive_af, naive_correlation, naive_flock_af
from drcs_forge.rectangles import (
    Rectangle,
    build_circular_quasi_florentine,
    build_extended_quasi_florentine,
    product_construct,
)


@st.composite
def sequence_pairs(draw):
    r = draw(st.integers(2, 7))
    L = draw(st.integers(1, 9))
    seq = st.lists(st.integers(0, r - 1), min_size=L, max_size=L)
    return draw(seq), draw(seq), r


@pytest.fixture(scope="module")
def toy_set():
    return build_drcs(Rectangle(2, [[0, 1]]), walsh_hadamard(1))


class TestPairEvaluator:
    def test_all_ones_lag(self):
        v = af_pair([0, 0, 0, 0], [0, 0, 0, 0], 2, 1, 0)
        assert v == pytest.approx(3.0)

    def test_zero_shift_self(self):
        a = [0, 1, 2, 1, 0]
        assert af_pair(a, a, 3, 0, 0) == pytest.approx(5.0)

    def test_binary_cancellation(self):
        assert abs(af_pair([0, 1], [0, 0], 2, 0, 0)) < 1e-12

    def test_beyond_length_is_zero(self):
        a = [0, 1, 0]
        assert af_pair(a, a, 2, 3, 1) == 0j
        assert af_pair(a, a, 2, -5, 2) == 0j

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            af_pair([0, 1], [0, 1, 0], 2, 0, 0)

    @given(sequence_pairs(), st.integers(-10, 10), st.integers(-10, 10))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive(self, pair, tau, nu):
        a, b, r = pair
        got = af_pair(a, b, r, tau, nu)
        want = naive_af(a, b, r, tau, nu)
        assert abs(got - want) <= 1e-9 * len(a)

    @given(sequence_pairs(), st.integers(-8, 8), st.integers(-8, 8))
    @settings(max_examples=120, deadline=None)
    def test_conjugate_symmetry(self, pair, tau, nu):
        a, b, r = pair
        L = len(a)
        lhs = af_pair(a, b, r, tau, nu)
        rhs = np.exp(-2j * np.pi * nu * tau / L) * np.conj(
            af_pair(b, a, r, -tau, -nu)
        )
        assert abs(lhs - rhs) <= 1e-9 * L

    @given(sequence_pairs(), st.integers(-8, 8), st.integers(-8, 8))
    @settings(max_examples=120, deadline=None)
    def test_magnitude_cap(self, pair, tau, nu):
        a, b, r = pair
        cap = max(len(a) - abs(tau), 0)
        assert abs(af_pair(a, b, r, tau, nu)) <= cap + 1e-9

    @given(sequence_pairs(), st.integers(-8, 8))
    @settings(max_examples=100, deadline=None)
    def test_zero_doppler_is_correlation(self, pair, tau):
        a, b, r = pair
        got = af_pair(a, b, r, tau, 0)
        want = naive_correlation(a, b, r, tau)
        assert abs(got - want) <= 1e-9 * len(a)

    @pytest.mark.parametrize("r, L", [(3, 4), (6, 4), (7, 2), (1048583, 8)])
    def test_reads_only_the_order_r_and_order_L_tables(self, monkeypatch, r, L):
        """No table of order lcm(r, L): at r = 1048583, L = 8 that one is
        over GRID_CAP while both of these are not."""
        orders, roots = [], ambiguity._roots

        def recording(order):
            orders.append(order)
            return roots(order)

        monkeypatch.setattr(ambiguity, "_roots", recording)
        rng = np.random.default_rng(r + L)
        a, b = rng.integers(0, r, size=(2, L))
        for tau, nu in ((0, 0), (1 - L, 1), (L // 2, -1)):
            got = af_pair(a, b, r, tau, nu)
            assert abs(got - naive_af(a.tolist(), b.tolist(), r, tau, nu)) <= 1e-9 * L
        assert set(orders) == {r, L}

    @given(sequence_pairs(), st.data(), st.sampled_from(["naive", "fft"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_grid_cell(self, pair, data, method):
        a, b, r = pair
        L = len(a)
        tau = data.draw(st.integers(-L + 1, L - 1))
        nu = data.draw(st.integers(-L + 1, L - 1))
        g = af_grid([a], [b], Zone(L, L), r, method)
        assert abs(af_pair(a, b, r, tau, nu) - g.value(tau, nu)) <= 1e-9 * L


class TestFlockEvaluator:
    def test_matches_naive(self, rng_flocks=None):
        rng = np.random.default_rng(7)
        C = rng.integers(0, 5, size=(3, 6))
        D = rng.integers(0, 5, size=(3, 6))
        g = af_grid(C, D, Zone(6, 6), 5, method="fft")
        for tau in (-5, -2, 0, 1, 4):
            for nu in (-3, 0, 2):
                want = naive_flock_af(C, D, 5, tau, nu)
                assert abs(g.value(tau, nu) - want) <= 1e-9 * C.size

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            af_grid(np.zeros((2, 3), int), np.zeros((3, 3), int), Zone(1, 1), 2)


# (M, L, (Z_x, Z_y), r): edge shapes of both grid paths' lag lines
EDGE_SHAPES = pytest.mark.parametrize("M, L, zone, r", [
    (2, 7, (7, 5), 4),
    (3, 8, (3, 8), 5),
    (2, 9, (4, 4), 3),
    (2, 6, (1, 1), 4),
    (3, 1, (1, 1), 2),
    (1, 10, (10, 10), 3),
    (4, 12, (12, 7), 6),
    (2, 4, (6, 6), 3),
], ids=["base", "zx_ne_zy", "zx_lt_L", "zone_1", "L_1", "M_1", "r_6", "zone_past_L"])


def _lattice(zone):
    """Every (tau, nu) of the zone's open box, tau ascending then nu."""
    return itertools.product(range(-zone.Z_x + 1, zone.Z_x), range(-zone.Z_y + 1, zone.Z_y))


def _edge_flocks(M, L, r):
    rng = np.random.default_rng(11)
    return rng.integers(0, r, size=(M, L)), rng.integers(0, r, size=(M, L))


def masked_lag_lines(P, Z_x):
    """Row i holds the diagonal P[t, t + tau] for tau = i - Z_x + 1, as a
    masked gather: zero where t + tau leaves [0, L)."""
    L = P.shape[0]
    t = np.arange(L)
    u = t + np.arange(-Z_x + 1, Z_x)[:, None]
    inside = (u >= 0) & (u < L)
    return np.where(inside, P.ravel()[t * L + np.clip(u, 0, L - 1)], 0)


def literal_grid_fft(C1, C2, zone, r):
    """The fft path as first written: root gathers by C % r, a masked
    gather of the lag lines, and the ifft scaled into a new array."""
    L = C1.shape[1]
    w = ambiguity._roots(r)
    P = w[C1 % r].T @ w[C2 % r].conj()
    g = masked_lag_lines(P, zone.Z_x)
    return (L * np.fft.ifft(g, axis=1))[:, np.arange(-zone.Z_y + 1, zone.Z_y) % L]


def conj_table_grid_fft(C1, C2, zone, r):
    """The fft path with its C2 roots gathered from a conjugated copy of
    the root table, as it was before the gather was conjugated in place;
    its lag lines and nu bins are built here, not read from the module."""
    L = C1.shape[1]
    w = ambiguity._roots(r)
    P = w.take(C1, mode="wrap").T @ w.conj().take(C2, mode="wrap")
    g = np.fft.ifft(masked_lag_lines(P, zone.Z_x), axis=1)
    g *= L
    return g.take(np.arange(-zone.Z_y + 1, zone.Z_y) % L, axis=1)


def per_shift_grid_naive(C1, C2, zone, r):
    """The naive grid one shift at a time: each lag line summed over m
    in m order, as an M x (L - |tau|) sum, then a direct DFT."""
    L = C1.shape[1]
    w = ambiguity._roots(r)
    G = np.zeros((2 * zone.Z_x - 1, L), dtype=np.complex128)
    for i, tau in enumerate(range(-zone.Z_x + 1, zone.Z_x)):
        lo, hi = max(-tau, 0), min(L, L - tau)
        if lo < hi:
            G[i, lo:hi] = w[(C1[:, lo:hi] - C2[:, lo + tau : hi + tau]) % r].sum(axis=0)
    nus = np.arange(-zone.Z_y + 1, zone.Z_y)
    return G @ ambiguity._roots(L)[np.outer(np.arange(L), nus) % L]


@st.composite
def narrow_flock_pairs(draw):
    """Two flocks of one signed dtype, as a set stores them, with entries
    in [-2r, 2r) where the dtype holds them, and a zone up to L."""
    dtype = np.dtype(draw(st.sampled_from([np.int8, np.int16, np.int64])))
    r = draw(st.integers(2, 127 if dtype == np.int8 else 400))
    M, L = draw(st.integers(1, 6)), draw(st.integers(1, 20))
    zone = Zone(draw(st.integers(1, L)), draw(st.integers(1, L)))
    info = np.iinfo(dtype)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    C1, C2 = rng.integers(max(-2 * r, info.min), min(2 * r, info.max + 1),
                          size=(2, M, L), dtype=dtype)
    return C1, C2, zone, r


class TestGrid:
    @EDGE_SHAPES
    @pytest.mark.parametrize("span", [1, 3], ids=["in_range", "wrapped"])
    def test_fft_equals_literal_bits(self, M, L, zone, r, span):
        """The wrap-mode root gathers, the zero-padded lag gather and the
        in-place scaling change no bit, also for exponents that are
        negative or at least r."""
        rng = np.random.default_rng(M * L * r)
        C1, C2 = rng.integers(-(span - 1) * r, span * r, size=(2, M, L))
        got = af_grid(C1, C2, Zone(*zone), r, method="fft").values
        assert got.tobytes() == literal_grid_fft(C1, C2, Zone(*zone), r).tobytes()

    @given(narrow_flock_pairs())
    @settings(max_examples=120, deadline=None)
    def test_fft_gives_the_conjugate_table_bits(self, case):
        """Conjugating the C2 gather in place, instead of gathering from a
        conjugated table, changes no bit: conjugation is exact."""
        C1, C2, zone, r = case
        got = af_grid(C1, C2, zone, r, method="fft").values
        assert got.tobytes() == conj_table_grid_fft(C1, C2, zone, r).tobytes()

    def test_fft_gives_the_conjugate_table_bits_at_benchmark_shapes(self, set160):
        """eval-many's set (int8 flocks) and eval-long's (int16), every
        pair with flock 0 and the last auto pair."""
        many = build_drcs(build_circular_quasi_florentine(2, 4), dft_matrix(16))
        for S, dtype in ((many, np.int8), (set160, np.int16)):
            assert S.flocks.dtype == dtype
            for k1, k2 in [(0, k) for k in range(S.K)] + [(S.K - 1, S.K - 1)]:
                C1, C2 = S.flock(k1), S.flock(k2)
                got = af_grid(C1, C2, S.zone, S.r, method="fft").values
                assert got.tobytes() == conj_table_grid_fft(C1, C2, S.zone, S.r).tobytes()

    @EDGE_SHAPES
    def test_naive_equals_fft(self, M, L, zone, r):
        C1, C2 = _edge_flocks(M, L, r)
        g1 = af_grid(C1, C2, Zone(*zone), r, method="naive")
        g2 = af_grid(C1, C2, Zone(*zone), r, method="fft")
        assert g2.values.shape == (2 * zone[0] - 1, 2 * zone[1] - 1)
        assert np.allclose(g1.values, g2.values, atol=1e-9)

    @EDGE_SHAPES
    def test_naive_matches_literal_sum(self, M, L, zone, r):
        C1, C2 = _edge_flocks(M, L, r)
        g = af_grid(C1, C2, Zone(*zone), r, method="naive")
        for tau, nu in _lattice(Zone(*zone)):
            want = naive_flock_af(C1.tolist(), C2.tolist(), r, tau, nu)
            assert abs(g.value(tau, nu) - want) <= 1e-12 * M * L

    @pytest.mark.parametrize("M, L, zone, r", [
        (16, 15, (15, 15), 16),   # lines with one term at |tau| = L - 1
        (9, 12, (14, 5), 7),      # shifts past L
        (20, 6, (3, 6), 5),
        (1, 1, (1, 1), 2),
        (12, 1, (2, 1), 3),
        (160, 135, (135, 135), 160),  # the N = 160 catalog row's shape
        (2, 9, (9, 9), 4),
        (40, 2, (2, 2), 5),
        (1, 6, (8, 3), 3),
    ], ids=["full_zone", "past_L", "inner_zone", "one_by_one", "L_1",
            "catalog_160", "M_2", "L_2", "M_1_past_L"])
    def test_naive_gives_the_per_shift_bits(self, M, L, zone, r):
        """Reading the lag lines off the diagonals of one L x L sum changes
        no bit of the naive grid: each line is summed as the
        one-shift-at-a-time loop below sums it, in m order, and the
        single-term lines pairwise, as numpy adds an M x 1 column."""
        rng = np.random.default_rng(M * L + r)
        C1 = rng.integers(-3 * r, 3 * r, size=(M, L))
        C2 = rng.integers(-3 * r, 3 * r, size=(M, L))
        got = af_grid(C1, C2, Zone(*zone), r, method="naive").values
        assert got.tobytes() == per_shift_grid_naive(C1, C2, Zone(*zone), r).tobytes()

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    @pytest.mark.parametrize("M, L, zone, r", [
        (16, 15, (15, 15), 16),   # lines with one term at |tau| = L - 1
        (9, 12, (14, 5), 7),      # shifts past L
        (20, 6, (3, 6), 5),
        (1, 1, (1, 1), 2),
        (12, 1, (2, 1), 3),
    ], ids=["full_zone", "past_L", "inner_zone", "one_by_one", "L_1"])
    def test_naive_blocks_give_the_per_shift_bits(self, block, M, L, zone, r):
        """Building the lag lines for a block of shifts at a time, with
        no temporary over `block` elements (or one shift's M x L), and
        the single-term lines as M x 1 columns, gives the bits the
        diagonal read of the naive grid gives, whatever the block size."""
        rng = np.random.default_rng(M * L + r)
        C1 = rng.integers(-3 * r, 3 * r, size=(M, L)) % r
        C2 = rng.integers(-3 * r, 3 * r, size=(M, L)) % r
        Z = Zone(*zone)
        w = ambiguity._roots(r)
        u = np.arange(L) + np.arange(-Z.Z_x + 1, Z.Z_x)[:, None]
        inside = (u >= 0) & (u < L)
        cols = np.clip(u, 0, L - 1)
        G = np.empty(cols.shape, dtype=np.complex128)
        step = max(1, block // (M * L))
        for i in range(0, len(cols), step):
            lines = w[C1[:, None, :] - C2[:, cols[i : i + step]]].sum(axis=0)
            G[i : i + step] = np.where(inside[i : i + step], lines, 0)
        for i in np.flatnonzero(inside.sum(axis=1) == 1).tolist():
            t = int(np.flatnonzero(inside[i])[0])
            G[i, t] = w[C1[:, t : t + 1] - C2[:, cols[i, t] : cols[i, t] + 1]].sum(axis=0)[0]
        nus = np.arange(-Z.Z_y + 1, Z.Z_y)
        want = G @ ambiguity._roots(L)[np.outer(np.arange(L), nus) % L]
        got = af_grid(C1, C2, Z, r, method="naive").values
        assert got.tobytes() == want.tobytes()

    def test_zones_differing_in_z_y_share_one_lag_table(self):
        """The lag-line table is keyed by (L, Z_x) alone: both paths over
        two zones that differ only in Z_y build it once, and every grid
        keeps the per-shift and literal references' bits."""
        C1, C2 = _edge_flocks(3, 8, 5)
        ambiguity._lag_lines.cache_clear()
        for zone in (Zone(8, 3), Zone(8, 8)):
            naive = af_grid(C1, C2, zone, 5, method="naive").values
            assert naive.tobytes() == per_shift_grid_naive(C1, C2, zone, 5).tobytes()
            fft = af_grid(C1, C2, zone, 5, method="fft").values
            assert fft.tobytes() == literal_grid_fft(C1, C2, zone, 5).tobytes()
        assert ambiguity._lag_lines.cache_info().misses == 1

    @EDGE_SHAPES
    def test_default_method_is_fft(self, M, L, zone, r):
        C1, C2 = _edge_flocks(M, L, r)
        got = af_grid(C1, C2, Zone(*zone), r).values
        assert got.tobytes() == af_grid(C1, C2, Zone(*zone), r, method="fft").values.tobytes()

    def test_naive_needs_no_fft(self, monkeypatch):
        C1, C2 = _edge_flocks(4, 12, 6)
        want = af_grid(C1, C2, Zone(12, 7), 6, method="naive").values

        def refuse(*args, **kwargs):
            raise AssertionError("the naive grid path called the FFT")

        monkeypatch.setattr(np.fft, "fft", refuse)
        monkeypatch.setattr(np.fft, "ifft", refuse)
        got = af_grid(C1, C2, Zone(12, 7), 6, method="naive").values
        assert np.array_equal(got, want)
        with pytest.raises(AssertionError):
            af_grid(C1, C2, Zone(12, 7), 6, method="fft")

    def test_single_cell_zone(self):
        C = np.array([[0, 1, 2]])
        g = af_grid(C, C, Zone(1, 1), 3, method="naive")
        assert g.values.shape == (1, 1)
        assert g.value(0, 0) == pytest.approx(naive_flock_af(C, C, 3, 0, 0))

    def test_value_indexing(self):
        C = np.array([[0, 1], [1, 0]])
        g = af_grid(C, C, Zone(2, 2), 2, method="naive")
        assert g.values.shape == (3, 3)
        for tau in (-1, 0, 1):
            for nu in (-1, 0, 1):
                assert g.value(tau, nu) == pytest.approx(
                    naive_flock_af(C.tolist(), C.tolist(), 2, tau, nu)
                )
        # one step past each edge of the zone, on both axes and both signs:
        # refused, not wrapped round to the other edge or an IndexError
        for tau, nu in ((-2, 0), (2, 0), (0, -2), (0, 2), (-2, 2), (5, -5)):
            with pytest.raises(ParamsOutOfRangeError):
                g.value(tau, nu)

    def test_magnitude(self):
        C = np.array([[0, 1]])
        g = af_grid(C, C, Zone(2, 2), 2, method="naive")
        assert np.allclose(g.magnitude(), np.abs(g.values))

    @pytest.mark.parametrize("method", ["naive", "fft"])
    def test_cap_refuses_before_allocating(self, method):
        C = np.zeros((1, 3), dtype=np.int64)
        # (2 Z_x - 1) x max(L, 2 Z_y - 1) = (2^22 + 1) x 3 cells
        with pytest.raises(ParamsOutOfRangeError):
            af_grid(C, C, Zone(2 ** 21 + 1, 2), 2, method=method)
        with pytest.raises(ParamsOutOfRangeError):
            af_grid(np.zeros((1, 2049), dtype=np.int64), np.zeros((1, 2049), dtype=np.int64),
                    Zone(1, 1), 2, method=method)

    @pytest.mark.parametrize("method", ["naive", "fft"])
    def test_cap_admits_the_n304_shape(self, method):
        # the N=304 set (K=16, L=285), the longest the benchmark builds, over its full zone
        assert 569 * 569 <= GRID_CAP
        C1, C2 = _edge_flocks(1, 285, 4)
        g = af_grid(C1, C2, Zone(285, 285), 4, method=method)
        assert g.values.shape == (569, 569)

    def test_root_table_over_cap(self):
        C = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(ParamsOutOfRangeError):
            af_grid(C, C, Zone(1, 1), GRID_CAP + 1, method="fft")
        with pytest.raises(ParamsOutOfRangeError):
            af_pair([0, 1], [1, 0], GRID_CAP + 1, 0, 1)


class TestThetaMax:
    def test_toy_flock_is_perfect(self, toy_set):
        rep = theta_max(toy_set)
        assert rep.theta_a == pytest.approx(0.0, abs=1e-12)
        assert rep.theta_c is None  # single flock, no cross pairs
        assert rep.theta_max == rep.theta_a
        assert rep.witness_a is not None

    def test_toy_grid_values(self, toy_set):
        C = toy_set.flock(0)
        g = af_grid(C, C, Zone(2, 2), 2, method="naive", pair=(0, 0))
        assert g.value(0, 0) == pytest.approx(4.0)
        for tau in (-1, 0, 1):
            for nu in (-1, 0, 1):
                if (tau, nu) != (0, 0):
                    assert abs(g.value(tau, nu)) < 1e-12

    def test_degenerate_zone_gives_none(self, toy_set):
        rep = theta_max(toy_set, zone=Zone(1, 1))
        assert rep.theta_a is None and rep.theta_c is None
        assert rep.theta_max is None

    def test_methods_agree(self, set63):
        full_zone = Zone(56, 56)
        rep_n = theta_max(set63, zone=full_zone, method="naive")
        rep_f = theta_max(set63, zone=full_zone, method="fft")
        assert rep_n.theta_a == pytest.approx(rep_f.theta_a, abs=1e-9)
        assert rep_n.theta_c == pytest.approx(rep_f.theta_c, abs=1e-9)
        # the max is attained at many cells; ties within the float error
        # bound go to the lex-first cell, so both methods name the same one
        for key in ("witness_a", "witness_c"):
            wn, wf = getattr(rep_n, key), getattr(rep_f, key)
            assert wn.pop("abs") == pytest.approx(wf.pop("abs"), abs=1e-9)
            assert wn == wf
        assert rep_f.witness_c["pair"] == [0, 1]

    @pytest.mark.parametrize("method", ["fft", "naive"])
    def test_a_near_tie_is_not_a_tie(self, method):
        """The lex-earlier auto cell (pair 0, tau -1, nu 0) lies 7.3e-4 below
        the peak: a tie tolerance as loose as 1e-3 would name it, while
        64*M*L*eps names the peak's cell, as the definition's scan does."""
        S = DrcsSet(np.array([[[22, 198, 261]], [[194, 468, 188]]]), 1000)
        witness = theta_max(S, method=method).witness_a
        assert witness.pop("abs") == pytest.approx(1.87602, abs=1e-5)
        assert witness == {"pair": [1, 1], "tau": -1, "nu": -1}
        cells = [(abs(naive_flock_af(S.flock(k), S.flock(k), S.r, tau, nu)), k, tau, nu)
                 for k in range(S.K) for tau, nu in _lattice(S.zone) if (tau, nu) != (0, 0)]
        peak = max(c[0] for c in cells)
        tol = 64 * S.M * S.L * np.finfo(float).eps
        assert next(c for c in cells if c[0] >= peak - tol)[1:] == (1, -1, -1)
        near = next(c for c in cells if c[1:] == (0, -1, 0))
        assert peak - near[0] == pytest.approx(7.3e-4, abs=1e-5)

    def test_report_json(self, toy_set):
        rep = theta_max(toy_set)
        obj = rep.to_json()
        assert set(obj) >= {"theta_a", "theta_c", "theta_max", "zone", "method"}

    @pytest.mark.parametrize("zone", [(2, 3), (3, 2)])
    def test_zone_past_length_refused(self, toy_set, zone):
        # nu = +-L is the Doppler alias of nu = 0: the scan would report the origin
        with pytest.raises(ParamsOutOfRangeError):
            theta_max(toy_set, zone=Zone(*zone))


def literal_scan(grids, zone, tol, skip_origin):
    """_scan's contract, cell by cell: the peak magnitude and the first
    cell in (pair, tau, nu) order within tol of it."""
    cells = []
    for g in grids:
        mags = g.magnitude()
        for ti in range(2 * zone.Z_x - 1):
            for ni in range(2 * zone.Z_y - 1):
                if skip_origin and (ti, ni) == (zone.Z_x - 1, zone.Z_y - 1):
                    continue
                cells.append((float(mags[ti, ni]), g.pair,
                              ti - zone.Z_x + 1, ni - zone.Z_y + 1))
    if not cells:
        return None, None
    peak = max(c[0] for c in cells)
    mag, pair, tau, nu = next(c for c in cells if c[0] >= peak - tol)
    return peak, {"pair": list(pair), "tau": tau, "nu": nu, "abs": mag}


@st.composite
def scan_cases(draw):
    """Grids of real magnitudes drawn from a few levels, so later grids
    often tie the running peak exactly or within tol of it."""
    zone = Zone(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    tol = draw(st.sampled_from([0.0, 1e-9, 0.25]))
    levels = [0.0, 1.0, 2.0, 2.0 - tol / 2, 2.0 + tol / 2, 2.0 - tol, 2.0 + tol, 3.0 - tol]
    cell = st.sampled_from(levels) | st.floats(0, 4)
    shape = (2 * zone.Z_x - 1, 2 * zone.Z_y - 1)
    grids = []
    for k in range(draw(st.integers(1, 5))):
        mags = draw(st.lists(cell, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
        grids.append(AfGrid(np.reshape(mags, shape), zone, 4, pair=(k, k + 1)))
    return grids, zone, tol


class TestScan:
    @given(scan_cases(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_literal_search(self, case, skip_origin):
        grids, zone, tol = case
        assert _scan(iter(grids), zone, tol, skip_origin) == literal_scan(
            grids, zone, tol, skip_origin)

    def test_tie_with_running_peak_keeps_first_witness(self):
        zone = Zone(1, 2)
        first = AfGrid([[1.0, 2.0, 0.0]], zone, 4, pair=(0, 1))
        tie = AfGrid([[2.0, 0.0, 2.0]], zone, 4, pair=(0, 2))
        near = AfGrid([[2.0 + 1e-12, 0.0, 0.0]], zone, 4, pair=(0, 3))
        peak, wit = _scan(iter([first, tie, near]), zone, 1e-9, False)
        assert peak == 2.0 + 1e-12
        assert wit == {"pair": [0, 1], "tau": 0, "nu": 0, "abs": 2.0}


def literal_cells_csv(grid):
    """The cells writer as it was first written, one cell at a time: the
    reference the block writer must match byte for byte."""
    out = ["tau,nu,re,im,abs\n"]
    for tau in range(-grid.zone.Z_x + 1, grid.zone.Z_x):
        for nu in range(-grid.zone.Z_y + 1, grid.zone.Z_y):
            v = grid.value(tau, nu)
            out.append("%d,%d,%.17g,%.17g,%.17g\n" % (tau, nu, v.real, v.imag, abs(v)))
    return "".join(out)


def literal_magnitude_csv(grid):
    """The magnitude-matrix writer, one row and one value at a time."""
    mags = grid.magnitude()
    out = []
    for ni in range(2 * grid.zone.Z_y - 2, -1, -1):
        out.append(",".join("%.17g" % m for m in mags[:, ni]))
        out.append("\n")
    return "".join(out)


def _written(writer, grid):
    buf = io.StringIO()
    writer(grid, buf)
    return buf.getvalue()


def _bits(*words):
    return np.array(words, dtype=np.uint64).view(np.float64).tolist()


# every special a float part can hold: signed zeros, infinities, NaNs with
# their sign and payload, subnormals, and the extremes
SPECIAL_PARTS = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
                 1.7976931348623157e308, 1.0, -1.0, 0.1, 160.00000000000003] + _bits(
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001)


def _abs_disagreements():
    """Complex values whose np.abs and abs() differ in the last bit."""
    rng = np.random.default_rng(5)
    z = rng.normal(size=4000) + 1j * rng.normal(size=4000)
    z = z * 10.0 ** rng.integers(-5, 5, size=4000)
    return [complex(v) for v in z if float(np.abs(v)) != abs(complex(v))][:16]


ABS_DISAGREE = _abs_disagreements()


@st.composite
def drawn_grids(draw):
    zone = Zone(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    n = (2 * zone.Z_x - 1) * (2 * zone.Z_y - 1)
    part = st.sampled_from(SPECIAL_PARTS) | st.floats(width=64)
    value = st.builds(complex, part, part) | st.sampled_from(ABS_DISAGREE)
    values = draw(st.lists(value, min_size=n, max_size=n))
    shape = (2 * zone.Z_x - 1, 2 * zone.Z_y - 1)
    return AfGrid(np.array(values, dtype=np.complex128).reshape(shape), zone, 3)


def _g17(values, chunk=ambiguity._BLOCK_CELLS):
    return _g17_module.format_g17(np.array(values, dtype=np.float64), chunk).tolist()


def _percent_g17(values):
    return [b"%.17g" % v for v in np.array(values, dtype=np.float64).tolist()]


def _ulps(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


# values the kernel's error bound must hand to "%.17g", or must not get
# wrong at the edge of its layouts and tables
G17_EDGES = (
    [0.0, -0.0, math.inf, -math.inf]
    + _bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
            0xFFF0000000000001, 0x7FFFFFFFFFFFFFFF)
    + [5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
       np.nextafter(2.2250738585072014e-308, 0), 1.7976931348623157e308,
       -1.7976931348623157e308]
    + [u * s for v in (1e-5, 1e-4, 1e16, 1e17) for u in _ulps(v) for s in (1, -1)]
    # exact 17-digit ties, which "%.17g" rounds to even
    + [1000000000000000.25, 1000000000000000.75, 100000000000000.125,
       100000000000000.375, 1.00000762939453125, -1000000000000000.25]
)


class TestG17Kernel:
    @pytest.mark.parametrize("chunk", [1, 7, ambiguity._BLOCK_CELLS])
    def test_edge_list(self, chunk):
        assert _g17(G17_EDGES, chunk) == _percent_g17(G17_EDGES)

    def test_ties_round_to_even(self):
        assert _g17([1000000000000000.25, 1000000000000000.75]) == [
            b"1000000000000000.2", b"1000000000000000.8"]

    def test_every_table_power_of_ten(self):
        """Every power of ten the _pow10 table can be asked for, +-1 ulp,
        in both signs: the edges of each decimal exponent."""
        tens = [u for X in range(-308, 309) for u in _ulps(float("1e%d" % X))]
        values = tens + [-v for v in tens]
        assert _g17(values) == _percent_g17(values)

    @given(st.lists(st.integers(0, (1 << 64) - 1), max_size=50), st.sampled_from([1, 7]))
    @settings(max_examples=200, deadline=None)
    def test_raw_bit_patterns(self, words, chunk):
        values = np.array(words, dtype=np.uint64).view(np.float64)
        assert _g17(values, chunk) == _percent_g17(values)

    @given(st.lists(st.floats(width=64), max_size=50), st.sampled_from([1, 7]))
    @settings(max_examples=200, deadline=None)
    def test_floats(self, values, chunk):
        assert _g17(values, chunk) == _percent_g17(values)

    @given(st.lists(st.tuples(st.floats(1e-40, 1e20), st.booleans()), max_size=50),
           st.sampled_from([1, 7]))
    @settings(max_examples=200, deadline=None)
    def test_magnitudes_from_1e_minus_40_to_1e20(self, drawn, chunk):
        values = [-v if neg else v for v, neg in drawn]
        assert _g17(values, chunk) == _percent_g17(values)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(17)
        values = rng.integers(0, 1 << 64, size=20000, dtype=np.uint64).view(np.float64)
        assert _g17(values) == _percent_g17(values)


@pytest.fixture(scope="module")
def set160():
    """eval-long's set, unrelabelled: K=9, M=160, L=135, zone 135."""
    rect = product_construct(build_circular_quasi_florentine(2, 4),
                             build_extended_quasi_florentine(3, 2))
    return build_drcs(rect, dft_matrix(160))


class _Discard:
    def write(self, text):
        pass


class TestWriters:
    @pytest.mark.parametrize("writer", [write_cells_csv, write_magnitude_csv])
    @pytest.mark.parametrize("pair", [(0, 1), (0, 0)])
    def test_memory_on_a_269_by_269_grid(self, set160, writer, pair):
        """A byte table per distinct value plus one block: under 8 MB for
        eval-long's grids, whose CSVs run to 5 MB."""
        g = af_grid(set160.flock(pair[0]), set160.flock(pair[1]), set160.zone, set160.r, "fft")
        assert g.values.shape == (269, 269)
        writer(g, _Discard())  # tables built and the kernel imported
        tracemalloc.start()
        try:
            writer(g, _Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_csv_matches_literal_on_eval_long_grids(self, set160):
        for k1, k2 in ((0, 1), (0, 0)):
            g = af_grid(set160.flock(k1), set160.flock(k2), set160.zone, set160.r, "fft")
            assert _written(write_cells_csv, g) == literal_cells_csv(g)
            assert _written(write_magnitude_csv, g) == literal_magnitude_csv(g)

    def test_abs_disagreements_exist(self):
        # the cells writer must keep Python's abs(); these values tell them apart
        assert len(ABS_DISAGREE) >= 8

    @EDGE_SHAPES
    @pytest.mark.parametrize("method", ["naive", "fft"])
    def test_csv_matches_literal_on_edge_shapes(self, M, L, zone, r, method):
        C1, C2 = _edge_flocks(M, L, r)
        g = af_grid(C1, C2, Zone(*zone), r, method=method)
        assert _written(write_cells_csv, g) == literal_cells_csv(g)
        assert _written(write_magnitude_csv, g) == literal_magnitude_csv(g)

    def test_csv_matches_literal_over_many_blocks(self, set63):
        for k1, k2 in ((0, 0), (0, 1)):
            g = af_grid(set63.flock(k1), set63.flock(k2), set63.zone, set63.r, method="fft")
            assert g.values.size > 2 * ambiguity._BLOCK_CELLS
            assert _written(write_cells_csv, g) == literal_cells_csv(g)
            assert _written(write_magnitude_csv, g) == literal_magnitude_csv(g)

    @given(drawn_grids(), st.sampled_from([1, 2, 5, 9, 1 << 11]))
    @settings(max_examples=200, deadline=None)
    def test_csv_matches_literal_on_drawn_grids(self, grid, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ambiguity, "_BLOCK_CELLS", block)
            try:
                want = literal_cells_csv(grid)
            except OverflowError:  # abs() of a value past the float range
                with pytest.raises(OverflowError):
                    _written(write_cells_csv, grid)
            else:
                assert _written(write_cells_csv, grid) == want
            assert _written(write_magnitude_csv, grid) == literal_magnitude_csv(grid)

    def _grid(self):
        C = np.array([[0, 1, 1]])
        return af_grid(C, C, Zone(3, 3), 2, method="naive")

    def test_cells_csv(self):
        buf = io.StringIO()
        write_cells_csv(self._grid(), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "tau,nu,re,im,abs"
        assert len(lines) == 1 + 5 * 5

    def test_magnitude_csv(self):
        buf = io.StringIO()
        write_magnitude_csv(self._grid(), buf)
        rows = buf.getvalue().strip().splitlines()
        assert len(rows) == 5
        assert all(len(r.split(",")) == 5 for r in rows)

    def test_pgm(self):
        buf = io.BytesIO()
        write_pgm(self._grid(), buf)
        data = buf.getvalue()
        assert data.startswith(b"P5\n5 5\n65535\n")
        assert len(data) == len(b"P5\n5 5\n65535\n") + 2 * 25

    def test_pgm_all_zero(self):
        g = AfGrid(np.zeros((3, 3), dtype=complex), Zone(2, 2), 5)
        buf = io.BytesIO()
        write_pgm(g, buf)
        body = buf.getvalue().split(b"65535\n", 1)[1]
        assert body == bytes(2 * 9)
