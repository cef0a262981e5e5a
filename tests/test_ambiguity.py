import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drcs_forge.ambiguity import (
    AfGrid,
    af_flock,
    af_grid,
    af_pair,
    theta_max,
    write_cells_csv,
    write_magnitude_csv,
    write_pgm,
)
from drcs_forge.drcs import Zone, build_drcs
from drcs_forge.errors import LengthMismatchError, ShapeMismatchError
from drcs_forge.hadamard import walsh_hadamard
from drcs_forge.oracles import naive_af, naive_correlation, naive_flock_af
from drcs_forge.rectangles import Rectangle


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


class TestFlockEvaluator:
    def test_matches_naive(self, rng_flocks=None):
        rng = np.random.default_rng(7)
        C = rng.integers(0, 5, size=(3, 6))
        D = rng.integers(0, 5, size=(3, 6))
        for tau in (-5, -2, 0, 1, 4):
            for nu in (-3, 0, 2):
                got = af_flock(C, D, tau, nu, 5)
                want = naive_flock_af(C, D, 5, tau, nu)
                assert abs(got - want) <= 1e-9 * C.size

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            af_flock(np.zeros((2, 3), int), np.zeros((3, 3), int), 0, 0, 2)


class TestGrid:
    # (M, L, (Z_x, Z_y), r): edge shapes of the fft path's diagonal gather
    @pytest.mark.parametrize("M, L, zone, r", [
        (2, 7, (7, 5), 4),
        (3, 8, (3, 8), 5),
        (2, 9, (4, 4), 3),
        (2, 6, (1, 1), 4),
        (3, 1, (1, 1), 2),
        (1, 10, (10, 10), 3),
        (4, 12, (12, 7), 6),
        (2, 4, (6, 6), 3),
    ], ids=["base", "zx_ne_zy", "zx_lt_L", "zone_1", "L_1", "M_1", "r_6", "zone_past_L"])
    def test_naive_equals_fft(self, M, L, zone, r):
        rng = np.random.default_rng(11)
        C1 = rng.integers(0, r, size=(M, L))
        C2 = rng.integers(0, r, size=(M, L))
        g1 = af_grid(C1, C2, Zone(*zone), r, method="naive")
        g2 = af_grid(C1, C2, Zone(*zone), r, method="fft")
        assert g2.values.shape == (2 * zone[0] - 1, 2 * zone[1] - 1)
        assert np.allclose(g1.values, g2.values, atol=1e-9)

    def test_single_cell_zone(self):
        C = np.array([[0, 1, 2]])
        g = af_grid(C, C, Zone(1, 1), 3, method="naive")
        assert g.values.shape == (1, 1)
        assert g.value(0, 0) == pytest.approx(af_flock(C, C, 0, 0, 3))

    def test_value_indexing(self):
        C = np.array([[0, 1], [1, 0]])
        g = af_grid(C, C, Zone(2, 2), 2, method="naive")
        assert g.values.shape == (3, 3)
        for tau in (-1, 0, 1):
            for nu in (-1, 0, 1):
                assert g.value(tau, nu) == pytest.approx(
                    af_flock(C, C, tau, nu, 2)
                )

    def test_magnitude(self):
        C = np.array([[0, 1]])
        g = af_grid(C, C, Zone(2, 2), 2, method="naive")
        assert np.allclose(g.magnitude(), np.abs(g.values))


class TestThetaMax:
    def test_toy_flock_is_perfect(self, toy_set):
        rep = theta_max(toy_set)
        assert rep.theta_a == pytest.approx(0.0, abs=1e-12)
        assert rep.theta_c is None  # single flock, no cross pairs
        assert rep.theta_max == rep.theta_a
        assert rep.witness_a is not None

    def test_toy_grid_values(self, toy_set):
        C = toy_set.flock(0)
        g = af_grid(C, C, Zone(2, 2), 2, method="naive", kind="auto", pair=(0, 0))
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
        small_zone = Zone(4, 4)
        rep_n = theta_max(set63, zone=small_zone, method="naive")
        rep_f = theta_max(set63, zone=small_zone, method="fft")
        assert rep_n.theta_a == pytest.approx(rep_f.theta_a, abs=1e-9)
        assert rep_n.theta_c == pytest.approx(rep_f.theta_c, abs=1e-9)
        # the max is attained at many cells; ties within the float error
        # bound go to the lex-first cell, so both methods name the same one
        for key in ("witness_a", "witness_c"):
            wn, wf = getattr(rep_n, key), getattr(rep_f, key)
            assert wn.pop("abs") == pytest.approx(wf.pop("abs"), abs=1e-9)
            assert wn == wf
        assert rep_f.witness_c["pair"] == [0, 1]

    def test_report_json(self, toy_set):
        rep = theta_max(toy_set)
        obj = rep.to_json()
        assert set(obj) >= {"theta_a", "theta_c", "theta_max", "zone", "method"}


class TestWriters:
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
