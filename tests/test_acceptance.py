"""Acceptance gate: one test per numbered criterion, each printing a
pass/fail line in the terminal summary (see conftest). Tolerances and
runtime budgets are baked into the assertions."""

import importlib.resources
import json
import os
import time

import numpy as np

from drcs_forge.ambiguity import af_grid, af_pair, theta_max
from drcs_forge.bounds import af_lower_bound, optimality_factor
from drcs_forge.cli import main as cli_main
from drcs_forge.drcs import build_drcs
from drcs_forge.hadamard import dft_matrix, kronecker, load_seed, verify_bh
from drcs_forge.oracles import (
    CATALOGS,
    check_table_row,
    definition_literal_c2,
    naive_af,
    recompute_table_row,
)
from drcs_forge.rectangles import (
    load_fixture,
    Rectangle,
    build_circular_florentine,
    build_circular_quasi_florentine,
    build_extended_quasi_florentine,
    product_construct,
    truncate_columns,
    verify_c1,
    verify_c2,
)

PRINTED_A7 = [
    [0, 1, 2, 3, 4, 5, 6],
    [0, 2, 4, 6, 1, 3, 5],
    [0, 3, 6, 2, 5, 1, 4],
    [0, 4, 1, 5, 2, 6, 3],
    [0, 5, 3, 1, 6, 4, 2],
    [0, 6, 5, 4, 3, 2, 1],
]

PRIME_POWERS_TO_64 = [
    (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
    (3, 1), (3, 2), (3, 3),
    (5, 1), (5, 2),
    (7, 1), (7, 2),
    (11, 1), (13, 1), (17, 1), (19, 1), (23, 1), (29, 1), (31, 1),
    (37, 1), (41, 1), (43, 1), (47, 1), (53, 1), (59, 1), (61, 1),
]


def _printed_product_rows():
    here = os.path.dirname(__file__)
    with open(os.path.join(here, "data", "product_z63_6x56.json")) as fh:
        return json.load(fh)["rows"]


# the packaged BH(21, 3) seed; criterion 5 fails without it
BH21_SEED = str(importlib.resources.files("drcs_forge") / "data" / "seeds" / "bh21_3.json")


def _grid_assertions_63(S):
    """The desk-scale exhaustive check shared by criteria 3 and 5:
    every ordered flock pair over the full zone."""
    M = S.M
    center = (S.L - 1, S.L - 1)  # grid row/col of (tau, nu) = (0, 0)
    for k1 in range(S.K):
        for k2 in range(S.K):
            g = af_grid(S.flock(k1), S.flock(k2), S.zone, S.r, method="fft")
            mags = np.abs(g.values)
            if k1 == k2:
                assert abs(g.values[center] - M * S.L) <= 1e-6
                off = mags.copy()
                off[center] = 0.0
                assert off.max() <= 1e-6
            else:
                dev = np.minimum(mags, np.abs(mags - M))
                assert dev.max() <= 1e-6


def test_criterion_1(tmp_path, capsys, rect_b9):
    start = time.perf_counter()
    a_path = str(tmp_path / "a7.json")
    assert cli_main(["rect", "circular-florentine", "7", "--out", a_path]) == 0
    with open(a_path) as fh:
        assert json.load(fh)["rows"] == PRINTED_A7

    b_path = str(tmp_path / "b9.json")
    with open(b_path, "w") as fh:
        json.dump(rect_b9.to_json(), fh)
    d_path = str(tmp_path / "d63.json")
    assert cli_main(["rect", "product", a_path, b_path, "--out", d_path]) == 0
    with open(d_path) as fh:
        got = json.load(fh)
    assert got["N"] == 63
    assert got["rows"] == _printed_product_rows()
    capsys.readouterr()
    assert time.perf_counter() - start < 1.0


def test_criterion_2(tmp_path, capsys, rect_a8):
    start = time.perf_counter()
    assert verify_c1(rect_a8)
    assert verify_c2(rect_a8, circular=False)
    assert definition_literal_c2(rect_a8.rows.tolist(), 8)

    path = str(tmp_path / "a8.json")
    with open(path, "w") as fh:
        json.dump(rect_a8.to_json(), fh)
    assert cli_main(["rect", "verify", path]) == 0
    capsys.readouterr()
    assert time.perf_counter() - start < 1.0


def test_criterion_3(set63):
    start = time.perf_counter()
    assert (set63.K, set63.M, set63.L) == (6, 63, 56)
    _grid_assertions_63(set63)
    rep = theta_max(set63, method="fft")
    assert abs(rep.theta_max - 63.0) <= 1e-6
    assert time.perf_counter() - start < 60.0


def test_criterion_4():
    start = time.perf_counter()
    for name, catalog in CATALOGS.items():
        for idx in range(len(catalog)):
            check_table_row(name, idx, tol=5e-5)
    spot = [
        ("small_alphabet", 0, 1.5000),
        ("prime_product", 1, 1.3788),
        ("prime_power_product", 0, 1.4283),
        ("prime_power_product", 9, 1.0662),
    ]
    for name, idx, want in spot:
        _, rho = recompute_table_row(name, idx)
        assert abs(rho - want) <= 5e-5
    assert time.perf_counter() - start < 1.0


def test_criterion_5(rect_d63):
    B21 = load_seed(BH21_SEED)
    assert (B21.N, B21.r) == (21, 3)
    assert verify_bh(B21)
    B63 = kronecker(dft_matrix(3), B21)
    assert (B63.N, B63.r) == (63, 3)
    assert verify_bh(B63)

    S = build_drcs(rect_d63, B63)
    assert S.r == 3
    _grid_assertions_63(S)
    rep = theta_max(S, method="fft")
    assert abs(rep.theta_max - 63.0) <= 1e-6


def test_criterion_6():
    start = time.perf_counter()
    circular_outputs = []
    for N in range(2, 31):
        circular_outputs.append(build_circular_florentine(N))
    for p, n in PRIME_POWERS_TO_64:
        circular_outputs.append(build_circular_quasi_florentine(p, n))
    for R in circular_outputs:
        assert verify_c1(R)
        assert verify_c2(R, circular=True)
        for k in range(1, R.ncols - 1):
            for side in ("right", "left"):
                T = truncate_columns(R, k, side)
                assert verify_c2(T, circular=False)

    extended = [build_extended_quasi_florentine(p, n)
                for p, n in ((2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (5, 1))]
    for R in extended:
        assert verify_c2(R, circular=False)

    lefts = [build_circular_florentine(N) for N in (3, 5, 7, 9)]
    lefts += [build_circular_quasi_florentine(*pn) for pn in ((2, 2), (3, 1))]
    rights = lefts + extended[:2]
    pairs = 0
    for A in lefts:
        for B in rights:
            D = product_construct(A, B)
            assert verify_c1(D)
            assert verify_c2(D, circular=False)
            pairs += 1
    assert pairs >= 20
    assert time.perf_counter() - start < 120.0


def test_criterion_7(set63):
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        r = int(rng.integers(2, 9))
        L = int(rng.integers(1, 12))
        a = rng.integers(0, r, size=L).tolist()
        b = rng.integers(0, r, size=L).tolist()
        tau = int(rng.integers(-L - 1, L + 2))
        nu = int(rng.integers(-L, L + 1))
        fast = af_pair(a, b, r, tau, nu)
        slow = naive_af(a, b, r, tau, nu)
        assert abs(fast - slow) <= 1e-9 * L

    for name in ("gqfr_z8_8x6", "qfr_z9_8x8"):
        R = load_fixture(name)
        for circ in (False, True):
            assert verify_c2(R, circular=circ) == definition_literal_c2(
                R.rows.tolist(), R.N, circular=circ
            )
    for _ in range(500):
        nrows = int(rng.integers(1, 5))
        ncols = int(rng.integers(1, 7))
        rows = [rng.permutation(6)[:ncols].tolist() for _ in range(nrows)]
        R = Rectangle(6, rows)
        for circ in (False, True):
            assert verify_c2(R, circular=circ) == definition_literal_c2(
                rows, 6, circular=circ
            )

    g_fft = af_grid(set63.flock(0), set63.flock(1), set63.zone, set63.r, "fft")
    g_naive = af_grid(set63.flock(0), set63.flock(1), set63.zone, set63.r, "naive")
    dev = np.max(np.abs(g_fft.values - g_naive.values))
    assert dev <= 1e-7 * set63.M * set63.L


def test_criterion_8(set63, rect_d63):
    candidates = [set63]
    candidates.append(build_drcs(build_circular_quasi_florentine(3, 2), dft_matrix(9)))
    candidates.append(build_drcs(load_fixture("gqfr_z8_8x6"), dft_matrix(8)))
    candidates.append(build_drcs(rect_d63, kronecker(dft_matrix(3), load_seed(BH21_SEED))))

    checked = 0
    for S in candidates:
        flags = af_lower_bound(S.K, S.M, S.L, S.zone.Z_y, S.zone.Z_x)
        if not flags["feasible"]:
            continue
        rep = optimality_factor(S, theta_max(S, method="fft"))
        assert rep.theta >= rep.bound - 1e-6
        assert rep.rho >= 1.0 - 1e-9
        checked += 1
    assert checked >= 3
