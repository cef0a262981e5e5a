"""The benchmark's workloads: fixed CLI step lists over seeded inputs.

A workload writes its input files into ``in_dir`` from a seed and
returns the steps of one pass. Steps run with the pass directory as the
working directory, so inputs are named ``../in/<file>`` and outputs by
bare file name. Every path the program sees, including the paths it
records in provenance, is then the same in every pass, and the outputs
of one seed are byte-identical across passes.

The seed reaches the program only through the input files. It picks
transforms that keep every checked result exact. Rectangles get a
symbol relabelling and a row permutation; C1 and C2 are invariant under
both. Butson tables get a monomial transform: row and column
permutations plus per-row and per-column offsets mod r, which keep
H H* = N I. A set built from such inputs still has theta_a = 0 off the
origin and theta_c = M, so the expected results hold for every seed.
"""

import json
import os

import numpy as np

import drcs_forge
from drcs_forge.drcs import build_drcs, export_drcs
from drcs_forge.hadamard import PhaseMatrix, dft_matrix
from drcs_forge.rectangles import (
    Rectangle,
    build_circular_florentine,
    build_circular_quasi_florentine,
    build_extended_quasi_florentine,
    load_fixture,
    product_construct,
)

IN = "../in/"
BH21 = os.path.join(os.path.dirname(drcs_forge.__file__), "data", "seeds", "bh21_3.json")


class Step:
    """One CLI invocation, the file it writes, and what that file must show.

    kind is one of: eval, paranoid, grid, build (drcs build), rect_build,
    rect_verify, bh_build, bh_verify.
    """

    def __init__(self, kind, argv, out, **expect):
        self.kind = kind
        self.argv = argv
        self.out = out
        self.expect = expect


def relabel(R, rng):
    """Symbol relabelling plus row permutation of a rectangle."""
    perm = rng.permutation(R.N)
    rows = perm[R.rows][rng.permutation(R.nrows)]
    return Rectangle(R.N, rows, {"builder": "relabel", "base": R.provenance})


def monomial(B, rng):
    """Row/column permutation plus per-row/per-column offsets mod r."""
    N, r = B.N, B.r
    E = B.exps[rng.permutation(N)][:, rng.permutation(N)]
    E = (E + rng.integers(0, r, N)[:, None] + rng.integers(0, r, N)[None, :]) % r
    return PhaseMatrix(N, r, E, {"builder": "monomial", "base": B.provenance})


def load_bh21():
    with open(BH21) as fh:
        return PhaseMatrix.from_json(json.load(fh))


def _write(obj, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj.to_json(), sort_keys=True, indent=1) + "\n")


# --- eval workloads ---

def eval_inputs(in_dir, rng, rect, N):
    """Write set.json from a relabelled rectangle and a monomial DFT(N)."""
    S = build_drcs(relabel(rect, rng), monomial(dft_matrix(N), rng))
    export_drcs(S, os.path.join(in_dir, "set.json"))


def eval_many(in_dir, seed, p=2, n=4):
    """rect circular-qfr p n with bh dft p^n; plain eval, then fft --paranoid."""
    rng = np.random.default_rng(seed)
    q = p ** n
    eval_inputs(in_dir, rng, build_circular_quasi_florentine(p, n), q)
    expect = dict(K=q, M=q, L=q - 1, zone=q - 1)
    return [
        Step("eval", ["drcs", "eval", IN + "set.json", "--out", "eval.json"], "eval.json",
             **expect),
        Step("paranoid", ["drcs", "eval", IN + "set.json", "--method", "fft", "--paranoid",
                          "--out", "paranoid.json"], "paranoid.json", **expect),
    ]


def eval_long(in_dir, seed):
    """The N=160 catalog row: eval, then three grid exports."""
    rng = np.random.default_rng(seed)
    rect = product_construct(build_circular_quasi_florentine(2, 4),
                             build_extended_quasi_florentine(3, 2))
    eval_inputs(in_dir, rng, rect, 160)
    expect = dict(K=9, M=160, L=135, zone=135)
    grid = ["drcs", "grid", IN + "set.json", "--pair"]
    return [
        Step("eval", ["drcs", "eval", IN + "set.json", "--out", "eval.json"], "eval.json",
             **expect),
        Step("grid", grid + ["0", "1", "--out", "cells01.csv"], "cells01.csv",
             format="cells", zone=135),
        Step("grid", grid + ["0", "0", "--matrix", "--out", "mag00.csv"], "mag00.csv",
             format="matrix", zone=135),
        Step("grid", grid + ["0", "1", "--out", "heat01.pgm"], "heat01.pgm",
             format="pgm", zone=135),
    ]


# --- construct ---

class Rung:
    """One construction: left factor builder, right factor, Butson recipe.

    The left factor comes from its builder step. The right factor is a
    seeded relabelling of what its builder (or packaged fixture) gives;
    the builder step still runs. A "kron" recipe multiplies the built
    dft3 by seeded monomial copies of the listed tables.
    """

    def __init__(self, name, left, left_shape, right, right_shape, bh, sizes):
        self.name = name
        self.left = left                # rect builder argv
        self.left_shape = left_shape    # (N, rows, cols)
        self.right = right              # rect builder argv, or a fixture name
        self.right_shape = right_shape
        self.bh = bh                    # ("dft", N) or ("kron", [table names])
        self.sizes = sizes              # dict K, M, L of the built set


RUNGS = (
    Rung("d63", ["circular-florentine", "7"], (7, 6, 7), "qfr_z9_8x8", (9, 8, 8),
         ("kron", ["bh21"]), dict(K=6, M=63, L=56)),
    Rung("n160", ["circular-qfr", "2", "4"], (16, 16, 15), ["extended-qfr", "3", "2"],
         (10, 9, 9), ("dft", 160), dict(K=9, M=160, L=135)),
    Rung("f189", ["circular-florentine", "7"], (7, 6, 7), ["circular-qfr", "3", "3"],
         (27, 27, 26), ("kron", ["dft3", "bh21"]), dict(K=6, M=189, L=182)),
    Rung("f304", ["circular-florentine", "19"], (19, 18, 19), ["circular-qfr", "2", "4"],
         (16, 16, 15), ("dft", 304), dict(K=16, M=304, L=285)),
)

RECT_BUILDERS = {
    "circular-florentine": build_circular_florentine,
    "circular-qfr": build_circular_quasi_florentine,
    "extended-qfr": build_extended_quasi_florentine,
}


def _built(argv):
    return RECT_BUILDERS[argv[0]](*(int(a) for a in argv[1:]))


def rung_steps(rung, in_dir, rng):
    """Write the rung's seeded inputs and return its steps."""
    r = rung.name
    if isinstance(rung.right, str):
        right = load_fixture(rung.right)
    else:
        right = _built(rung.right)
    _write(relabel(right, rng), os.path.join(in_dir, r + "_right.json"))

    def shape(s):
        return dict(N=s[0], rows=s[1], cols=s[2])

    left, rect, bh = r + "_left.json", r + "_rect.json", r + "_bh.json"
    steps = [Step("rect_build", ["rect"] + rung.left + ["--out", left], left,
                  **shape(rung.left_shape))]
    if not isinstance(rung.right, str):
        built = r + "_right_built.json"
        steps.append(Step("rect_build", ["rect"] + rung.right + ["--out", built], built,
                          **shape(rung.right_shape)))
    lN, lrows, lcols = rung.left_shape
    rN, rrows, rcols = rung.right_shape
    steps += [
        Step("rect_verify", ["rect", "verify", left, "--circular", "--out", r + "_left_v.json"],
             r + "_left_v.json", circular=True),
        Step("rect_build", ["rect", "product", left, IN + r + "_right.json", "--out", rect],
             rect, N=lN * rN, rows=min(lrows, rrows), cols=lcols * rcols),
        Step("rect_verify", ["rect", "verify", rect, "--out", r + "_rect_v.json"],
             r + "_rect_v.json", circular=False),
    ]
    M = rung.sizes["M"]
    if rung.bh[0] == "dft":
        steps.append(Step("bh_build", ["bh", "dft", str(M), "--out", bh], bh, N=M, r=M))
    else:
        tables = {"dft3": dft_matrix(3), "bh21": load_bh21()}
        files = []
        for name in rung.bh[1]:
            path = "%s_%s.json" % (r, name)
            _write(monomial(tables[name], rng), os.path.join(in_dir, path))
            files.append(IN + path)
        dft3 = r + "_dft3.json"
        steps += [
            Step("bh_build", ["bh", "dft", "3", "--out", dft3], dft3, N=3, r=3),
            Step("bh_build", ["bh", "kron", dft3] + files + ["--out", bh], bh, N=M, r=3),
        ]
    steps += [
        Step("bh_verify", ["bh", "verify", bh, "--out", r + "_bh_v.json"], r + "_bh_v.json",
             N=M),
        Step("build", ["drcs", "build", rect, bh, "--out", r + "_set.json"], r + "_set.json",
             **rung.sizes),
    ]
    return steps


def construct(in_dir, seed, rungs=RUNGS):
    """Four rungs of rect -> bh -> drcs build, with no ambiguity evaluation."""
    rng = np.random.default_rng(seed)
    steps = []
    for rung in rungs:
        steps += rung_steps(rung, in_dir, rng)
    return steps


WORKLOADS = {
    "eval-many": eval_many,
    "eval-long": eval_long,
    "construct": construct,
}
