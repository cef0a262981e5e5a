"""The benchmark's own tests, on tiny workloads.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import functools
import json
import os

import pytest

import run
import spans
import workloads

# circular Florentine over Z_3 (2x3) times circular qfr(2,2) (4x3 over Z_4)
TINY_RUNG = workloads.Rung("t", ["circular-florentine", "3"], (3, 2, 3),
                           ["circular-qfr", "2", "2"], (4, 4, 3), ("dft", 12),
                           dict(K=2, M=12, L=9))
# circular qfr(2,3) with dft 8: K=8, M=8, L=7, zone 7, so 13 x 13 cells a grid
tiny_eval = functools.partial(workloads.eval_many, p=2, n=3)
tiny_construct = functools.partial(workloads.construct, rungs=(TINY_RUNG,))


@pytest.fixture
def make_run(tmp_path):
    runs = []

    def make(name, fn, seed=3):
        r = run.Run(name, seed, make=fn, work=str(tmp_path))
        runs.append(r)
        return r

    yield make
    for r in runs:
        r.close()


def test_checker_flags_one_flipped_exponent(make_run):
    r = make_run("tiny-eval", tiny_eval)
    path = os.path.join(r.dir, "in", "set.json")
    with open(path) as fh:
        obj = json.load(fh)
    obj["flocks"][1][2][0] = (obj["flocks"][1][2][0] + 1) % obj["r"]
    with open(path, "w") as fh:
        json.dump(obj, fh)
    r.one_pass(traced=False)
    assert (r.attempted, r.failed) == (2, 2)
    assert all("theta" in p for p in r.problems), r.problems


def test_checker_flags_output_that_changes_between_passes(make_run):
    r = make_run("tiny-eval", tiny_eval)
    r.one_pass(traced=False)
    r.checker.digests[0] = "0" * 64
    r.one_pass(traced=False)
    assert r.failed == 1
    assert "differs from the first pass" in r.problems[0]


@pytest.mark.parametrize("fn", [tiny_eval, tiny_construct], ids=["eval", "construct"])
def test_traced_and_untraced_passes_write_identical_outputs(make_run, fn):
    r = make_run("tiny", fn)
    r.one_pass(traced=False)
    r.one_pass(traced=True)
    assert r.problems == []
    assert r.failed == 0 and r.attempted == 2 * len(r.steps)
    # every step's output was checked once and matched byte for byte after
    assert sorted(r.checker.digests) == list(range(len(r.steps)))


def test_tiny_eval_cell_counts(make_run):
    r = make_run("tiny-eval", tiny_eval)
    r.one_pass(traced=True)
    m = spans.layer_metrics(r.traced[0]["trace"])
    # eval: 64 naive grids; paranoid: 64 fft grids for the scan, then 64
    # naive + 64 fft, then 50 single cells
    assert m["ambiguity.grids"] == 64 + 64 + 128
    assert m["ambiguity.cells"] == 256 * 169 + 50
    # each of the two scans needs K^2 = 64 grids
    assert m["ambiguity.cells_per_needed"] == (256 * 169 + 50) / (2 * 64 * 169)
    assert m["oracles.calls"] == 50
    layers = sum(v for k, v in m.items() if k in spans.TIME_METRICS)
    assert layers == pytest.approx(m["trace.steps_s"], abs=1e-9)


def test_tiny_construct_c2_placements(make_run):
    r = make_run("tiny-construct", tiny_construct)
    r.one_pass(traced=True)
    m = spans.layer_metrics(r.traced[0]["trace"])
    left = 2 * 2 * 3        # 2 rows, steps 1..2, 3 circular placements each
    right = 4 * (2 + 1)     # 4 rows, linear steps 1..2 over 3 columns
    product = 2 * sum(range(1, 9))  # 2 x 9 linear: 8 + 7 + ... + 1 per row
    # rect verify --circular left; product checks left (circular) and right
    # (linear); rect verify on the product; drcs build checks it again
    assert m["rectangles.c2_placements"] == left + (left + right) + product + product
    # bh verify once, drcs build twice (load_seed and build_drcs), one table
    assert m["hadamard.verify_calls"] == 3
    assert m["hadamard.verify_per_matrix"] == 3.0


def test_describe_reports_a_tail_only_with_ten_samples_beyond():
    assert run.describe([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3, "tail": None}
    d = run.describe([float(i) for i in range(100)])
    assert d["tail"] == {"p": 90.0, "value": 89.0}  # 90..99 lie beyond it
