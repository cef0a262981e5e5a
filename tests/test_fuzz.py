"""Hypothesis fuzz of the CLI's inputs: the three JSON loaders (rectangle,
Butson table, set), the rectangle builders and pipeline configs.

Every drawn input must end in exit 0, 2, 3 or 4 and never in a
traceback. A failure prints a JSON error payload on stderr; only a
verifier's verdict (exit 2 of rect verify and bh verify) is reported as
JSON on stdout instead. Drawn integers stay small where they size an
array, so no example asks for much memory.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from drcs_forge.cli import main

# a few values past every integer width the loaders convert to
HUGE = st.sampled_from([2 ** 31, 2 ** 40, 2 ** 63 - 1, 2 ** 63, 2 ** 64, -2 ** 63 - 1,
                        10 ** 30])
leaf = (st.none() | st.booleans() | st.integers(-3, 12) | HUGE
        | st.floats(width=64) | st.text(max_size=3))
json_value = st.recursive(
    leaf,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=4),
    max_leaves=12,
)
small = st.integers(-1, 5)


def grids(depth):
    """Nested lists of small integers, ragged or not, depth levels deep."""
    s = small
    for _ in range(depth):
        s = st.lists(s, min_size=0, max_size=3)
    return s


RECT = {"N": 3, "n": 2, "rows": [[0, 1], [1, 2]]}
BH = {"N": 3, "r": 3, "exps": [[0, 0, 0], [0, 1, 2], [0, 2, 1]]}
SET = {"K": 1, "M": 2, "L": 2, "r": 2, "flocks": [[[0, 0], [0, 1]]], "zone": [2, 2]}
FIELDS = {
    "rect": {"N": small | HUGE, "n": small, "rows": grids(2), "provenance": json_value},
    "bh": {"N": small | HUGE, "r": small | HUGE, "exps": grids(2), "provenance": json_value},
    "set": {"K": small, "M": small, "L": small, "r": small | HUGE, "flocks": grids(3),
            "zone": st.lists(small | HUGE, max_size=3), "provenance": json_value},
}
BASES = {"rect": RECT, "bh": BH, "set": SET}


@st.composite
def documents(draw, kind):
    """A valid document with some fields redrawn, dropped or replaced by
    any JSON value; or any JSON value at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(json_value)
    doc = dict(BASES[kind])
    for key in draw(st.lists(st.sampled_from(sorted(FIELDS[kind])), max_size=3, unique=True)):
        how = draw(st.integers(0, 2))
        if how == 0:
            doc.pop(key, None)
        else:
            doc[key] = draw(FIELDS[kind][key] if how == 1 else json_value)
    return doc


COMMANDS = {
    "rect": [["rect", "verify", "{f}"], ["rect", "verify", "{f}", "--circular"],
             ["rect", "truncate", "{f}", "1", "left"], ["rect", "product", "{f}", "{f}"],
             ["drcs", "build", "{f}", "bh.json"]],
    "bh": [["bh", "verify", "{f}"], ["bh", "load", "{f}"], ["bh", "kron", "{f}", "{f}"],
           ["drcs", "build", "rect.json", "{f}"]],
    "set": [["drcs", "eval", "{f}"],
            ["drcs", "eval", "{f}", "--method", "naive", "--paranoid"],
            ["drcs", "eval", "{f}", "--zone", "2", "1"], ["drcs", "report", "{f}"],
            ["drcs", "grid", "{f}", "--pair", "0", "0", "--out", "g.csv"]],
}


@contextlib.contextmanager
def _scratch_dir():
    """A fresh working directory holding a valid rectangle and Butson
    table, for commands that pair a drawn file with a good one."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        try:
            for name, doc in (("rect.json", RECT), ("bh.json", BH)):
                with open(name, "w") as fh:
                    json.dump(doc, fh)
            yield d
        finally:
            os.chdir(cwd)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_outcome(argv, code, out, err):
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code == 0:
        return
    if err:
        assert "error" in json.loads(err), (argv, err)
    else:  # a verifier's verdict
        assert code == 2 and argv[:1] in (["rect"], ["bh"]), (argv, code, out)
        json.loads(out)


def _fuzz(doc, command):
    """A drawn file that fails is refused as malformed input (or as
    infeasible, or by a verifier), never with InvariantError, the
    library's error for a table argument it refuses."""
    with _scratch_dir():
        with open("in.json", "w") as fh:
            json.dump(doc, fh)
        argv = [a.format(f="in.json") for a in command]
        code, out, err = run_cli(argv)
        check_outcome(argv, code, out, err)
        if err:
            assert json.loads(err)["error"] != "InvariantError", (argv, doc, err)


@given(documents("rect"), st.sampled_from(COMMANDS["rect"]))
@settings(max_examples=150, deadline=None)
def test_rectangle_loader(doc, command):
    _fuzz(doc, command)


@given(documents("bh"), st.sampled_from(COMMANDS["bh"]))
@settings(max_examples=150, deadline=None)
def test_butson_loader(doc, command):
    _fuzz(doc, command)


@given(documents("set"), st.sampled_from(COMMANDS["set"]))
@settings(max_examples=150, deadline=None)
def test_set_loader(doc, command):
    _fuzz(doc, command)


# builder arguments: small ones build; the sampled ones lie over the
# table cap, the field cap or the trial-division cap, or are not prime
BUILDER_INT = st.integers(-1, 7) | st.sampled_from(
    [12, 21, 2053, 4097, 2 ** 22 + 1, 2 ** 40 + 1, 2 ** 61 - 1, 10 ** 8, 10 ** 30])
DEGREE = st.integers(-1, 3) | st.sampled_from([12, 21, 10 ** 6, 10 ** 8])
WIDTH = st.integers(1, 6) | st.sampled_from([3000, 10 ** 5])


@given(st.sampled_from(["circular-florentine", "circular-qfr", "extended-qfr", "product"]),
       BUILDER_INT, DEGREE, WIDTH, WIDTH)
@settings(max_examples=100, deadline=None)
def test_rectangle_builders(builder, p, n, width_a, width_b):
    with _scratch_dir():
        if builder == "circular-florentine":
            argv = ["rect", builder, str(p)]
        elif builder == "product":
            for name, w in (("a.json", width_a), ("b.json", width_b)):
                with open(name, "w") as fh:
                    json.dump({"N": w, "n": w, "rows": [list(range(w))]}, fh)
            argv = ["rect", builder, "a.json", "b.json"]
        else:
            argv = ["rect", builder, str(p), str(n)]
        check_outcome(argv, *run_cli(argv))


# words of valid steps, with numbers small enough that no builder they
# reach makes more than a few hundred entries (drawn text holds no digits)
WORDS = ["rect", "bh", "drcs", "pipeline", "circular-florentine", "circular-qfr",
         "extended-qfr", "truncate", "product", "verify", "dft", "walsh", "kron", "load",
         "build", "eval", "report", "grid", "--out", "--help", "--pair", "--zone",
         "--circular", "--matrix", "--method", "fft", "left", "rect.json", "bh.json",
         "o.json", "o.csv", "cfg.json", "-1", "0", "1", "2", "3"]
step = st.lists(st.sampled_from(WORDS) | st.integers(-1, 3) | st.text("ab-_. ", max_size=3),
                max_size=6)
config = (st.fixed_dictionaries({"steps": st.lists(step, max_size=4)})
          | st.fixed_dictionaries({"steps": json_value}) | json_value)


@given(config)
@settings(max_examples=200, deadline=None)
def test_pipeline(cfg):
    with _scratch_dir():
        with open("cfg.json", "w") as fh:
            json.dump(cfg, fh)
        argv = ["pipeline", "cfg.json"]
        code, out, err = run_cli(argv)
        assert code in (0, 2, 3, 4), (cfg, code, err)
        if code != 0 and err:
            assert "error" in json.loads(err), (cfg, err)
