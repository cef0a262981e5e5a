import contextlib
import errno
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from drcs_forge import cli, drcs
from drcs_forge.cli import main
from drcs_forge.hadamard import dft_matrix, walsh_hadamard
from drcs_forge.rectangles import (
    build_circular_florentine,
    build_circular_quasi_florentine,
    build_extended_quasi_florentine,
)

DESK_PIPELINE = os.path.join(os.path.dirname(__file__), "data", "pipeline_desk.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_end_to_end_pipeline(tmp_path, capsys):
    rect = str(tmp_path / "rect.json")
    bh = str(tmp_path / "bh.json")
    sset = str(tmp_path / "set.json")

    assert run(capsys, "rect", "circular-qfr", "3", "2", "--out", rect)[0] == 0
    assert run(capsys, "bh", "dft", "9", "--out", bh)[0] == 0
    assert run(capsys, "drcs", "build", rect, bh, "--out", sset)[0] == 0

    code, out, _ = run(capsys, "drcs", "eval", sset)
    assert code == 0
    obj = json.loads(out)
    assert obj["theta"]["theta_c"] > 0
    assert obj["bound"]["rho"] >= 1.0 - 1e-9

    code, out, _ = run(capsys, "drcs", "report", sset)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split() == ["K", "M", "L", "Z_x", "Z_y", "theta", "bound", "rho"]
    assert row.split()[:3] == ["9", "9", "8"]


def test_build_stdout_matches_out_file(tmp_path, capsys):
    rect = str(tmp_path / "r.json")
    bh = str(tmp_path / "h.json")
    sset = tmp_path / "s.json"
    run(capsys, "rect", "circular-qfr", "3", "2", "--out", rect)
    run(capsys, "bh", "dft", "9", "--out", bh)
    assert run(capsys, "drcs", "build", rect, bh, "--out", str(sset))[0] == 0
    code, out, _ = run(capsys, "drcs", "build", rect, bh)
    assert code == 0
    assert out.encode() == sset.read_bytes()


def test_report_out_to_missing_dir(tmp_path, capsys):
    rect = str(tmp_path / "r.json")
    bh = str(tmp_path / "h.json")
    sset = str(tmp_path / "s.json")
    run(capsys, "rect", "circular-qfr", "3", "2", "--out", rect)
    run(capsys, "bh", "dft", "9", "--out", bh)
    run(capsys, "drcs", "build", rect, bh, "--out", sset)
    code, _, err = run(capsys, "drcs", "report", sset,
                       "--out", str(tmp_path / "missing" / "row.txt"))
    assert code == 4
    assert "error" in json.loads(err)


@pytest.mark.parametrize("argv", [
    ["drcs", "build", "r.json", "h.json", "--out", "s.json"],
    ["drcs", "grid", "set.json", "--pair", "0", "1", "--out", "cells.csv"],
    ["drcs", "grid", "set.json", "--pair", "0", "0", "--matrix", "--out", "mag.csv"],
    ["drcs", "grid", "set.json", "--pair", "0", "1", "--out", "heat.pgm"],
    ["rect", "circular-florentine", "5", "--out", "r.json"],
], ids=["build", "grid_cells", "grid_matrix", "grid_pgm", "rect_builder"])
def test_build_out_to_missing_dir(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    run(capsys, "rect", "circular-qfr", "3", "2", "--out", "r.json")
    run(capsys, "bh", "dft", "9", "--out", "h.json")
    run(capsys, "drcs", "build", "r.json", "h.json", "--out", "set.json")
    code, out, err = run(capsys, *argv[:-1], os.path.join("missing", argv[-1]))
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("argv", [["drcs", "report", "set.json", "--out", ""],
                                  ["drcs", "build", "r.json", "h.json", "--out", ""]],
                         ids=["report", "build"])
def test_empty_out_is_refused(tmp_path, capsys, monkeypatch, argv):
    """An --out that is given is a path, even an empty one: no silent
    fallback to stdout."""
    monkeypatch.chdir(tmp_path)
    run(capsys, "rect", "circular-qfr", "3", "2", "--out", "r.json")
    run(capsys, "bh", "dft", "9", "--out", "h.json")
    run(capsys, "drcs", "build", "r.json", "h.json", "--out", "set.json")
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ParseError" and payload["message"].startswith("cannot write")


class _FailingStdout(io.StringIO):
    """A stdout whose write or flush fails as a full disk does."""

    def __init__(self, fails):
        super().__init__()
        self.fails = fails

    def write(self, text):
        if self.fails == "write":
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)

    def flush(self):
        if self.fails == "flush":
            raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fails", ["write", "flush"])
@pytest.mark.parametrize("argv", [["bh", "dft", "3"], ["rect", "verify", "{}"]],
                         ids=["dft", "verify"])
def test_stdout_write_failure_exits_4(tmp_path, capsys, fails, argv):
    rect = tmp_path / "r.json"
    run(capsys, "rect", "circular-florentine", "5", "--out", str(rect))
    with contextlib.redirect_stdout(_FailingStdout(fails)):
        code = main([a.format(rect) for a in argv])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "ParseError"
    assert payload["message"].startswith("cannot write <stdout>: [Errno %d]" % errno.ENOSPC)


@pytest.mark.parametrize("target", ["dev_full", "closed_pipe"])
def test_stdout_write_failure_in_a_fresh_process(tmp_path, target):
    """Output to a full device or to a pipe whose reader is gone: exit 4,
    one JSON payload, and no exit-time flush error after it."""
    if target == "dev_full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "drcs_forge.cli", "bh", "dft", "3"]
    kwargs = dict(stderr=subprocess.PIPE, env=env, cwd=tmp_path)
    if target == "dev_full":
        with open("/dev/full", "w") as full:
            proc = subprocess.Popen(argv, stdout=full, **kwargs)
    else:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, **kwargs)
        proc.stdout.close()  # long before the interpreter is up to write
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 4, err
    payload = json.loads(err)
    assert payload["error"] == "ParseError"
    assert payload["message"].startswith("cannot write <stdout>")


def _set_json(tmp_path, capsys):
    rect = str(tmp_path / "r.json")
    bh = str(tmp_path / "h.json")
    run(capsys, "rect", "circular-qfr", "2", "2", "--out", rect)
    run(capsys, "bh", "walsh", "2", "--out", bh)
    code, out, _ = run(capsys, "drcs", "build", rect, bh)
    assert code == 0
    return json.loads(out)


def _flocks_with_float(obj):
    obj["flocks"][0][0][1] = 1.7


def _one_flock_with_k_true(obj):
    obj["flocks"] = obj["flocks"][:1]
    obj["K"] = True


@pytest.mark.parametrize("edit", [
    _flocks_with_float,
    lambda obj: obj.update(zone="ab"),
    lambda obj: obj.update(zone=[3, "x"]),
    lambda obj: obj.update(r="x"),
    lambda obj: obj.update(r=2.5),
    lambda obj: obj["flocks"][1][0].__setitem__(0, True),
    lambda obj: obj.update(provenance="x"),
    lambda obj: obj.update(zone=False),
    lambda obj: obj.update(zone=0),
    lambda obj: obj.update(zone=""),
    lambda obj: obj.update(zone=[]),
    lambda obj: obj.update(K=4.0),
    lambda obj: obj.update(L=3.0),
    _one_flock_with_k_true,
    lambda obj: obj.update(M=None),
    lambda obj: obj["flocks"][0][0].__setitem__(1, obj["r"]),
    lambda obj: obj["flocks"][0][0].__setitem__(1, -1),
    lambda obj: obj.update(r=0),
], ids=["exponent_1.7", "zone_ab", "zone_item_x", "r_x", "r_2.5", "exponent_true",
        "provenance_str", "zone_false", "zone_0", "zone_empty_str", "zone_empty_list",
        "K_4.0", "L_3.0", "K_true_one_flock", "M_null", "exponent_r", "exponent_negative",
        "r_0"])
def test_eval_rejects_non_integer_set_fields(tmp_path, capsys, edit):
    obj = _set_json(tmp_path, capsys)
    edit(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "drcs", "eval", str(bad))
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"] == "SchemaError"


@pytest.mark.parametrize("obj", [
    {"N": 3, "n": 2, "rows": [[0, 1.9]]},
    {"N": 3, "n": 2, "rows": [[0, "1"]]},
    {"N": 3.5, "n": 2, "rows": [[0, 1]]},
    {"N": 3, "n": "2", "rows": [[0, 1]]},
    {"N": 3, "n": 2, "rows": [[0, True]]},
    {"N": 3, "n": 2, "rows": [[0, 1]], "provenance": "x"},
    {"N": 3, "n": 2, "rows": [[0, 3]]},
    {"N": 3, "n": 2, "rows": [[0, -1]]},
    {"N": 0, "n": 2, "rows": [[0, 1]]},
    {"N": 3, "n": 0, "rows": [[], []]},
], ids=["row_1.9", "row_str", "N_3.5", "n_str", "row_true", "provenance_str", "row_N",
        "row_negative", "N_0", "no_columns"])
def test_rect_verify_rejects_non_integer_fields(tmp_path, capsys, obj):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "rect", "verify", str(bad))
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"] == "SchemaError"


@pytest.mark.parametrize("obj", [
    {"N": 2, "r": 2, "exps": [[0, 0], [0, 1.0]]},
    {"N": 2, "r": "x", "exps": [[0, 0], [0, 1]]},
    {"N": True, "r": 2, "exps": [[0]]},
    {"N": 2, "r": 2, "exps": [[0, 0], [0, True]]},
    {"N": 1, "r": 2, "exps": [[0]], "provenance": ["x"]},
    {"N": 2, "r": 2, "exps": [[0, 0], [0, 2]]},
    {"N": 2, "r": 2, "exps": [[0, 0], [0, -1]]},
    {"N": 1, "r": 0, "exps": [[0]]},
    {"N": 0, "r": 2, "exps": []},
], ids=["exps_float", "r_x", "N_bool", "exps_true", "provenance_list", "exps_r",
        "exps_negative", "r_0", "N_0"])
def test_bh_verify_rejects_non_integer_fields(tmp_path, capsys, obj):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "bh", "verify", str(bad))
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"] == "ParseError"


def test_rect_verify_c2_witness(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"N": 3, "n": 3, "rows": [[0, 1, 2], [0, 1, 2]]}))
    code, out, _ = run(capsys, "rect", "verify", str(bad))
    assert code == 2
    obj = json.loads(out)
    assert not obj["c2"]
    assert len(obj["c2_witness"]["rows"]) == 2


def test_rect_verify_c1_witness(tmp_path, capsys):
    bad = tmp_path / "c1.json"
    # row 1 repeats 3 at column 2 before it repeats 2 at column 3
    bad.write_text(json.dumps({"N": 4, "n": 4, "rows": [[0, 1, 2, 3], [2, 3, 3, 2]]}))
    code, out, _ = run(capsys, "rect", "verify", str(bad))
    assert code == 2
    obj = json.loads(out)
    assert not obj["c1"] and obj["c1_witness"] == {"row": 1, "symbol": 3}


def test_rect_verify_good(tmp_path, capsys):
    rect = str(tmp_path / "f7.json")
    run(capsys, "rect", "circular-florentine", "7", "--out", rect)
    code, out, _ = run(capsys, "rect", "verify", rect, "--circular")
    assert code == 0
    obj = json.loads(out)
    assert obj["c1"] and obj["c2"] and obj["circular"]


def test_rect_search(capsys):
    code, out, _ = run(capsys, "rect", "search", "5", "5", "--circular")
    assert code == 0
    obj = json.loads(out)
    assert obj["certificate"]["max_rows"] == 4
    assert obj["certificate"]["exhaustive"]


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_rect_search_refuses_row_cap_below_one(capsys, cap):
    code, out, err = run(capsys, "rect", "search", "5", "3", "--row-cap", cap)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParamsOutOfRangeError"


def test_rect_search_names_both_sizes(capsys):
    # n = 1 is in range; the N = -2 below it is what is refused
    code, out, err = run(capsys, "rect", "search", "-2", "1")
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "ParamsOutOfRangeError",
                               "message": "need 1 <= n <= N, got N = -2, n = 1"}


@pytest.mark.parametrize("N", ["9", "10", "11"])
def test_rect_search_refuses_too_many_candidate_rows(capsys, N):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "rect", "search", N, N)
    assert time.perf_counter() - t0 < 0.1
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParamsOutOfRangeError"


def test_rect_search_row_cap_one_keeps_the_fixed_row(capsys):
    code, out, _ = run(capsys, "rect", "search", "5", "3", "--row-cap", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["rectangle"]["rows"] == [[0, 1, 2]]
    assert obj["certificate"]["max_rows"] == 1
    assert obj["certificate"]["row_cap"] == 1


def test_rect_product_matches_library(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    d = str(tmp_path / "d.json")
    run(capsys, "rect", "circular-florentine", "7", "--out", a)
    run(capsys, "rect", "circular-qfr", "3", "2", "--out", b)
    assert run(capsys, "rect", "product", a, b, "--out", d)[0] == 0
    obj = json.loads(pathlib.Path(d).read_text())
    assert obj["N"] == 63 and len(obj["rows"]) == 6


def test_bh_kron_needs_two_files(tmp_path, capsys):
    f = str(tmp_path / "one.json")
    run(capsys, "bh", "dft", "2", "--out", f)
    code, _, err = run(capsys, "bh", "kron", f)
    assert code == 3
    assert "error" in json.loads(err)


def test_bh_verify_rejects_non_butson(tmp_path, capsys):
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"N": 2, "r": 2, "exps": [[0, 0], [0, 0]]}))
    code, _, err = run(capsys, "bh", "load", str(flat))
    assert code == 2
    assert "error" in json.loads(err)


def test_grid_pair_out_of_range(tmp_path, capsys):
    rect = str(tmp_path / "r.json")
    bh = str(tmp_path / "h.json")
    sset = str(tmp_path / "s.json")
    run(capsys, "rect", "circular-qfr", "2", "2", "--out", rect)
    run(capsys, "bh", "dft", "4", "--out", bh)
    run(capsys, "drcs", "build", rect, bh, "--out", sset)
    code, _, err = run(capsys, "drcs", "grid", sset, "--pair", "0", "9",
                       "--out", str(tmp_path / "g.csv"))
    assert code == 3


def test_grid_extension_checked(tmp_path, capsys):
    rect = str(tmp_path / "r.json")
    bh = str(tmp_path / "h.json")
    sset = str(tmp_path / "s.json")
    run(capsys, "rect", "circular-qfr", "2", "2", "--out", rect)
    run(capsys, "bh", "dft", "4", "--out", bh)
    run(capsys, "drcs", "build", rect, bh, "--out", sset)
    code, _, _ = run(capsys, "drcs", "grid", sset, "--pair", "0", "1",
                     "--out", str(tmp_path / "g.txt"))
    assert code == 3


@pytest.mark.parametrize("flags, name", [([], "g.txt"), (["--matrix"], "g.pgm")],
                         ids=["txt", "matrix_pgm"])
def test_grid_extension_checked_before_the_grid(tmp_path, capsys, monkeypatch, flags, name):
    rect = str(tmp_path / "r.json")
    bh = str(tmp_path / "h.json")
    sset = str(tmp_path / "s.json")
    run(capsys, "rect", "circular-qfr", "2", "2", "--out", rect)
    run(capsys, "bh", "dft", "4", "--out", bh)
    run(capsys, "drcs", "build", rect, bh, "--out", sset)

    def no_grid(*args, **kwargs):
        raise AssertionError("af_grid ran before --out was checked")

    def no_read(*args, **kwargs):
        raise AssertionError("the set was read before --out was checked")

    monkeypatch.setattr(cli.ambiguity, "af_grid", no_grid)
    monkeypatch.setattr(cli, "import_drcs", no_read)
    code, out, err = run(capsys, "drcs", "grid", sset, "--pair", "0", "1", *flags,
                         "--out", str(tmp_path / name))
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParamsOutOfRangeError"
    assert not (tmp_path / name).exists()


def test_grid_outputs(tmp_path, capsys):
    rect = str(tmp_path / "r.json")
    bh = str(tmp_path / "h.json")
    sset = str(tmp_path / "s.json")
    run(capsys, "rect", "circular-qfr", "3", "2", "--out", rect)
    run(capsys, "bh", "dft", "9", "--out", bh)
    run(capsys, "drcs", "build", rect, bh, "--out", sset)

    csv_path = tmp_path / "cells.csv"
    assert run(capsys, "drcs", "grid", sset, "--pair", "0", "0",
               "--out", str(csv_path))[0] == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "tau,nu,re,im,abs"
    assert len(lines) == 1 + 15 * 15  # zone (8,8) grid

    mat_path = tmp_path / "mag.csv"
    assert run(capsys, "drcs", "grid", sset, "--pair", "0", "1", "--matrix",
               "--out", str(mat_path))[0] == 0
    rows = mat_path.read_text().strip().splitlines()
    assert len(rows) == 15 and len(rows[0].split(",")) == 15

    pgm_path = tmp_path / "mag.pgm"
    assert run(capsys, "drcs", "grid", sset, "--pair", "0", "1",
               "--out", str(pgm_path))[0] == 0
    data = pgm_path.read_bytes()
    assert data.startswith(b"P5\n15 15\n65535\n")


def test_eval_degenerate_zone_reports_infeasible(tmp_path, capsys):
    rect = str(tmp_path / "r.json")
    bh = str(tmp_path / "h.json")
    sset = str(tmp_path / "s.json")
    run(capsys, "rect", "circular-qfr", "3", "2", "--out", rect)
    run(capsys, "bh", "dft", "9", "--out", bh)
    run(capsys, "drcs", "build", rect, bh, "--out", sset)
    code, out, _ = run(capsys, "drcs", "eval", sset, "--zone", "2", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["bound"].get("infeasible") is True
    assert "flags" in obj["bound"]


def _desk_set(tmp_path, capsys):
    """K=9, M=9, L=8 set of rect circular-qfr 3 2 and bh dft 9."""
    rect = str(tmp_path / "r.json")
    bh = str(tmp_path / "h.json")
    sset = str(tmp_path / "s.json")
    run(capsys, "rect", "circular-qfr", "3", "2", "--out", rect)
    run(capsys, "bh", "dft", "9", "--out", bh)
    assert run(capsys, "drcs", "build", rect, bh, "--out", sset)[0] == 0
    return sset


@pytest.mark.parametrize("zone", [["8", "9"], ["9", "8"], ["8", "16"]])
def test_eval_zone_past_length_refused(tmp_path, capsys, zone):
    # nu = +-8 is the Doppler alias of the origin of an L = 8 set: a scan
    # over it would report theta_a = M * L there
    sset = _desk_set(tmp_path, capsys)
    code, out, err = run(capsys, "drcs", "eval", sset, "--zone", *zone)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParamsOutOfRangeError"


def test_eval_zone_at_length_accepted(tmp_path, capsys):
    sset = _desk_set(tmp_path, capsys)
    code, out, _ = run(capsys, "drcs", "eval", sset, "--zone", "8", "8")
    assert code == 0
    assert json.loads(out)["theta"]["theta_a"] < 1e-9


def test_eval_paranoid_cross_check(tmp_path, capsys):
    rect = str(tmp_path / "r.json")
    bh = str(tmp_path / "h.json")
    sset = str(tmp_path / "s.json")
    run(capsys, "rect", "circular-qfr", "2", "2", "--out", rect)
    run(capsys, "bh", "walsh", "2", "--out", bh)
    run(capsys, "drcs", "build", rect, bh, "--out", sset)
    code, out, _ = run(capsys, "drcs", "eval", sset, "--paranoid")
    assert code == 0
    assert json.loads(out)["paranoid"] == "ok"


def test_eval_paranoid_at_a_root_order_past_the_grid_cap(tmp_path, capsys):
    """r = 1048583 with L = 8: lcm(r, L) is over GRID_CAP, the tables of
    orders r and L are not, so --paranoid accepts the set plain eval does."""
    sset = tmp_path / "s.json"
    r = 1048583
    flocks = np.random.default_rng(5).integers(0, r, size=(2, 2, 8)).tolist()
    sset.write_text(json.dumps({"K": 2, "M": 2, "L": 8, "r": r, "flocks": flocks}))
    code, out, err = run(capsys, "drcs", "eval", str(sset), "--paranoid")
    assert code == 0, err
    got = json.loads(out)
    assert got["paranoid"] == "ok"
    code, out, _ = run(capsys, "drcs", "eval", str(sset))
    assert code == 0
    assert got["theta"] == json.loads(out)["theta"]


def test_pipeline_config(tmp_path, capsys):
    rect = str(tmp_path / "r.json")
    report = str(tmp_path / "v.json")
    cfg = tmp_path / "steps.json"
    cfg.write_text(json.dumps({"steps": [
        ["rect", "circular-florentine", "5", "--out", rect],
        ["rect", "verify", rect, "--circular", "--out", report],
    ]}))
    code, _, _ = run(capsys, "pipeline", str(cfg))
    assert code == 0
    obj = json.loads(pathlib.Path(report).read_text())
    assert obj["c2"] and obj["circular"]


def test_pipeline_stops_on_failure(tmp_path, capsys):
    cfg = tmp_path / "steps.json"
    cfg.write_text(json.dumps({"steps": [
        ["bh", "dft", "0"],
        ["bh", "dft", "2", "--out", str(tmp_path / "never.json")],
    ]}))
    code, _, _ = run(capsys, "pipeline", str(cfg))
    assert code != 0
    assert not (tmp_path / "never.json").exists()


def test_pipeline_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("[1,")
    code, _, err = run(capsys, "pipeline", str(cfg))
    assert code == 4


@pytest.mark.parametrize("step", [["bogus"], ["rect", "circular-florentine", "x"],
                                  ["drcs", "grid", "s.json"]],
                         ids=["command", "int_value", "required_option"])
def test_pipeline_step_argparse_rejects(tmp_path, capsys, step):
    cfg = tmp_path / "steps.json"
    cfg.write_text(json.dumps({"steps": [step]}))
    code, out, err = run(capsys, "pipeline", str(cfg))
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"] == "ParseError"
    assert "usage" not in err


def test_pipeline_config_not_an_object(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1]")
    code, _, err = run(capsys, "pipeline", str(cfg))
    assert code == 4
    assert json.loads(err)["error"] == "ParseError"


def test_pipeline_refuses_itself(tmp_path, capsys):
    cfg = tmp_path / "self.json"
    cfg.write_text(json.dumps({"steps": [["pipeline", str(cfg)]]}))
    code, _, err = run(capsys, "pipeline", str(cfg))
    assert code == 4
    assert json.loads(err)["error"] == "ParseError"


def test_pipeline_refuses_indirect_cycle(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    done = tmp_path / "f5.json"
    a.write_text(json.dumps({"steps": [
        ["rect", "circular-florentine", "5", "--out", str(done)],
        ["pipeline", str(b)],
    ]}))
    # b names a through a different spelling of the same path
    b.write_text(json.dumps({"steps": [["pipeline", str(tmp_path / "." / "a.json")]]}))
    code, _, err = run(capsys, "pipeline", str(a))
    assert code == 4
    assert json.loads(err)["error"] == "ParseError"
    assert done.exists()


def test_pipeline_may_repeat_a_config(tmp_path, capsys):
    inner = tmp_path / "inner.json"
    inner.write_text(json.dumps({"steps": [["rect", "circular-florentine", "5"]]}))
    outer = tmp_path / "outer.json"
    outer.write_text(json.dumps({"steps": [["pipeline", str(inner)]] * 2}))
    code, out, _ = run(capsys, "pipeline", str(outer))
    assert code == 0
    assert out.count('"rows"') == 2


def test_pipeline_help_step_goes_on(tmp_path, capsys):
    out_file = tmp_path / "h5.json"
    cfg = tmp_path / "steps.json"
    cfg.write_text(json.dumps({"steps": [
        ["rect", "--help"],
        ["rect", "circular-florentine", "5", "--out", str(out_file)],
    ]}))
    code, out, err = run(capsys, "pipeline", str(cfg))
    assert code == 0
    assert "usage:" in out and err == ""
    assert json.loads(out_file.read_text())["N"] == 5


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_pipeline_twice_in_one_process(tmp_path, capsys):
    cfg = tmp_path / "steps.json"
    outs = []
    for run_dir in ("a", "b"):
        (tmp_path / run_dir).mkdir()
        rect, report = tmp_path / run_dir / "r.json", tmp_path / run_dir / "v.json"
        cfg.write_text(json.dumps({"steps": [
            ["rect", "circular-florentine", "5", "--out", str(rect)],
            ["rect", "verify", str(rect), "--circular", "--out", str(report)],
        ]}))
        assert run(capsys, "pipeline", str(cfg))[0] == 0
        outs.append((rect.read_bytes(), report.read_bytes()))
    assert outs[0] == outs[1]


# sha256 of the desk pipeline's integer artifacts; the float outputs are
# left out, since their last bits may vary with the BLAS build
DESK_DIGESTS = {
    "rect.json": "aceaa0b1c61d1759d3b2c1dbe9b50da7666d2d509f7182304e3916cef6634c84",
    "rect_verify.json": "1be9a2f65de43f4991b9a3c7258c93a1450334e568325b891d6f8bc245e7740f",
    "search.json": "f5dc8acda8e3ace2a19d61a6b61465c598e9eca481eccd993aa74a85691e58dd",
    "bh.json": "f2df9bf3bbe5718b92f6308ed9c2997c8baa7ec39d6101694a43a52678195ec1",
    "bh_verify.json": "5f2847be4aca7a90566ce8c9dd9435064a474dc35ce9e3d37a50293356bb3498",
    "set.json": "b035940eed04b44e450e333562ea17ce1da8edbac9b84e07c02ca1df2f385529",
}


def test_committed_desk_pipeline(tmp_path, capsys, monkeypatch):
    """The config the CI workflow runs through the installed entry point."""
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "pipeline", DESK_PIPELINE)
    assert code == 0, err
    assert json.loads((tmp_path / "rect_verify.json").read_text())["c2"]
    assert json.loads((tmp_path / "bh_verify.json").read_text())["butson"]
    ev = json.loads((tmp_path / "eval.json").read_text())
    assert ev["theta"]["theta_c"] > 0
    # zone (8, 8): a 15 x 15 grid per pair
    cells = (tmp_path / "cells01.csv").read_text().splitlines()
    assert cells[0] == "tau,nu,re,im,abs" and len(cells) == 1 + 15 * 15
    rows = (tmp_path / "mag00.csv").read_text().splitlines()
    assert len(rows) == 15 and all(len(r.split(",")) == 15 for r in rows)
    pgm = (tmp_path / "heat01.pgm").read_bytes()
    assert pgm.startswith(b"P5\n15 15\n65535\n")
    assert len(pgm) == len(b"P5\n15 15\n65535\n") + 2 * 15 * 15
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in DESK_DIGESTS}
    assert got == DESK_DIGESTS


def _run_small(capsys, *argv):
    """run() that also asserts the call allocated under 4 MB in all."""
    tracemalloc.start()
    try:
        result = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    return result


@pytest.mark.parametrize("argv", [["dft", "100000"], ["walsh", "40"]], ids=["dft", "walsh"])
def test_bh_builder_over_order_cap(capsys, argv):
    code, out, err = _run_small(capsys, "bh", *argv)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParamsOutOfRangeError"


def test_bh_kron_over_order_cap(tmp_path, capsys):
    seed = str(tmp_path / "d91.json")
    assert run(capsys, "bh", "dft", "91", "--out", seed)[0] == 0
    out_file = tmp_path / "k.json"
    code, out, err = _run_small(capsys, "bh", "kron", seed, seed, "--out", str(out_file))
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParamsOutOfRangeError"
    assert not out_file.exists()


@pytest.mark.parametrize("r, other", [(5534023222112865276, 6), (4611686018427387847, 3)],
                         ids=["int64_wrap", "overflow_error"])
def test_bh_kron_root_order_over_int64_bound(tmp_path, capsys, r, other):
    """A 1 x 1 table is Butson over any r. Over a root order above 2^62
    the Kronecker exponent sums can overflow int64: one case silently
    wrapped two exponents of the product, the other ended in a traceback."""
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"N": 1, "r": r, "exps": [[r - 1]]}))
    dft = str(tmp_path / "dft.json")
    assert run(capsys, "bh", "dft", str(other), "--out", dft)[0] == 0
    out_file = tmp_path / "k.json"
    code, out, err = run(capsys, "bh", "kron", str(one), dft, "--out", str(out_file))
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParamsOutOfRangeError"
    assert not out_file.exists()


def test_drcs_build_over_set_cap(tmp_path, capsys, monkeypatch):
    """Both inputs pass every check, but the set would hold 1024 x 1024 x
    1023 entries (8 GiB): refused before the C1, C2 and Butson checks."""
    rect, bh = str(tmp_path / "r.json"), str(tmp_path / "b.json")
    assert run(capsys, "rect", "circular-qfr", "2", "10", "--out", rect)[0] == 0
    assert run(capsys, "bh", "dft", "1024", "--out", bh)[0] == 0

    def unreached(*args, **kwargs):
        raise AssertionError("checked before the size")
    for name in ("verify_c1", "verify_c2", "verify_bh"):
        monkeypatch.setattr(drcs, name, unreached)
    out_file = tmp_path / "s.json"
    t0 = time.perf_counter()
    code, out, err = run(capsys, "drcs", "build", rect, bh, "--out", str(out_file))
    assert time.perf_counter() - t0 < 3
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParamsOutOfRangeError"
    assert not out_file.exists()


def _huge_array(*args, **kwargs):
    np.empty(1 << 62, dtype=np.uint8)  # 4 EiB: numpy's _ArrayMemoryError


def _no_memory(*args, **kwargs):
    raise MemoryError


def _too_deep(*args, **kwargs):
    raise RecursionError("maximum recursion depth exceeded")


@pytest.mark.parametrize("builder, exit_code, error, prefix", [
    (_huge_array, 3, "ParamsOutOfRangeError", "out of memory: "),
    (_no_memory, 3, "ParamsOutOfRangeError", "out of memory: "),
    (_too_deep, 4, "ParseError", "input nested too deep: "),
], ids=["_huge_array", "_no_memory", "_too_deep"])
def test_memory_and_recursion_errors_end_without_a_traceback(tmp_path, capsys, monkeypatch,
                                                             builder, exit_code, error, prefix):
    monkeypatch.setattr(cli, "dft_matrix", builder)
    code, out, err = run(capsys, "bh", "dft", "9")
    assert code == exit_code and out == ""
    payload = json.loads(err)
    assert payload["error"] == error
    assert payload["message"].startswith(prefix)
    # in a pipeline step too: the step fails, the pipeline stops there
    cfg = tmp_path / "steps.json"
    never = tmp_path / "never.json"
    cfg.write_text(json.dumps({"steps": [["bh", "dft", "9"],
                                         ["bh", "walsh", "1", "--out", str(never)]]}))
    code, _, err = run(capsys, "pipeline", str(cfg))
    assert code == exit_code and not never.exists()
    assert json.loads(err)["error"] == error


def _long_set(tmp_path, L, r=2):
    """A K=1, M=1 set of length L, a small JSON file whose full-zone
    grid would need arrays of (2L - 1)^2 elements."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"K": 1, "M": 1, "L": L, "r": r, "flocks": [[[0] * L]]}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["grid", "--pair", "0", "0", "--out", "g.csv"],
    ["grid", "--pair", "0", "0", "--method", "naive", "--matrix", "--out", "g.csv"],
    ["grid", "--pair", "0", "0", "--out", "g.pgm"],
    ["eval"],
    ["eval", "--method", "naive"],
], ids=["grid_cells", "grid_naive_matrix", "grid_pgm", "eval", "eval_naive"])
def test_grid_over_cap_refused(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    sset = _long_set(tmp_path, 20000)
    code, out, err = _run_small(capsys, "drcs", argv[0], sset, *argv[1:])
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParamsOutOfRangeError"
    assert not list(tmp_path.glob("g.*"))


def test_eval_root_order_over_cap_refused(tmp_path, capsys):
    sset = _long_set(tmp_path, 4, r=2 ** 40)
    code, out, err = _run_small(capsys, "drcs", "eval", sset)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParamsOutOfRangeError"


@pytest.mark.parametrize("argv", [
    ["eval"],
    ["report"],
    ["grid", "--pair", "0", "1", "--out", "g.csv"],
], ids=["eval", "report", "grid"])
def test_set_file_over_cap_refused(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    sset = str(tmp_path / "s.json")
    run(capsys, "rect", "circular-qfr", "3", "2", "--out", "r.json")
    run(capsys, "bh", "dft", "9", "--out", "h.json")
    run(capsys, "drcs", "build", "r.json", "h.json", "--out", sset)
    obj = json.loads(pathlib.Path(sset).read_text())
    entries = obj["K"] * obj["M"] * obj["L"]
    monkeypatch.setattr(drcs, "SET_CAP", entries - 1)
    code, out, err = run(capsys, "drcs", argv[0], sset, *argv[1:])
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParamsOutOfRangeError"
    assert not list(tmp_path.glob("g.*"))
    monkeypatch.setattr(drcs, "SET_CAP", entries)
    code, _, err = run(capsys, "drcs", argv[0], sset, *argv[1:])
    assert code == 0, err


def test_eval_reads_a_set_through_a_fifo(tmp_path, capsys):
    """A FIFO cannot be read twice; the set it carries is read as the file
    is."""
    rect, bh, sset = (str(tmp_path / name) for name in ("r.json", "h.json", "s.json"))
    run(capsys, "rect", "circular-qfr", "3", "2", "--out", rect)
    run(capsys, "bh", "dft", "9", "--out", bh)
    run(capsys, "drcs", "build", rect, bh, "--out", sset)
    want = run(capsys, "drcs", "eval", sset)
    fifo = str(tmp_path / "s.fifo")
    os.mkfifo(fifo)
    data = pathlib.Path(sset).read_bytes()

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(data)
    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        got = run(capsys, "drcs", "eval", fifo)
    finally:
        if writer.is_alive():  # the FIFO was not opened: let the writer go
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(10)
    assert not writer.is_alive()
    assert want[0] == 0 and got == want


BIG_PRIME = 2 ** 61 - 1


def _run_quick(capsys, *argv):
    """_run_small() that also asserts the call took under 2 s."""
    t0 = time.perf_counter()
    result = _run_small(capsys, *argv)
    assert time.perf_counter() - t0 < 2
    return result


@pytest.mark.parametrize("argv, code, error", [
    (["circular-florentine", str(BIG_PRIME)], 3, "ParamsOutOfRangeError"),
    (["circular-florentine", "2053"], 3, "ParamsOutOfRangeError"),
    (["circular-qfr", str(BIG_PRIME), "1"], 3, "ParamsOutOfRangeError"),
    (["circular-qfr", "3", "1000000"], 3, "ParamsOutOfRangeError"),
    (["circular-qfr", "3", "100000000"], 3, "ParamsOutOfRangeError"),
    (["circular-qfr", "2", "21"], 3, "ParamsOutOfRangeError"),
    (["circular-qfr", "2", "12"], 3, "ParamsOutOfRangeError"),
    (["extended-qfr", "2", "12"], 3, "ParamsOutOfRangeError"),
    (["extended-qfr", str(BIG_PRIME), "1"], 3, "ParamsOutOfRangeError"),
], ids=["florentine_huge_prime", "florentine_over_table_cap", "qfr_huge_prime",
        "qfr_n_1e6", "qfr_n_1e8", "qfr_over_field_cap", "qfr_over_table_cap",
        "extended_over_table_cap", "extended_huge_prime"])
def test_rect_builder_refusals(capsys, argv, code, error):
    got, out, err = _run_quick(capsys, "rect", *argv)
    assert got == code and out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("argv", [["bh", "verify"], ["bh", "load"],
                                  ["drcs", "build", "rect.json"]],
                         ids=["bh_verify", "bh_load", "drcs_build"])
def test_root_order_past_trial_division_refused(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rect.json").write_text(json.dumps({"N": 2, "n": 2, "rows": [[0, 1]]}))
    (tmp_path / "bh.json").write_text(
        json.dumps({"N": 2, "r": BIG_PRIME, "exps": [[0, 0], [0, 1]]}))
    code, out, err = _run_quick(capsys, *argv, "bh.json")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParamsOutOfRangeError"


def test_rect_verify_refuses_a_position_table_over_the_cap(tmp_path, capsys):
    # rows k, ..., k + 3 mod 4099 for k < 4096: C1 holds, and the C2
    # check's position table would hold 4096 x 4099 entries
    path = tmp_path / "windows.json"
    rows = (np.arange(4096)[:, None] + np.arange(4)) % 4099
    path.write_text(json.dumps({"N": 4099, "n": 4, "rows": rows.tolist()}))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "rect", "verify", str(path))
    assert time.perf_counter() - t0 < 1
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParamsOutOfRangeError"


def test_rect_product_over_table_cap_refused(tmp_path, capsys):
    # two valid single-row rectangles whose product is 1 x 10^10
    path = tmp_path / "row.json"
    n = 10 ** 5
    path.write_text(json.dumps({"N": n, "n": n, "rows": [list(range(n))]}))
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "rect", "product", str(path), str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 2
    assert peak < 32 * 2 ** 20
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParamsOutOfRangeError"


def _desk_tables(tmp_path, capsys):
    rect, bh = str(tmp_path / "rect.json"), str(tmp_path / "bh.json")
    assert run(capsys, "rect", "circular-qfr", "3", "2", "--out", rect)[0] == 0
    assert run(capsys, "bh", "dft", "9", "--out", bh)[0] == 0
    return rect, bh


@pytest.mark.parametrize("argv, error", [
    (["bh", "load", "{bad}"], "ParseError"),
    (["bh", "verify", "{bad}"], "ParseError"),
    (["bh", "kron", "{bh}", "{bad}"], "ParseError"),
    (["rect", "verify", "{bad}"], "ParseError"),
    (["rect", "product", "{rect}", "{bad}"], "ParseError"),
    (["drcs", "build", "{bad}", "{bh}"], "ParseError"),
    (["drcs", "build", "{rect}", "{bad}"], "ParseError"),
    (["drcs", "eval", "{bad}"], "SchemaError"),
    (["drcs", "grid", "{bad}", "--pair", "0", "0", "--out", "g.csv"], "SchemaError"),
    (["pipeline", "{bad}"], "ParseError"),
], ids=["bh_load", "bh_verify", "bh_kron", "rect_verify", "rect_product", "build_rect",
        "build_bh", "eval", "grid", "pipeline"])
def test_undecodable_file_exits_4(tmp_path, capsys, argv, error):
    """A file that is not UTF-8, -16 or -32 gets exit 4 and a JSON
    payload, not a UnicodeDecodeError traceback."""
    rect, bh = _desk_tables(tmp_path, capsys)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff")
    argv = [a.format(bad=bad, rect=rect, bh=bh) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    payload = json.loads(err)
    assert payload["error"] == error
    assert "cannot decode" in payload["message"]


LONG = "9" * 5000  # over Python's 4,300-digit limit on int(str)
DEEP = "[" * 600 + "]" * 600  # parsed by json, too deep to copy or write


def _write(tmp_path, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    return str(path)


def _written_rect(tmp_path, old, new):
    """A rectangle as the CLI writes it, with the text old replaced by new."""
    path = tmp_path / "r.json"
    assert main(["rect", "circular-qfr", "2", "2", "--out", str(path)]) == 0
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    return str(path)


@pytest.mark.parametrize("argv, make, error, prefix", [
    (["rect", "verify", "{}"], lambda d: _write(d, '{"N": %s, "n": 2, "rows": [[0, 1]]}' % LONG),
     "ParseError", "malformed JSON"),
    (["rect", "verify", "{}"], lambda d: _written_rect(d, '\n  "p": 2\n', '\n  "p": %s\n' % LONG),
     "ParseError", "malformed JSON"),
    (["drcs", "eval", "{}"],
     lambda d: _write(d, '{"K": 1, "M": 1, "L": 2, "r": %s, "flocks": [[[0, 1]]]}' % LONG),
     "SchemaError", "malformed JSON"),
    (["pipeline", "{}"], lambda d: _write(d, '{"steps": %s}' % ("[" * 100000 + "]" * 100000)),
     "ParseError", "malformed JSON"),
    (["rect", "verify", "{}"],
     lambda d: _written_rect(d, '"provenance": {', '"provenance": {"deep": %s,' % DEEP),
     "ParseError", "input nested too deep"),
    (["rect", "truncate", "{}", "0", "right"],
     lambda d: _written_rect(d, '"provenance": {', '"provenance": {"deep": %s,' % DEEP),
     "ParseError", "input nested too deep"),
], ids=["json_path_long_int", "header_long_int", "set_long_modulus", "deep_config",
        "deep_provenance", "deep_provenance_truncate"])
def test_malformed_input_exits_4_in_a_fresh_process(tmp_path, argv, make, error, prefix):
    """Inputs that json cannot convert or that nest too deep to walk, run
    as a fresh interpreter runs them: exit 4 and one JSON payload."""
    path = make(tmp_path)
    argv = [a.format(path) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "drcs_forge.cli", *argv], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=60)
    assert proc.returncode == 4 and proc.stdout == "", proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"] == error and payload["message"].startswith(prefix)


@pytest.mark.parametrize("encoding", ["utf-16", "utf-16-le", "utf-32"])
def test_utf16_and_utf32_inputs_are_read(tmp_path, capsys, encoding):
    rect, bh = _desk_tables(tmp_path, capsys)
    for path in (rect, bh):
        with open(path, "rb") as fh:
            data = fh.read().decode()
        with open(path, "wb") as fh:
            fh.write(data.encode(encoding))
    assert run(capsys, "bh", "verify", bh)[0] == 0
    assert run(capsys, "rect", "verify", rect)[0] == 0
    sset = str(tmp_path / "set.json")
    assert run(capsys, "drcs", "build", rect, bh, "--out", sset)[0] == 0
    cfg = tmp_path / "steps.json"
    cfg.write_bytes(json.dumps({"steps": [["drcs", "eval", sset]]}).encode(encoding))
    code, out, _ = run(capsys, "pipeline", str(cfg))
    assert code == 0 and json.loads(out)["theta"]["zone"] == [8, 8]


@pytest.mark.parametrize("argv, edit, error", [
    (["bh", "verify"], lambda o: o["exps"][1].__setitem__(1, True), "ParseError"),
    (["rect", "verify"], lambda o: o["rows"][0].__setitem__(1, False), "SchemaError"),
    (["drcs", "eval"], lambda o: o["flocks"][1][0].__setitem__(0, True), "SchemaError"),
], ids=["bh_exps", "rect_rows", "set_flocks"])
def test_utf16_boolean_in_a_table_refused(tmp_path, capsys, argv, edit, error):
    """The loaders look for booleans in the decoded text, so a UTF-16
    file, whose bytes never spell true, still has them refused."""
    if argv[0] == "bh":
        obj = {"N": 2, "r": 2, "exps": [[0, 0], [0, 1]]}
    elif argv[0] == "rect":
        obj = {"N": 3, "n": 2, "rows": [[0, 1], [1, 2]]}
    else:
        obj = _set_json(tmp_path, capsys)
    edit(obj)
    bad = tmp_path / "bad.json"
    bad.write_bytes(json.dumps(obj).encode("utf-16"))
    code, out, err = run(capsys, *argv, str(bad))
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("argv, make", [
    (["rect", "circular-qfr", "3", "2"], lambda: build_circular_quasi_florentine(3, 2)),
    (["rect", "circular-florentine", "7"], lambda: build_circular_florentine(7)),
    (["rect", "extended-qfr", "3", "2"], lambda: build_extended_quasi_florentine(3, 2)),
    (["bh", "dft", "12"], lambda: dft_matrix(12)),
    (["bh", "walsh", "3"], lambda: walsh_hadamard(3)),
], ids=["circular_qfr", "florentine", "extended_qfr", "dft", "walsh"])
def test_builder_stdout_is_json_dumps_of_to_json(tmp_path, capsys, argv, make):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(make().to_json(), sort_keys=True, indent=1) + "\n"
    path = tmp_path / "out.json"
    assert run(capsys, *argv, "--out", str(path))[0] == 0
    assert path.read_text() == out


def test_missing_input_file(capsys, tmp_path):
    code, _, err = run(capsys, "rect", "verify", str(tmp_path / "ghost.json"))
    assert code == 4


def test_nonprime_rejected(capsys):
    code, _, err = run(capsys, "rect", "circular-qfr", "4", "1")
    assert code == 2
    assert "error" in json.loads(err)


def test_deterministic_output(tmp_path, capsys):
    p1, p2 = str(tmp_path / "x1.json"), str(tmp_path / "x2.json")
    run(capsys, "rect", "circular-qfr", "3", "2", "--out", p1)
    run(capsys, "rect", "circular-qfr", "3", "2", "--out", p2)
    assert pathlib.Path(p1).read_bytes() == pathlib.Path(p2).read_bytes()
