import json

import pytest

from drcs_forge.cli import main


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


def test_build_out_to_missing_dir(tmp_path, capsys):
    rect = str(tmp_path / "r.json")
    bh = str(tmp_path / "h.json")
    run(capsys, "rect", "circular-qfr", "3", "2", "--out", rect)
    run(capsys, "bh", "dft", "9", "--out", bh)
    code, _, err = run(capsys, "drcs", "build", rect, bh,
                       "--out", str(tmp_path / "missing" / "s.json"))
    assert code == 4
    assert json.loads(err)["error"] == "ParseError"


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


@pytest.mark.parametrize("edit", [
    _flocks_with_float,
    lambda obj: obj.update(zone="ab"),
    lambda obj: obj.update(zone=[3, "x"]),
    lambda obj: obj.update(r="x"),
    lambda obj: obj.update(r=2.5),
], ids=["exponent_1.7", "zone_ab", "zone_item_x", "r_x", "r_2.5"])
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
], ids=["row_1.9", "row_str", "N_3.5", "n_str"])
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
], ids=["exps_float", "r_x", "N_bool"])
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
    bad.write_text(json.dumps({"N": 3, "n": 3, "rows": [[0, 0, 1]]}))
    code, out, _ = run(capsys, "rect", "verify", str(bad))
    assert code == 2
    obj = json.loads(out)
    assert not obj["c1"] and obj["c1_witness"] is not None


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


def test_rect_product_matches_library(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    d = str(tmp_path / "d.json")
    run(capsys, "rect", "circular-florentine", "7", "--out", a)
    run(capsys, "rect", "circular-qfr", "3", "2", "--out", b)
    assert run(capsys, "rect", "product", a, b, "--out", d)[0] == 0
    obj = json.loads(open(d).read())
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
    obj = json.loads(open(report).read())
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
    assert open(p1, "rb").read() == open(p2, "rb").read()
