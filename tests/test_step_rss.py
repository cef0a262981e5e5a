"""tools/step_rss.py: a line of time and memory per step of one pass."""

import json
import os
import pathlib
import subprocess
import sys

from drcs_forge.drcs import build_drcs, export_drcs
from drcs_forge.hadamard import dft_matrix
from drcs_forge.rectangles import build_circular_quasi_florentine

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "step_rss.py"


def test_eval_many_pass():
    proc = subprocess.run([sys.executable, str(TOOL), "eval-many", "1"], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [line["argv"][:2] for line in lines] == [[], ["drcs", "eval"], ["drcs", "eval"]]
    assert lines[0]["rc"] is None and [line["rc"] for line in lines[1:]] == [0, 0]
    assert all(line["s"] >= 0 for line in lines)
    hwm = [line["VmHWM_kb"] for line in lines]
    assert hwm == sorted(hwm)
    assert all(0 < line["VmRSS_kb"] <= line["VmHWM_kb"] for line in lines)


def test_a_failing_step_fails_the_pass(tmp_path):
    steps = tmp_path / "steps.json"
    steps.write_text(json.dumps([["drcs", "eval", "missing.json"], ["bh", "dft", "0"],
                                 ["bh", "dft", "2"]]))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, str(TOOL), "--child", str(steps)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    # every step still runs and prints its line
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [line["rc"] for line in lines] == [None, 4, 3, 0]
    assert proc.returncode == 1


def test_read_a_set(tmp_path):
    path = str(tmp_path / "s.json")
    export_drcs(build_drcs(build_circular_quasi_florentine(3, 2), dft_matrix(9)), path)
    proc = subprocess.run([sys.executable, str(TOOL), "--read", path], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    (line,) = [json.loads(text) for text in proc.stdout.splitlines()]
    assert line["path"] == path and line["s"] >= 0
    # r = 9: one byte an entry
    assert line["dtype"] == "int8" and line["nbytes"] == 9 * 9 * 8
    before, after = line["before"], line["after"]
    assert before["VmHWM_kb"] <= after["VmHWM_kb"]
    assert all(0 < m["VmRSS_kb"] <= m["VmHWM_kb"] for m in (before, after))
