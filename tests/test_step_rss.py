"""tools/step_rss.py: a line of time and memory per step of one pass."""

import json
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "step_rss.py"


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
