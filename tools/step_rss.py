#!/usr/bin/env python3
"""Time and memory of each step of one benchmark pass.

Usage, from the root of a checkout (Linux only):

    python3 tools/step_rss.py WORKLOAD SEED
    python3 tools/step_rss.py --read PATH

WORKLOAD is a perfbench workload: eval-many, eval-long or construct. The
tool writes its inputs from SEED into a temporary directory, as
perfbench/run.py does (through perfbench/workloads.py), then runs the
pass's CLI steps in order in one fresh Python process, each through
drcs_forge.cli.main as perfbench/passrun.py runs them. That process
prints one JSON line per step: argv, exit code (rc), seconds (s), and
VmHWM and VmRSS in kB from /proc/self/status. The first line, with argv
[], is the state once drcs_forge.cli is imported. The steps' own
stdout is discarded. Every step runs; the tool then exits 1 if any
step's exit code was not 0.

With --read, the tool instead reads the set file PATH once with
drcs_forge.drcs.import_drcs, cold, in its own fresh process, and prints
one JSON line: path, seconds (s), the set array's dtype and nbytes, and
VmHWM and VmRSS in kB before and after the read. That is the reader's
own peak, with no benchmark runner around it; its growth less nbytes is
what the reader holds beside the array.

VmHWM starts afresh when a process is exec'd, so these lines show the
pass's own peak. perfbench's peak_rss_mb reads ru_maxrss, which a child
starts at its parent's high-water mark, so it cannot show a pass that
peaks below the runner. VmHWM never falls: a step's own peak shows
where it raises the value of the line before.
"""

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def memory():
    """VmHWM and VmRSS of this process, in kB."""
    out = {}
    with open("/proc/self/status") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                out[key + "_kb"] = int(value.split()[0])
    return out


def child(steps_path):
    """Run the steps in steps_path, printing a line after each; 1 if any
    step failed, else 0."""
    with open(steps_path) as fh:
        steps = json.load(fh)
    from passrun import run_step

    from drcs_forge import cli

    print(json.dumps({"argv": [], "rc": None, "s": 0.0, **memory()}), flush=True)
    failed = False
    with open(os.devnull, "w") as devnull:
        for argv in steps:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(devnull):
                rc = run_step(cli.main, argv)
            line = {"argv": argv, "rc": rc, "s": round(time.perf_counter() - t0, 6), **memory()}
            print(json.dumps(line), flush=True)
            failed = failed or rc != 0
    return 1 if failed else 0


def read(path):
    """Read the set file path once, printing time and memory around it."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from drcs_forge.drcs import import_drcs

    before = memory()
    t0 = time.perf_counter()
    flocks = import_drcs(path).flocks
    line = {"path": path, "s": round(time.perf_counter() - t0, 6), "dtype": str(flocks.dtype),
            "nbytes": flocks.nbytes, "before": before, "after": memory()}
    print(json.dumps(line), flush=True)
    return 0


def main(argv=None):
    sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]
    import run
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("seed", type=int)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        in_dir, pass_dir = os.path.join(tmp, "in"), os.path.join(tmp, "pass")
        os.makedirs(in_dir)
        os.makedirs(pass_dir)
        steps = workloads.WORKLOADS[args.workload](in_dir, args.seed)
        steps_path = os.path.join(tmp, "steps.json")
        with open(steps_path, "w") as fh:
            json.dump([s.argv for s in steps], fh)
        env = run.child_env()
        env["PYTHONPATH"] = os.pathsep.join([PERFBENCH, env["PYTHONPATH"]])
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", steps_path],
                              cwd=pass_dir, env=env)
    return proc.returncode


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(child(sys.argv[2]))
    if sys.argv[1:2] == ["--read"] and len(sys.argv) == 3:
        sys.exit(read(sys.argv[2]))
    sys.exit(main())
