"""One pass of a workload, in a fresh process.

Usage: python3 passrun.py SPEC.json

SPEC holds the steps (argv lists for ``drcs_forge.cli.main``), the
directory they run in, whether to trace, the pass id, and where to write
the result. Each step calls ``cli.main`` in this process, the way
``drcs-forge pipeline`` does. The result records monotonic-clock stamps
(comparable with the parent's on one machine), each step's exit code and
duration, the process's peak RSS, and, when traced, the spans.
"""

import json
import os
import resource
import sys
import time
import traceback


def run_step(main, argv):
    """Exit code of one CLI step; a crash counts as exit code -1."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return -1


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    from drcs_forge import cli

    t_ready = time.monotonic()
    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.Recorder(spec["pass_id"])
        recorder.install()
    os.chdir(spec["cwd"])
    steps = []
    for argv in spec["steps"]:
        t0 = time.perf_counter()
        if recorder:
            with recorder.step():
                rc = run_step(cli.main, argv)
        else:
            rc = run_step(cli.main, argv)
        steps.append({"rc": rc, "s": time.perf_counter() - t0})
    t_done = time.monotonic()
    result = {
        "t_ready": t_ready,
        "t_done": t_done,
        "steps": steps,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder:
        result["trace"] = recorder.dump()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
