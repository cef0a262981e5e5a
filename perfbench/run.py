#!/usr/bin/env python3
"""drcs-forge benchmark: CLI workloads timed end to end, plus a traced pass.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eval-many --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run writes the workload's inputs from the seed (untimed), then repeats
passes for about ``--seconds``. A pass runs the workload's CLI steps in
order in one fresh Python process (``passrun.py``); the parent checks
every step's output (``check.py``). With ``--trace 0`` the passes are
untraced and short set-up probes (import only) run between them; the
last line of stdout is a JSON object with the end-to-end metrics. With
``--trace 1`` untraced and traced passes alternate and the JSON carries
the per-layer metrics of the traced passes (``spans.py``). Lines before
the JSON hold the environment record and a table of every step metric.

``--workload all`` runs the three workloads in turn and prints one table.
Passes run one at a time, so the program never has more threads than
its own (numpy's BLAS pool, sized by nproc).
"""

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
PASSRUN = os.path.join(HERE, "passrun.py")

PROBES_PER_PASS = 2
MIN_PASSES = 2
PASS_TIMEOUT_S = 150
STEP_KINDS = {"eval_s": "eval", "paranoid_s": "paranoid", "grid_s": "grid", "build_s": "build"}
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PERCENTILES = (99.9, 99.0, 90.0, 50.0)


# --- environment ---

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads(numpy):
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    for path in glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*"):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(numpy),
        "DRCS_FORGE_THREADS": child_env().get("DRCS_FORGE_THREADS"),
        "commit": _commit(),
        "seed": seed,
    }


def child_env():
    env = dict(os.environ)
    env.pop("DRCS_FORGE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


# --- statistics ---

def describe(values):
    """Median, plus the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "tail": None}
    for p in PERCENTILES:
        k = max(0, math.ceil(p / 100.0 * n) - 1)  # nearest rank
        if n - 1 - k >= 10:
            out["tail"] = {"p": p, "value": values[k]}
            break
    return out


# --- one run ---

class Run:
    """Inputs, passes and checks of one workload at one seed."""

    def __init__(self, workload, seed, make=None, work=WORK):
        import check
        import workloads

        self.workload = workload
        self.seed = seed
        self.work = work
        self.dir = os.path.join(work, "%s-s%d-p%d" % (workload, seed, os.getpid()))
        os.makedirs(os.path.join(self.dir, "in"))
        make = make or workloads.WORKLOADS[workload]
        self.steps = make(os.path.join(self.dir, "in"), seed)
        self.checker = check.Checker(self.steps)
        self.env = child_env()
        self.untraced, self.traced, self.setups = [], [], []
        self.attempted = self.failed = 0
        self.problems = []
        self.spawned = 0

    def spawn(self, steps, traced):
        """Run passrun.py once; the parsed result, or None if it broke."""
        pass_id = self.spawned
        self.spawned += 1
        pdir = os.path.join(self.dir, "pass%d" % pass_id)
        os.makedirs(pdir)
        spec = {"steps": [s.argv for s in steps], "cwd": pdir, "trace": traced,
                "pass_id": pass_id, "result": os.path.join(pdir, "result.json")}
        spec_path = os.path.join(pdir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        with open(os.path.join(pdir, "stdout.txt"), "w") as out, \
                open(os.path.join(pdir, "stderr.txt"), "w") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable, PASSRUN, spec_path], stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            try:
                proc.wait(timeout=PASS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        res = None
        if proc.returncode == 0 and os.path.isfile(spec["result"]):
            with open(spec["result"]) as fh:
                res = json.load(fh)
            res["setup_s"] = res["t_ready"] - t_spawn
            res["pass_s"] = res["t_done"] - t_spawn
        return res, pdir

    def probe(self):
        res, pdir = self.spawn([], False)
        shutil.rmtree(pdir)
        if res is None:
            raise RuntimeError("set-up probe failed; see the program's import errors")
        return res["setup_s"]

    def one_pass(self, traced):
        res, pdir = self.spawn(self.steps, traced)
        if res is None:
            self.attempted += len(self.steps)
            self.failed += len(self.steps)
            with open(os.path.join(pdir, "stderr.txt")) as fh:
                tail = fh.read()[-400:]
            self.problems.append("pass %s broke: %s" % (os.path.basename(pdir), tail))
        else:
            for i, st in enumerate(res["steps"]):
                self.attempted += 1
                problem = self.checker.check_step(i, pdir, st["rc"])
                if problem:
                    self.failed += 1
                    self.problems.append("%s step %d %r: %s" % (
                        os.path.basename(pdir), i, " ".join(self.steps[i].argv), problem))
            (self.traced if traced else self.untraced).append(res)
        shutil.rmtree(pdir)
        return res

    def measure(self, seconds, trace):
        """Passes until the next one would end after ``seconds``."""
        t0 = time.monotonic()
        self.probe()  # warm-up: bytecode caches and page cache, not counted
        n = 0
        while True:
            t_iter = time.monotonic()
            if not trace:
                for _ in range(PROBES_PER_PASS):
                    self.setups.append(self.probe())
            res = self.one_pass(traced=trace and n % 2 == 1)
            if res is None:  # the run is wrong already; do not wait on more
                break
            if not trace:
                self.setups.append(res["setup_s"])
            n += 1
            now = time.monotonic()
            if n >= MIN_PASSES and now - t0 + (now - t_iter) > seconds:
                break

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(self.work)
        except OSError:
            pass

    # --- metrics ---

    def step_times(self, kind):
        idx = [i for i, s in enumerate(self.steps) if s.kind == kind]
        if not idx:
            return []
        return [sum(p["steps"][i]["s"] for i in idx) for p in self.untraced]

    def end_to_end(self):
        """Every end-to-end series: name -> (unit, samples)."""
        series = {
            "pass_s": ("s", [p["pass_s"] for p in self.untraced]),
            "setup_s": ("s", self.setups),
            "peak_rss_mb": ("MB", [p["maxrss_kb"] / 1024.0 for p in self.untraced]),
        }
        for name, kind in STEP_KINDS.items():
            series[name] = ("s", self.step_times(kind))
        return series

    def per_layer(self):
        import spans

        per_pass = [spans.layer_metrics(p["trace"]) for p in self.traced]
        for m in per_pass:
            layer_sum = sum(m[k] for k in spans.TIME_METRICS)
            if abs(layer_sum - m["trace.steps_s"]) > 1e-6:
                self.problems.append("layer self times add up to %r, steps took %r"
                                     % (layer_sum, m["trace.steps_s"]))
        out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        out["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in self.traced)
                                   - statistics.median(p["pass_s"] for p in self.untraced))
        return out


LAYER_UNITS = {"_s": "s", ".s": "s", "_mb": "MB", "bytes_written": "bytes",
               "bytes_read": "bytes", "per_matrix": "ratio", "per_needed": "ratio"}


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns (result dict for the JSON line, table lines)."""
    run = Run(workload, seed)
    try:
        run.measure(seconds, trace)
    finally:
        run.close()
    lines = ["workload %s seed %d: %d untraced, %d traced passes of %d steps"
             % (workload, seed, len(run.untraced), len(run.traced), len(run.steps))]
    metrics = {}
    if trace:
        if run.traced and run.untraced:
            for name, value in run.per_layer().items():
                metrics[name] = {"value": value, "unit": layer_unit(name)}
                lines.append("  %-28s %-6s %.6g" % (name, layer_unit(name), value))
    else:
        lines.append("  %-14s %-5s %-12s %-18s %-4s %s" % ("metric", "unit", "median", "tail", "n",
                                                          "min..max"))
        for name, (unit, values) in run.end_to_end().items():
            if not values:
                lines.append("  %-14s %-5s %-12s" % (name, unit, "(no such step)"))
                continue
            d = describe(values)
            tail = "p%g=%.6g" % (d["tail"]["p"], d["tail"]["value"]) if d["tail"] else "-"
            lines.append("  %-14s %-5s %-12.6g %-18s %-4d %.6g..%.6g" % (
                name, unit, d["median"], tail, d["n"], min(values), max(values)))
            if name in END_TO_END:
                metrics[name] = {"value": d["median"], "unit": unit}
        lines.append("  %-14s %-5s %.6g (%d of %d steps)" % (
            "failed_steps", "frac", run.failed / max(run.attempted, 1), run.failed,
            run.attempted))
    lines += ["  problem: " + p for p in run.problems[:10]]
    ok = (run.failed == 0 and not run.problems and bool(run.untraced)
          and (bool(run.traced) or not trace))
    return {"correct": ok, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("eval-many", "eval-long", "construct", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "drcs_forge", "cli.py")):
        sys.stderr.write("perfbench: no drcs_forge sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    names = ("eval-many", "eval-long", "construct") if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {"%s.%s" % (n, k): v for n, r in results for k, v in r["metrics"].items()},
        }
    sys.stdout.flush()
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
