"""Output checker: decides, step by step, whether a pass got it right.

A step fails when it exits non-zero, writes no output, or its output
does not show what its kind promises. The first time a step's output is
seen in a run it gets the full check (including a reimport of built
sets, rectangles and tables with their expected shapes); from then on
the output must be byte-identical to that checked one. Failed steps
over attempted steps is the benchmark's ``failed_steps``.
"""

import hashlib
import json
import os

from drcs_forge.bounds import af_lower_bound
from drcs_forge.drcs import import_drcs
from drcs_forge.errors import DrcsForgeError
from drcs_forge.hadamard import PhaseMatrix
from drcs_forge.rectangles import Rectangle

THETA_TOL = 1e-6
RHO_RTOL = 1e-9


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def check_eval(step, path):
    e = step.expect
    K, M, L, Z = e["K"], e["M"], e["L"], e["zone"]
    out = _load(path)
    th, b = out["theta"], out["bound"]
    if th["theta_a"] > THETA_TOL:
        return "theta_a = %r off the origin" % th["theta_a"]
    if abs(th["theta_c"] - M) > THETA_TOL:
        return "theta_c = %r, want M = %d" % (th["theta_c"], M)
    if th["zone"] != [Z, Z]:
        return "zone %r, want [%d, %d]" % (th["zone"], Z, Z)
    if b.get("infeasible"):
        return "bound reported infeasible"
    want = {"K": K, "M": M, "N_len": L, "Z_x": Z, "Z_y": Z}
    if b["bound_params"] != want:
        return "bound params %r, want %r" % (b["bound_params"], want)
    ref = af_lower_bound(K, M, L, Z, Z)["bound"]
    if abs(b["bound"] - ref) > RHO_RTOL * ref:
        return "bound %r, af_lower_bound gives %r" % (b["bound"], ref)
    if abs(b["rho"] - th["theta_max"] / ref) > RHO_RTOL * b["rho"]:
        return "rho %r != theta_max / bound" % b["rho"]
    if step.kind == "paranoid" and out.get("paranoid") != "ok":
        return "paranoid check did not report ok"
    return None


def check_grid(step, path):
    w = 2 * step.expect["zone"] - 1
    fmt = step.expect["format"]
    with open(path, "rb") as fh:
        data = fh.read()
    if fmt == "pgm":
        header = b"P5\n%d %d\n65535\n" % (w, w)
        if not data.startswith(header):
            return "PGM header %r, want %r" % (data[: len(header)], header)
        if len(data) != len(header) + 2 * w * w:
            return "PGM holds %d bytes, want %d" % (len(data), len(header) + 2 * w * w)
        return None
    lines = data.decode().splitlines()
    if fmt == "cells":
        if lines[0] != "tau,nu,re,im,abs" or len(lines) != 1 + w * w:
            return "cell CSV has %d lines, want %d plus a header" % (len(lines), w * w)
        return None
    if len(lines) != w or any(line.count(",") != w - 1 for line in lines):
        return "magnitude CSV is not %d x %d" % (w, w)
    return None


def check_rect_verify(step, path):
    out = _load(path)
    if out.get("c1") is not True or out.get("c2") is not True:
        return "rect verify: c1=%r c2=%r" % (out.get("c1"), out.get("c2"))
    if out["circular"] != step.expect["circular"]:
        return "rect verify ran with circular=%r" % out["circular"]
    return None


def check_bh_verify(step, path):
    out = _load(path)
    if out.get("butson") is not True or out["N"] != step.expect["N"]:
        return "bh verify: butson=%r N=%r" % (out.get("butson"), out.get("N"))
    return None


def check_rect_build(step, path):
    R = Rectangle.from_json(_load(path))
    e = step.expect
    if (R.N, R.nrows, R.ncols) != (e["N"], e["rows"], e["cols"]):
        return "rectangle is %r, want N=%d %dx%d" % (R, e["N"], e["rows"], e["cols"])
    return None


def check_bh_build(step, path):
    B = PhaseMatrix.from_json(_load(path))
    if (B.N, B.r) != (step.expect["N"], step.expect["r"]):
        return "table is %r, want N=%d r=%d" % (B, step.expect["N"], step.expect["r"])
    return None


def check_build(step, path):
    S = import_drcs(path)
    e = step.expect
    if (S.K, S.M, S.L) != (e["K"], e["M"], e["L"]):
        return "set reimports as %r, want K=%d M=%d L=%d" % (S, e["K"], e["M"], e["L"])
    return None


CHECKS = {
    "eval": check_eval,
    "paranoid": check_eval,
    "grid": check_grid,
    "rect_verify": check_rect_verify,
    "bh_verify": check_bh_verify,
    "rect_build": check_rect_build,
    "bh_build": check_bh_build,
    "build": check_build,
}


class Checker:
    """Per-run state: the digest of each step's first checked output."""

    def __init__(self, steps):
        self.steps = steps
        self.digests = {}

    def check_step(self, i, pass_dir, rc):
        """None when step i of the pass in pass_dir is right, else why not."""
        step = self.steps[i]
        if rc != 0:
            return "exit code %r" % rc
        path = os.path.join(pass_dir, step.out)
        if not os.path.isfile(path):
            return "no output %s" % step.out
        d = digest(path)
        ref = self.digests.get(i)
        if ref is not None:
            return None if d == ref else "output differs from the first pass of this seed"
        try:
            problem = CHECKS[step.kind](step, path)
        except (DrcsForgeError, ValueError, KeyError, TypeError, IndexError) as exc:
            problem = "unreadable output: %s: %s" % (type(exc).__name__, exc)
        if problem is None:
            self.digests[i] = d
        return problem
