"""Command-line front end: construction, verification, evaluation.

Thin composition of the library modules. All artifacts are JSON with
sorted keys and no timestamps, so identical inputs give byte-identical
outputs; grids additionally export CSV or 16-bit PGM. Exit codes:
0 ok, 2 validation failure, 3 infeasible parameters, 4 I/O trouble.
Errors go to stderr as one JSON object per failure.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import ambiguity, bounds, oracles
from .drcs import Zone, build_drcs, export_drcs, import_drcs
from .errors import (
    DrcsForgeError,
    InfeasibleError,
    MismatchError,
    ParamsOutOfRangeError,
    ParseError,
)
from .hadamard import PhaseMatrix, dft_matrix, kronecker, load_seed, verify_bh, walsh_hadamard
from .rectangles import (
    Rectangle,
    build_circular_florentine,
    build_circular_quasi_florentine,
    build_extended_quasi_florentine,
    c1_witness,
    c2_witness,
    product_construct,
    search_max_rows,
    truncate_columns,
    verify_c1,
)


def _dump(obj):
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _write(text, out=None):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError("cannot write %s: %s" % (out, exc)) from None
    else:
        sys.stdout.write(text)


def _emit(obj, out=None):
    _write(_dump(obj), out)


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise ParseError("malformed JSON in %s: %s" % (path, exc)) from None


def _load_rect(path):
    return Rectangle.from_json(_read_json(path))


# --- rect ---

def cmd_rect(args):
    if args.rect_cmd == "circular-florentine":
        _emit(build_circular_florentine(args.N).to_json(), args.out)
    elif args.rect_cmd == "circular-qfr":
        _emit(build_circular_quasi_florentine(args.p, args.n).to_json(), args.out)
    elif args.rect_cmd == "extended-qfr":
        _emit(build_extended_quasi_florentine(args.p, args.n).to_json(), args.out)
    elif args.rect_cmd == "truncate":
        R = truncate_columns(_load_rect(args.file), args.k, args.side)
        _emit(R.to_json(), args.out)
    elif args.rect_cmd == "product":
        D = product_construct(_load_rect(args.fileA), _load_rect(args.fileB))
        _emit(D.to_json(), args.out)
    elif args.rect_cmd == "verify":
        R = _load_rect(args.file)
        out = {"N": R.N, "rows": R.nrows, "cols": R.ncols, "circular": args.circular}
        out["c1"] = verify_c1(R)
        if not out["c1"]:
            i, v = c1_witness(R)
            out["c1_witness"] = {"row": i, "symbol": v}
            _emit(out, args.out)
            return 2
        wit = c2_witness(R, circular=args.circular)
        out["c2"] = wit is None
        if wit is not None:
            out["c2_witness"] = wit
            _emit(out, args.out)
            return 2
        _emit(out, args.out)
    elif args.rect_cmd == "search":
        R, cert = search_max_rows(args.N, args.n, circular=args.circular,
                                  row_cap=args.row_cap)
        _emit({"rectangle": R.to_json(), "certificate": cert}, args.out)
    return 0


# --- bh ---

def cmd_bh(args):
    if args.bh_cmd == "dft":
        _emit(dft_matrix(args.N).to_json(), args.out)
    elif args.bh_cmd == "walsh":
        _emit(walsh_hadamard(args.m).to_json(), args.out)
    elif args.bh_cmd == "kron":
        if len(args.files) < 2:
            raise ParamsOutOfRangeError("kron needs at least two files")
        mats = [load_seed(f) for f in args.files]
        _emit(functools.reduce(kronecker, mats).to_json(), args.out)
    elif args.bh_cmd == "load":
        _emit(load_seed(args.file).to_json(), args.out)
    elif args.bh_cmd == "verify":
        B = PhaseMatrix.from_json(_read_json(args.file))
        ok = verify_bh(B)
        _emit({"N": B.N, "r": B.r, "butson": ok}, args.out)
        return 0 if ok else 2
    return 0


# --- drcs ---

def _paranoid_check(S, zone):
    """Rerun every ordered pair through both grid paths and spot-check
    single cells against the definition-literal sum."""
    tol_grid = 1e-7 * S.M * S.L
    for k1 in range(S.K):
        for k2 in range(S.K):
            g_naive = ambiguity.af_grid(S.flock(k1), S.flock(k2), zone, S.r, "naive")
            g_fft = ambiguity.af_grid(S.flock(k1), S.flock(k2), zone, S.r, "fft")
            dev = float(np.max(np.abs(g_naive.values - g_fft.values)))
            if dev > tol_grid:
                raise MismatchError(
                    "grid paths disagree on pair (%d, %d): max deviation %g"
                    % (k1, k2, dev)
                )
    rng = np.random.default_rng(0)
    tol_cell = 1e-9 * S.L
    for _ in range(50):
        k1, k2 = rng.integers(0, S.K, size=2)
        m = int(rng.integers(0, S.M))
        tau = int(rng.integers(-zone.Z_x + 1, zone.Z_x))
        nu = int(rng.integers(-zone.Z_y + 1, zone.Z_y))
        fast = ambiguity.af_pair(S.flocks[k1, m], S.flocks[k2, m], S.r, tau, nu)
        slow = oracles.naive_af(S.flocks[k1, m].tolist(), S.flocks[k2, m].tolist(),
                                S.r, tau, nu)
        if abs(fast - slow) > tol_cell:
            raise MismatchError(
                "cell (%d,%d,m=%d,tau=%d,nu=%d) disagrees with the literal sum"
                % (k1, k2, m, tau, nu)
            )


def cmd_drcs(args):
    if args.drcs_cmd == "build":
        A = _load_rect(args.rect)
        B = load_seed(args.bh)
        S = build_drcs(A, B)
        if args.out:
            export_drcs(S, args.out)
        else:
            _emit(S.to_json())
        return 0
    if args.drcs_cmd == "eval":
        S = import_drcs(args.set)
        zone = Zone(*args.zone) if args.zone else S.zone
        rep = ambiguity.theta_max(S, zone, args.method)
        out = {"theta": rep.to_json()}
        if args.paranoid:
            _paranoid_check(S, zone)
            out["paranoid"] = "ok"
        try:
            out["bound"] = bounds.optimality_factor(S, rep).to_json()
        except InfeasibleError:
            flags = bounds.af_lower_bound(S.K, S.M, S.L, zone.Z_y, zone.Z_x)
            out["bound"] = {"infeasible": True, "flags": flags}
        _emit(out, args.out)
        return 0
    if args.drcs_cmd == "report":
        S = import_drcs(args.set)
        rep = ambiguity.theta_max(S)
        br = bounds.optimality_factor(S, rep)
        header = "K M L Z_x Z_y theta bound rho"
        row = "%d %d %d %d %d %.4f %.4f %.4f" % (
            br.K, br.M, br.N_len, br.Z_x, br.Z_y, br.theta, br.bound, br.rho
        )
        _write(header + "\n" + row + "\n", args.out)
        return 0
    if args.drcs_cmd == "grid":
        S = import_drcs(args.set)
        k1, k2 = args.pair
        if not (0 <= k1 < S.K and 0 <= k2 < S.K):
            raise ParamsOutOfRangeError("pair indices must lie in [0, %d)" % S.K)
        kind = "auto" if k1 == k2 else "cross"
        g = ambiguity.af_grid(S.flock(k1), S.flock(k2), S.zone, S.r, args.method, kind,
                              (k1, k2))
        out = args.out
        try:
            if out.endswith(".pgm"):
                with open(out, "wb") as fh:
                    ambiguity.write_pgm(g, fh)
            elif out.endswith(".csv"):
                with open(out, "w") as fh:
                    if args.matrix:
                        ambiguity.write_magnitude_csv(g, fh)
                    else:
                        ambiguity.write_cells_csv(g, fh)
            else:
                raise ParamsOutOfRangeError("--out must end in .csv or .pgm")
        except OSError as exc:
            raise ParseError("cannot write %s: %s" % (out, exc)) from None
        return 0
    return 0


def cmd_pipeline(args):
    """Run a list of CLI steps from a config file: {"steps": [[...], ...]}.
    A config that runs itself, directly or through another, is refused."""
    path = os.path.realpath(args.config)
    if path in args.pipelines:
        raise ParseError("pipeline config %s runs itself" % args.config)
    cfg = _read_json(args.config)
    steps = cfg.get("steps") if isinstance(cfg, dict) else None
    if not isinstance(steps, list) or not all(isinstance(s, list) for s in steps):
        raise ParseError("pipeline config needs a steps list of argv lists")
    for step in steps:
        rc = _main([str(x) for x in step], args.pipelines + (path,))
        if rc != 0:
            return rc
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="drcs-forge",
        description="construct and evaluate Doppler-resilient complementary sequence sets",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    rect = sub.add_parser("rect", help="rectangle construction and verification")
    rsub = rect.add_subparsers(dest="rect_cmd", required=True)
    r = rsub.add_parser("circular-florentine", help="rows (i+1)*j mod N")
    r.add_argument("N", type=int)
    r.add_argument("--out")
    r = rsub.add_parser("circular-qfr", help="field-based p^n x (p^n - 1) rectangle")
    r.add_argument("p", type=int)
    r.add_argument("n", type=int)
    r.add_argument("--out")
    r = rsub.add_parser("extended-qfr", help="qfr plus a constant extra-symbol column")
    r.add_argument("p", type=int)
    r.add_argument("n", type=int)
    r.add_argument("--out")
    r = rsub.add_parser("truncate", help="drop k columns from one side")
    r.add_argument("file")
    r.add_argument("k", type=int)
    r.add_argument("side", choices=("left", "right"))
    r.add_argument("--out")
    r = rsub.add_parser("product", help="alphabet-product of two rectangles")
    r.add_argument("fileA")
    r.add_argument("fileB")
    r.add_argument("--out")
    r = rsub.add_parser("verify", help="check C1 and C2, print witnesses")
    r.add_argument("file")
    r.add_argument("--circular", action="store_true")
    r.add_argument("--out")
    r = rsub.add_parser("search", help="exhaustive max-rows search at tiny N")
    r.add_argument("N", type=int)
    r.add_argument("n", type=int)
    r.add_argument("--circular", action="store_true")
    r.add_argument("--row-cap", type=int, default=None)
    r.add_argument("--out")

    bh = sub.add_parser("bh", help="Butson matrix construction and verification")
    bsub = bh.add_subparsers(dest="bh_cmd", required=True)
    b = bsub.add_parser("dft", help="Fourier matrix of order N")
    b.add_argument("N", type=int)
    b.add_argument("--out")
    b = bsub.add_parser("walsh", help="Sylvester matrix of order 2^m")
    b.add_argument("m", type=int)
    b.add_argument("--out")
    b = bsub.add_parser("kron", help="Kronecker product of two or more matrices")
    b.add_argument("files", nargs="+")
    b.add_argument("--out")
    b = bsub.add_parser("load", help="load and verify a seed file")
    b.add_argument("file")
    b.add_argument("--out")
    b = bsub.add_parser("verify", help="check the Butson property")
    b.add_argument("file")
    b.add_argument("--out")

    dr = sub.add_parser("drcs", help="sequence-set assembly and evaluation")
    dsub = dr.add_subparsers(dest="drcs_cmd", required=True)
    d = dsub.add_parser("build", help="assemble a set from rectangle + Butson files")
    d.add_argument("rect")
    d.add_argument("bh")
    d.add_argument("--out")
    d = dsub.add_parser("eval", help="peak scan plus bound comparison")
    d.add_argument("set")
    d.add_argument("--zone", nargs=2, type=int, metavar=("ZX", "ZY"))
    d.add_argument("--method", choices=("naive", "fft"), default="fft")
    d.add_argument("--paranoid", action="store_true")
    d.add_argument("--out")
    d = dsub.add_parser("report", help="one table-style summary row")
    d.add_argument("set")
    d.add_argument("--out")
    d = dsub.add_parser("grid", help="export one pair's ambiguity grid")
    d.add_argument("set")
    d.add_argument("--pair", nargs=2, type=int, required=True, metavar=("K1", "K2"))
    d.add_argument("--method", choices=("naive", "fft"), default="fft")
    d.add_argument("--matrix", action="store_true",
                   help="write the magnitude matrix instead of cell rows (.csv)")
    d.add_argument("--out", required=True)

    pl = sub.add_parser("pipeline", help="run steps from a JSON config")
    pl.add_argument("config")

    return ap


_DISPATCH = {"rect": cmd_rect, "bh": cmd_bh, "drcs": cmd_drcs, "pipeline": cmd_pipeline}


def main(argv=None):
    return _main(argv, ())


def _main(argv, pipelines):
    """Run one command; pipelines holds the resolved paths of the
    pipeline configs whose steps are running, outermost first."""
    ap = build_parser()
    args = ap.parse_args(argv)
    args.pipelines = pipelines
    try:
        return _DISPATCH[args.cmd](args)
    except DrcsForgeError as exc:
        sys.stderr.write(_dump(exc.payload()))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
