"""Command-line front end: construction, verification, evaluation.

Thin composition of the library modules. All artifacts are JSON with
sorted keys and no timestamps, so identical inputs give byte-identical
outputs; grids additionally export CSV or 16-bit PGM. Exit codes:
0 ok, 2 validation failure, 3 infeasible parameters, 4 I/O trouble
(a failed write to stdout included). Errors go to stderr as one JSON
object per failure.

Each command is declared once, as one entry of COMMANDS: its group,
name, help, handler and arguments; GROUPS holds the groups' helps.
build_parser makes the parser from the two tables, and _run calls the
parsed command's handler. Importing cli loads no library layer.
Handlers call the library as lib.<name>: the package resolves each
public name on its layer module at every lookup, importing the layer
when a command first runs it, so a name rebound there (a test's
monkeypatch, a tracing wrapper such as perfbench's span recorder
installs) is the one that runs. A handler that needs a name outside
the package's table imports that layer module itself.
"""

import argparse
import contextlib
import functools
import io
import os
import random
import sys

import drcs_forge as lib

from ._artifacts import json_text, read_json, write_file, write_json
from .errors import (
    DrcsForgeError,
    InfeasibleError,
    MismatchError,
    ParamsOutOfRangeError,
    ParseError,
    json_object,
)


def _write(write, out=None):
    """Call write(fh) on the file out, or on stdout when out is None. A
    failed write or flush of stdout raises ParseError, like a file's."""
    if out is not None:
        write_file(out, write)
        return
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        # what stdout still buffers would fail again in the exit-time
        # flush and print "Exception ignored": send it to os.devnull
        with contextlib.suppress(OSError, ValueError):  # no file descriptor
            fd = sys.stdout.fileno()
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), fd)
        raise ParseError("cannot write <stdout>: %s" % exc) from None


def _emit(obj, out=None):
    """Write obj as a JSON artifact; tables may be integer arrays."""
    _write(functools.partial(write_json, obj), out)


def _builds(make):
    """The handler of a command that writes the _fields() of the artifact
    make(args) gives."""
    def run(args):
        _emit(make(args)._fields(), args.out)
        return 0
    return run


def cmd_rect_verify(args):
    from . import rectangles
    R = rectangles.Rectangle.read(args.file)[0]
    out = {"N": R.N, "rows": R.nrows, "cols": R.ncols, "circular": args.circular}
    out["c1"] = rectangles.verify_c1(R)
    if not out["c1"]:
        i, v = rectangles.c1_witness(R)
        out["c1_witness"] = {"row": i, "symbol": v}
    else:
        wit = rectangles.c2_witness(R, circular=args.circular)
        out["c2"] = wit is None
        if wit is not None:
            out["c2_witness"] = wit
    _emit(out, args.out)
    return 0 if out.get("c2") else 2


def cmd_rect_search(args):
    R, cert = lib.search_max_rows(args.N, args.n, circular=args.circular, row_cap=args.row_cap)
    _emit({"rectangle": R._fields(), "certificate": cert}, args.out)
    return 0


def _kron(args):
    if len(args.files) < 2:
        raise ParamsOutOfRangeError("kron needs at least two files")
    return functools.reduce(lib.kronecker, [lib.load_seed(f) for f in args.files])


def cmd_bh_verify(args):
    B = lib.PhaseMatrix.read(args.file)[0]
    ok = lib.verify_bh(B)
    _emit({"N": B.N, "r": B.r, "butson": ok}, args.out)
    return 0 if ok else 2


def _paranoid_check(S, zone):
    """Rerun every ordered pair through both grid paths and spot-check
    single cells against the definition-literal sum."""
    from . import ambiguity, oracles
    tol_grid = 1e-7 * S.M * S.L
    for k1 in range(S.K):
        for k2 in range(S.K):
            g_naive = ambiguity.af_grid(S.flock(k1), S.flock(k2), zone, S.r, "naive")
            g_fft = ambiguity.af_grid(S.flock(k1), S.flock(k2), zone, S.r, "fft")
            dev = float(abs(g_naive.values - g_fft.values).max())
            if dev > tol_grid:
                raise MismatchError(
                    "grid paths disagree on pair (%d, %d): max deviation %g"
                    % (k1, k2, dev)
                )
    rng = random.Random(0)
    tol_cell = 1e-9 * S.L
    for _ in range(50):
        k1, k2, m = rng.randrange(S.K), rng.randrange(S.K), rng.randrange(S.M)
        tau = rng.randrange(1 - zone.Z_x, zone.Z_x)
        nu = rng.randrange(1 - zone.Z_y, zone.Z_y)
        fast = ambiguity.af_pair(S.flocks[k1, m], S.flocks[k2, m], S.r, tau, nu)
        slow = oracles.naive_af(S.flocks[k1, m].tolist(), S.flocks[k2, m].tolist(),
                                S.r, tau, nu)
        if abs(fast - slow) > tol_cell:
            raise MismatchError(
                "cell (%d,%d,m=%d,tau=%d,nu=%d) disagrees with the literal sum"
                % (k1, k2, m, tau, nu)
            )


def cmd_drcs_build(args):
    S = lib.build_drcs(lib.Rectangle.read(args.rect)[0], lib.load_seed(args.bh))
    if args.out is not None:
        lib.export_drcs(S, args.out)
    else:
        _emit(S._fields())
    return 0


def cmd_drcs_eval(args):
    S = lib.import_drcs(args.set)
    zone = lib.Zone(*args.zone) if args.zone else S.zone
    rep = lib.theta_max(S, zone, args.method)
    out = {"theta": rep.to_json()}
    if args.paranoid:
        _paranoid_check(S, zone)
        out["paranoid"] = "ok"
    try:
        out["bound"] = lib.optimality_factor(S, rep).to_json()
    except InfeasibleError:
        flags = lib.af_lower_bound(S.K, S.M, S.L, zone.Z_y, zone.Z_x)
        out["bound"] = {"infeasible": True, "flags": flags}
    _emit(out, args.out)
    return 0


def cmd_drcs_report(args):
    S = lib.import_drcs(args.set)
    br = lib.optimality_factor(S, lib.theta_max(S))
    text = "K M L Z_x Z_y theta bound rho\n%d %d %d %d %d %.4f %.4f %.4f\n" % (
        br.K, br.M, br.N_len, br.Z_x, br.Z_y, br.theta, br.bound, br.rho)
    _write(lambda fh: fh.write(text), args.out)
    return 0


def cmd_drcs_grid(args):
    out = args.out
    if not out.endswith((".csv", ".pgm")):
        raise ParamsOutOfRangeError("--out must end in .csv or .pgm")
    if args.matrix and out.endswith(".pgm"):
        raise ParamsOutOfRangeError("--matrix writes a .csv; a .pgm is always the heat map")
    from . import ambiguity, drcs
    S = drcs.import_drcs(args.set)
    k1, k2 = args.pair
    if not (0 <= k1 < S.K and 0 <= k2 < S.K):
        raise ParamsOutOfRangeError("pair indices must lie in [0, %d)" % S.K)
    g = ambiguity.af_grid(S.flock(k1), S.flock(k2), S.zone, S.r, args.method, (k1, k2))
    if out.endswith(".pgm"):
        write_file(out, functools.partial(ambiguity.write_pgm, g), binary=True)
    else:
        writer = ambiguity.write_magnitude_csv if args.matrix else ambiguity.write_cells_csv
        write_file(out, functools.partial(writer, g))
    return 0


def cmd_pipeline(args):
    """Run a list of CLI steps from a config file: {"steps": [[...], ...]}.
    A config that runs itself, directly or through another, is refused."""
    path = os.path.realpath(args.config)
    if path in args.pipelines:
        raise ParseError("pipeline config %s runs itself" % args.config)
    cfg = json_object(read_json(args.config, ParseError), "pipeline config", ParseError)
    steps = cfg.get("steps")
    # the decoder gives JSON arrays as exact lists
    if type(steps) is not list or any(type(s) is not list for s in steps):
        raise ParseError("pipeline config needs a steps list of argv lists")
    for step in steps:
        step_args = _step_args([str(x) for x in step])
        if step_args is None:
            continue
        rc = _run(step_args, args.pipelines + (path,))
        if rc != 0:
            return rc
    return 0


def _step_args(argv):
    """Parse one pipeline step. A step argparse rejects raises ParseError
    with argparse's message, instead of printing usage text and ending
    the whole process. A help step prints its help and gives None, so
    the pipeline goes on with the next step."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return build_parser().parse_args(argv)
    except SystemExit as exc:
        if not exc.code:  # --help printed its text and asked to stop
            return None
        message = err.getvalue().strip().splitlines()[-1:]
        raise ParseError("pipeline step %s rejected: %s" % (argv, "".join(message))) from None


# --- the command table ---

def _arg(*flags, **kwargs):
    """The arguments of one add_argument call."""
    return flags, kwargs


def _ints(*names):
    return [_arg(name, type=int) for name in names]


_OUT = _arg("--out")
_CIRCULAR = _arg("--circular", action="store_true")
_METHOD = _arg("--method", choices=("naive", "fft"), default="fft")

GROUPS = {
    "rect": "rectangle construction and verification",
    "bh": "Butson matrix construction and verification",
    "drcs": "sequence-set assembly and evaluation",
}

# group (None at the top level), name, help, handler, arguments in order
COMMANDS = [
    ("rect", "circular-florentine", "rows (i+1)*j mod N",
     _builds(lambda a: lib.build_circular_florentine(a.N)), [*_ints("N"), _OUT]),
    ("rect", "circular-qfr", "field-based p^n x (p^n - 1) rectangle",
     _builds(lambda a: lib.build_circular_quasi_florentine(a.p, a.n)),
     [*_ints("p", "n"), _OUT]),
    ("rect", "extended-qfr", "qfr plus a constant extra-symbol column",
     _builds(lambda a: lib.build_extended_quasi_florentine(a.p, a.n)),
     [*_ints("p", "n"), _OUT]),
    ("rect", "truncate", "drop k columns from one side",
     _builds(lambda a: lib.truncate_columns(lib.Rectangle.read(a.file)[0], a.k, a.side)),
     [_arg("file"), *_ints("k"), _arg("side", choices=("left", "right")), _OUT]),
    ("rect", "product", "alphabet-product of two rectangles",
     _builds(lambda a: lib.product_construct(lib.Rectangle.read(a.fileA)[0],
                                             lib.Rectangle.read(a.fileB)[0])),
     [_arg("fileA"), _arg("fileB"), _OUT]),
    ("rect", "verify", "check C1 and C2, print witnesses", cmd_rect_verify,
     [_arg("file"), _CIRCULAR, _OUT]),
    ("rect", "search", "exhaustive max-rows search at tiny N", cmd_rect_search,
     [*_ints("N", "n"), _CIRCULAR, _arg("--row-cap", type=int, default=None), _OUT]),
    ("bh", "dft", "Fourier matrix of order N",
     _builds(lambda a: lib.dft_matrix(a.N)), [*_ints("N"), _OUT]),
    ("bh", "walsh", "Sylvester matrix of order 2^m",
     _builds(lambda a: lib.walsh_hadamard(a.m)), [*_ints("m"), _OUT]),
    ("bh", "kron", "Kronecker product of two or more matrices",
     _builds(_kron), [_arg("files", nargs="+"), _OUT]),
    ("bh", "load", "load and verify a seed file",
     _builds(lambda a: lib.load_seed(a.file)), [_arg("file"), _OUT]),
    ("bh", "verify", "check the Butson property", cmd_bh_verify, [_arg("file"), _OUT]),
    ("drcs", "build", "assemble a set from rectangle + Butson files", cmd_drcs_build,
     [_arg("rect"), _arg("bh"), _OUT]),
    ("drcs", "eval", "peak scan plus bound comparison", cmd_drcs_eval,
     [_arg("set"), _arg("--zone", nargs=2, type=int, metavar=("ZX", "ZY")), _METHOD,
      _arg("--paranoid", action="store_true"), _OUT]),
    ("drcs", "report", "one table-style summary row", cmd_drcs_report, [_arg("set"), _OUT]),
    ("drcs", "grid", "export one pair's ambiguity grid", cmd_drcs_grid,
     [_arg("set"), _arg("--pair", nargs=2, type=int, required=True, metavar=("K1", "K2")),
      _METHOD, _arg("--matrix", action="store_true",
                    help="write the magnitude matrix instead of cell rows (.csv only)"),
      _arg("--out", required=True)]),
    (None, "pipeline", "run steps from a JSON config", cmd_pipeline, [_arg("config")]),
]


@functools.lru_cache(maxsize=None)
def build_parser():
    """The CLI's argument parser, built from GROUPS and COMMANDS on first
    use and shared by main and every pipeline step of the process (never
    at import). Each command's handler is its parser's default run."""
    ap = argparse.ArgumentParser(
        prog="drcs-forge",
        description="construct and evaluate Doppler-resilient complementary sequence sets",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    subs = {None: sub}
    for group, help_text in GROUPS.items():
        subs[group] = sub.add_parser(group, help=help_text).add_subparsers(
            dest=group + "_cmd", required=True)
    for group, name, help_text, run, arguments in COMMANDS:
        p = subs[group].add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(run=run)
    return ap


def main(argv=None):
    return _run(build_parser().parse_args(argv), ())


def _run(args, pipelines):
    """Run one parsed command; pipelines holds the resolved paths of the
    pipeline configs whose steps are running, outermost first. An
    allocation the caps let through and the machine cannot hold is
    refused like a cap (exit 3), and a document too deep to copy or
    write like malformed input (exit 4), not left to a traceback."""
    args.pipelines = pipelines
    try:
        return args.run(args)
    except MemoryError as exc:
        error = ParamsOutOfRangeError("out of memory: %s" % (str(exc) or type(exc).__name__))
    except RecursionError as exc:
        error = ParseError("input nested too deep: %s" % exc)
    except DrcsForgeError as exc:
        error = exc
    sys.stderr.write(json_text(error.payload()) + "\n")
    return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
