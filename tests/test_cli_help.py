"""The CLI parser's text, byte for byte: the --help of the top-level
parser, of each group, of pipeline and of every command, and argparse's
error for a missing subcommand in each group and for drcs grid without
its required --pair. The golden file is tests/data/cli_help.txt; after
an intended change to the parser, rewrite it with

    PYTHONPATH=src python tests/test_cli_help.py > tests/data/cli_help.txt

Help is laid out for an 80-column terminal and without colour.
"""

import contextlib
import io
import os
import sys

from drcs_forge import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_help.txt")

COMMANDS = {
    "rect": ["circular-florentine", "circular-qfr", "extended-qfr", "truncate", "product",
             "verify", "search"],
    "bh": ["dft", "walsh", "kron", "load", "verify"],
    "drcs": ["build", "eval", "report", "grid"],
}

HELP_ARGVS = [[]] + [[group] for group in COMMANDS] + [["pipeline"]] + [
    [group, name] for group, names in COMMANDS.items() for name in names]
ERROR_ARGVS = [[group] for group in COMMANDS] + [["drcs", "grid", "s.json", "--out", "g.csv"]]


def _parse(argv):
    """Parse argv; give the exit code and what argparse wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue() + err.getvalue()
    raise AssertionError("%s parsed without exiting" % argv)


# the terminal argparse lays help out for
ENVIRON = {"COLUMNS": "80", "NO_COLOR": "1"}


def render():
    """Every help and error text, each under a line naming its argv."""
    parts = []
    for argv, suffix in [(a, ["--help"]) for a in HELP_ARGVS] + [(a, []) for a in ERROR_ARGVS]:
        code, text = _parse(argv + suffix)
        parts.append("==== drcs-forge %s (exit %s)\n%s" % (" ".join(argv + suffix), code, text))
    return "".join(parts)


def test_help_and_error_text_match_the_golden_file(monkeypatch):
    for name, value in ENVIRON.items():
        monkeypatch.setenv(name, value)
    monkeypatch.delenv("FORCE_COLOR", raising=False)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = fh.read()
    assert render() == golden


if __name__ == "__main__":
    os.environ.update(ENVIRON)
    os.environ.pop("FORCE_COLOR", None)
    sys.stdout.write(render())
