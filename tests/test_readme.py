"""The README's CLI block runs as written: every drcs-forge line, in
order, in an empty directory, exits 0. Its size table lists every cap
of _limits with the value the code has."""

import pathlib
import re
import shlex

from drcs_forge import _limits
from drcs_forge.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def cli_block_lines():
    """The drcs-forge lines of the first sh block under "## CLI", as
    argv lists without the program name and the trailing comment."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("drcs-forge ")]


def test_cli_block_runs_top_to_bottom(tmp_path, monkeypatch, capsys):
    lines = cli_block_lines()
    assert len(lines) > 10
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        # paths into the source tree resolve against the repository root
        argv = [str(ROOT / a) if a.startswith(("src/", "tests/")) else a for a in argv]
        code = main(argv)
        capsys.readouterr()
        assert code == 0, argv


def caps_table():
    """{cap: value} from the README's size table rows "| `NAME_CAP` | 2^22 |",
    a value written as b^e or a plain integer."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+_CAP)` \| (\S+)", text, re.M)
    values = {}
    for name, value in rows:
        base, _, exp = value.partition("^")
        values[name] = int(base) ** int(exp or 1)
    return values


def test_size_table_lists_every_cap_with_its_value():
    caps = {name: value for name, value in vars(_limits).items() if name.endswith("_CAP")}
    assert caps and caps_table() == caps
