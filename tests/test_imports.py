import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import drcs_forge
from drcs_forge.drcs import build_drcs, export_drcs
from drcs_forge.hadamard import dft_matrix
from drcs_forge.rectangles import build_circular_quasi_florentine

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "drcs_forge"


def unused_imports(source):
    """Names a module-level import binds that the module never reads;
    names listed in __all__ count as read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # __all__ may be a literal or computed from other module-level names:
    # every string in its value, or in the values of the names it reads
    values = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)}
    todo, seen = ["__all__"], set()
    while todo:
        name = todo.pop()
        if name in seen or name not in values:
            continue
        seen.add(name)
        for n in ast.walk(values[name]):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used.add(n.value)
            elif isinstance(n, ast.Name):
                todo.append(n.id)
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = "import functools\nimport numpy as np\nfrom .a import b, c\n__all__ = ['c']\nnp.zeros(1)\n"
    assert unused_imports(source) == [(1, "functools"), (3, "b")]


def test_reads_a_computed_all():
    source = ("from .a import b, c, d\n_NAMES = {'a': ('c',)}\n_OTHER = ('d',)\n"
              "__all__ = sorted(n for names in _NAMES.values() for n in names)\n")
    assert unused_imports(source) == [(1, "b"), (1, "d")]


def test_caps_live_in_limits():
    """Only _limits binds a module-level name ending in _CAP, and another
    module imports each one (so reads it: no import goes unused)."""
    bound, imported = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    if name.endswith("_CAP"):
                        bound.setdefault(name, set()).add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "_limits":
                imported.update(alias.name for alias in node.names)
    assert bound and all(where == {"_limits.py"} for where in bound.values()), bound
    assert sorted(set(bound) - imported) == []


def test_no_module_imports_resources_or_numpy_random():
    """Package data is read from beside the modules, and --paranoid draws
    its cells with the stdlib: neither costs an import."""
    reached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["%s.%s" % (node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = ["%s.%s" % (node.value.id, node.attr)]
            else:
                continue
            reached += [(path.name, name) for name in names if name.startswith(
                ("importlib.resources", "numpy.random", "np.random"))]
    assert reached == []


def test_every_public_name_resolves_through_the_table(monkeypatch):
    table = drcs_forge._LAYERS
    assert drcs_forge.__all__ == sorted(name for names in table.values() for name in names)
    assert set(drcs_forge.__all__) <= set(dir(drcs_forge))
    for layer, names in table.items():
        module = importlib.import_module("drcs_forge." + layer)
        for name in names:
            assert getattr(module, name).__module__ == module.__name__
            assert getattr(drcs_forge, name) is getattr(module, name)
    # nothing is cached in the package: a rebinding in the layer shows
    monkeypatch.setattr(importlib.import_module("drcs_forge.ambiguity"), "af_pair", "rebound")
    assert drcs_forge.af_pair == "rebound"
    with pytest.raises(AttributeError):
        drcs_forge.c1_witness  # public in its layer, not in the table
    namespace = {}
    exec("from drcs_forge import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == drcs_forge.__all__


# the layers that build rectangles and Butson tables: no evaluation runs them
BUILDERS = ["drcs_forge.finite_field", "drcs_forge.hadamard", "drcs_forge.rectangles"]
# numpy 1.x loads numpy.random with numpy itself: only what the package adds counts
PROBE = """import json, sys
import numpy
before = set(sys.modules)
import drcs_forge
if sys.argv[1:]:
    from drcs_forge import cli
    assert cli.main(sys.argv[1:]) == 0
added = set(sys.modules) - before
print(json.dumps(sorted(m for m in added if m.startswith(("drcs_forge.", "numpy.random")))))
"""


@pytest.mark.parametrize("argv, watched", [
    ([], None),
    (["drcs", "eval", "s.json", "--out", "e.json"], BUILDERS + ["drcs_forge.oracles"]),
    (["drcs", "eval", "s.json", "--paranoid", "--out", "e.json"], BUILDERS),
    (["drcs", "grid", "s.json", "--pair", "0", "1", "--out", "g.csv"], BUILDERS),
], ids=["import", "eval", "eval_paranoid", "grid"])
def test_a_fresh_process_loads_only_the_layers_it_runs(tmp_path, argv, watched):
    export_drcs(build_drcs(build_circular_quasi_florentine(2, 2), dft_matrix(4)),
                str(tmp_path / "s.json"))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    if watched is None:  # import drcs_forge alone loads no module of the package
        assert loaded == []
    else:
        assert "drcs_forge.ambiguity" in loaded
        assert sorted(set(loaded) & set(watched + ["numpy.random"])) == []
