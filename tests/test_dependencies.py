"""The package needs nothing at run time beyond numpy and the standard
library: every absolute import of every module under ``src/routeflow``,
at any depth of the module, names one of those or the package itself. No
module takes another one's private (underscore) names. Only ``expert``
forks, with ``multiprocessing`` alone. And importing the modules that the
benchmark sets up loads no process machinery."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "routeflow"
ALLOWED = sys.stdlib_module_names | {"numpy", "routeflow"}


def absolute_imports(path: Path) -> list[str]:
    """The top-level module names that ``path`` imports absolutely."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    assert set(absolute_imports(path)) <= ALLOWED


def test_the_guard_sees_every_import_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os.path, numpy as np\nfrom scipy import sparse\nfrom . import core\n"
                      "def f():\n    import torch\n")
    assert sorted(absolute_imports(module)) == ["numpy", "os", "scipy", "torch"]


def private_names(path: Path) -> list[str]:
    """The underscore names that ``path`` takes from routeflow modules:
    imported by name, or read as an attribute of a name bound to a module."""
    tree = ast.parse(path.read_text(), str(path))
    modules, names = {"routeflow"}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "routeflow"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    names.append(alias.name)
                elif node.module in (None, "routeflow"):  # ``from . import core as C``
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.asname and a.name.startswith("routeflow."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__")
                and ast.unparse(node.value).split(".")[0] in modules):
            names.append(node.attr)
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_takes_no_private_name_from_another_module(path):
    assert private_names(path) == []


def test_the_private_guard_sees_every_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport routeflow.expert as E\n"
                      "from . import autodiff as F, core\nfrom .io import derive_seed, _a\n"
                      "from routeflow.neural import _b\nimport routeflow.bench\n"
                      "F._c(F.value(core._d), E._e, routeflow.bench._f, self._own, F.__name__)\n")
    assert sorted(private_names(module)) == ["_a", "_b", "_c", "_d", "_e", "_f"]


def test_one_module_forks_and_by_one_facility():
    # expert.Worker is the package's one way to fork
    imports = {path.name: absolute_imports(path) for path in PACKAGE.rglob("*.py")}
    assert {name for name, names in imports.items() if "multiprocessing" in names} == {"expert.py"}
    assert not any("concurrent" in names for names in imports.values())


def test_importing_bench_and_training_loads_no_process_machinery():
    # they cost about 24 ms of every import; a forking call imports them itself
    probe = ("import sys, routeflow.bench, routeflow.training; "
             "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    env = {"PYTHONPATH": str(PACKAGE.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
