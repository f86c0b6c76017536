"""The package needs nothing at run time beyond numpy and the standard
library: every absolute import of every module under ``src/routeflow``,
at any depth of the module, names one of those or the package itself."""

import ast
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
