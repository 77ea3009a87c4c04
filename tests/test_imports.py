"""Every name a weilres module imports is read in that module.

Deleting a helper tends to leave its imports behind; this scan finds them.
The package's __init__.py is exempt: its imports are the public exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "weilres"


def unused_imports(source):
    """Names bound by the import statements of source that no expression
    reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\nfrom math import gcd, comb\n"
              "def f(x: comb):\n    return os.path.join(gcd(x, 2))\n")
    assert unused_imports(source) == ["j"]


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_reads_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
