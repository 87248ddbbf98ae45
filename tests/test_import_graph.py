"""The import graph the README draws: ``repro.obs`` is a leaf.

``obs/__init__.py`` promises a stdlib-only package that imports nothing
from the rest of ``repro``, so every layer can depend on it without
cycles.  This walks every import in ``src/repro/obs/*.py``, function-local
ones included, and allows only the standard library and ``repro.obs``
itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

OBS = Path(__file__).resolve().parents[1] / "src" / "repro" / "obs"
FILES = sorted(OBS.glob("*.py"))


def imported_modules(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, dotted module)`` of every absolute import in ``tree``;
    relative imports stay inside the package and are skipped."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


def allowed(module: str) -> bool:
    return module == "repro.obs" or module.startswith("repro.obs.") or (
        module.split(".")[0] in sys.stdlib_module_names
    )


def test_walker_sees_function_local_imports():
    tree = ast.parse("def f():\n    import numpy\n    from repro.exec import x\n")
    assert [m for _, m in imported_modules(tree)] == ["numpy", "repro.exec"]
    assert not allowed("numpy") and not allowed("repro.exec") and not allowed("repro.observe")


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_obs_imports_only_stdlib_and_itself(path):
    bad = [
        f"line {line}: {module}"
        for line, module in imported_modules(ast.parse(path.read_text()))
        if not allowed(module)
    ]
    assert not bad, f"obs/{path.name} must stay a stdlib-only leaf: {bad}"
