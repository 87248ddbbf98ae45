"""The import graph the README draws: one layer order, and ``repro.obs`` a leaf.

``obs/__init__.py`` promises a stdlib-only package that imports nothing
from the rest of ``repro``, so every layer can depend on it without
cycles.  This walks every import in ``src/repro/obs/*.py``, function-local
ones included, and allows only the standard library and ``repro.obs``
itself.

Every other package has a rank, and a module may import only its own
package, strictly lower ranks, ``repro.obs``, the standard library and
third-party code — function-local imports included, so no cycle can hide
inside a function again:

    gaussians 0 < render 1 < arch, store 2 < exec 3 < eval 4 < serve 5
    < fleet 6 < sched 7

``arch`` and ``store`` share a rank, so neither may import the other.
``eval`` ranks below ``serve`` because ``repro-serve`` and ``repro-sched``
print their reports with ``eval.reporting.format_table``.

The rank test checks edges between packages, not Python's initialisation
order inside one; the last test imports every module first, in a clean
interpreter, to cover that."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
OBS = SRC / "repro" / "obs"
FILES = sorted(OBS.glob("*.py"))

RANKS = {
    "gaussians": 0,
    "render": 1,
    "arch": 2,
    "store": 2,
    "exec": 3,
    "eval": 4,
    "serve": 5,
    "fleet": 6,
    "sched": 7,
}


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


def points_down(package: str, module: str) -> bool:
    """May a module of ``package`` import ``module``?"""
    parts = module.split(".")
    if parts[0] != "repro":
        return True
    if len(parts) < 2:
        return False
    target = parts[1]
    if target in (package, "obs"):
        return True
    return target in RANKS and RANKS[target] < RANKS[package]


def test_walker_sees_function_local_imports():
    tree = ast.parse("def f():\n    import numpy\n    from repro.exec import x\n")
    assert [m for _, m in imported_modules(tree)] == ["numpy", "repro.exec"]
    assert not allowed("numpy") and not allowed("repro.exec") and not allowed("repro.observe")


def test_rank_rule():
    assert points_down("store", "numpy") and points_down("store", "repro.store.cache")
    assert points_down("store", "repro.render.kernels") and points_down("store", "repro.obs")
    assert not points_down("store", "repro.serve") and not points_down("store", "repro.arch")
    assert not points_down("exec", "repro") and not points_down("exec", "repro.observe")


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_obs_imports_only_stdlib_and_itself(path):
    bad = [
        f"line {line}: {module}"
        for line, module in imported_modules(ast.parse(path.read_text()))
        if not allowed(module)
    ]
    assert not bad, f"obs/{path.name} must stay a stdlib-only leaf: {bad}"


@pytest.mark.parametrize("package", sorted(RANKS))
def test_imports_point_down(package):
    root = SRC / "repro" / package
    bad = [
        f"{path.relative_to(root)}:{line}: {module}"
        for path in sorted(root.rglob("*.py"))
        for line, module in imported_modules(ast.parse(path.read_text()))
        if not points_down(package, module)
    ]
    assert not bad, f"{package}/ (rank {RANKS[package]}) imports up or sideways: {bad}"


def test_every_module_imports_first_in_a_clean_interpreter():
    modules = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for path in (SRC / "repro").rglob("*.py")
    )
    # One interpreter; every repro module is forgotten before the next one
    # is imported, so each import runs the package chain from scratch.
    script = (
        "import importlib, sys\n"
        "for name in sys.argv[1:]:\n"
        "    for loaded in [m for m in sys.modules if m.split('.')[0] == 'repro']:\n"
        "        del sys.modules[loaded]\n"
        "    importlib.import_module(name)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *modules],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
