"""The reference oracle is a module, and ``backend`` stops at ``FrameSpec``.

Both rasterisation engines have one code path; the per-Gaussian/per-block
loops they are checked against live in ``repro.render.reference``, apart
from what they check.  ``exec.frames.FrameSpec.backend`` is the one switch
to them, kept for the benchmark's ``"reference"`` oracle check, and
``exec.frames.render_frame`` is the one place that follows it.  This pins
that boundary by walking the source:

* no module of the packages above the executor, and none of
  ``repro.render``, can set a backend: no function parameter, no class
  field and no call keyword is named ``backend``;
* under ``src/`` only ``exec/frames.py`` imports ``repro.render.reference``;
* the reference imports nothing from ``repro.render.kernels``, so a rewrite
  of the batched kernels cannot edit its oracle in the same hunk.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = ("eval", "serve", "fleet", "sched")


def backend_sites(tree: ast.AST) -> list[str]:
    """Every place in ``tree`` that declares or passes a ``backend``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            found += [f"line {a.lineno}: parameter" for a in params if a.arg == "backend"]
        elif isinstance(node, ast.ClassDef):
            found += [
                f"line {item.lineno}: field of {node.name}"
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and item.target.id == "backend"
            ]
        elif isinstance(node, ast.keyword) and node.arg == "backend":
            found.append(f"line {node.value.lineno}: keyword")
    return found


def imported_modules(tree: ast.AST) -> set[str]:
    """Every module ``tree`` imports, ``from X import Y`` counted as X and X.Y
    (Y may be a submodule)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def source_files(root: Path) -> list[Path]:
    return sorted(root.rglob("*.py"))


def test_walker_sees_parameters_fields_and_keywords():
    tree = ast.parse(
        "def f(x, *, backend='v'):\n    pass\n"
        "class C:\n    backend: str = 'v'\n"
        "g(backend='reference')\n"
    )
    assert [site.split(": ")[1] for site in backend_sites(tree)] == [
        "parameter",
        "field of C",
        "keyword",
    ]
    assert backend_sites(ast.parse("def f(dataflow):\n    return dataflow.backend\n")) == []


def test_import_walker_sees_both_import_forms():
    tree = ast.parse(
        "import repro.render.reference\n"
        "from repro.render import kernels, tile_raster\n"
        "from repro.render.kernels import stage_hook\n"
    )
    assert imported_modules(tree) == {
        "repro.render.reference",
        "repro.render",
        "repro.render.kernels",
        "repro.render.tile_raster",
        "repro.render.kernels.stage_hook",
    }


@pytest.mark.parametrize("package", PACKAGES)
def test_no_backend_above_the_executor(package):
    root = SRC / "repro" / package
    bad = [
        f"{path.relative_to(root)}: {site}"
        for path in source_files(root)
        for site in backend_sites(ast.parse(path.read_text()))
    ]
    assert not bad, f"{package}/ can set the engine backend: {bad}"


def test_no_backend_in_the_render_package():
    root = SRC / "repro" / "render"
    bad = [
        f"{path.relative_to(root)}: {site}"
        for path in source_files(root)
        for site in backend_sites(ast.parse(path.read_text()))
    ]
    assert not bad, f"render/ has an engine backend switch: {bad}"


def test_only_render_frame_imports_the_reference():
    importers = [
        path.relative_to(SRC / "repro").as_posix()
        for path in source_files(SRC / "repro")
        if "repro.render.reference" in imported_modules(ast.parse(path.read_text()))
    ]
    assert importers == ["exec/frames.py"]


def test_reference_imports_nothing_from_the_kernels():
    tree = ast.parse((SRC / "repro" / "render" / "reference.py").read_text())
    kernels = {
        name
        for name in imported_modules(tree)
        if name == "repro.render.kernels" or name.startswith("repro.render.kernels.")
    }
    assert not kernels
