"""The engine ``backend`` stops at ``exec.frames.FrameSpec``.

Both rasterisation engines are bitwise equal, so above the executor the
knob could only pick a slower path to the same frame.  ``FrameSpec`` is
the one declaration of how a frame renders; its ``backend`` field exists
for the ``"reference"`` oracle check and ``RenderConfig(backend=...)``
stays inside ``repro.render``.  This walks every module of the packages
above the executor and asserts that none of them can set it: no function
parameter, no class field and no call keyword is named ``backend``.
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


@pytest.mark.parametrize("package", PACKAGES)
def test_no_backend_above_the_executor(package):
    root = SRC / "repro" / package
    bad = [
        f"{path.relative_to(root)}: {site}"
        for path in sorted(root.rglob("*.py"))
        for site in backend_sites(ast.parse(path.read_text()))
    ]
    assert not bad, f"{package}/ can set the engine backend: {bad}"
