"""Static check: every name a graftkit module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "graftkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line for every import outside ``__future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside quoted annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((name, line) for name, line in imported_names(tree).items()
                  if name not in used)


def test_checker_flags_unused_and_accepts_used():
    src = ("from __future__ import annotations\n"
           "import os\nimport numpy as np\nfrom json import dumps, loads\n"
           "from pathlib import Path\n"
           "def f(x: 'Path') -> None:\n    return np.zeros(1), loads(x), 'os'\n")
    assert unused_imports(src) == [("dumps", 4), ("os", 2)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
