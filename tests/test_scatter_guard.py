"""`np.add.at` is called in src/ only inside `tensor._scatter_add`.

A row scatter written as a 2-D `np.add.at` is several times slower than the
flattened 1-D scatter `_scatter_add` runs, with the same sums, so every
scatter goes through that helper.  No linter is installed, so this walks each
file's syntax tree with `ast`, as `test_imports.py` does.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
ALLOWED = ("tensor.py", "_scatter_add")


def add_at_calls(source: str) -> list[tuple[int, str | None]]:
    """(line, enclosing function or None) of each `np.add.at` / `numpy.add.at` call."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "at" and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "add" and isinstance(node.func.value.value, ast.Name)
                and node.func.value.value.id in ("np", "numpy")):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_add_at_only_in_scatter_helper(path):
    stray = [(line, func) for line, func in add_at_calls(path.read_text(encoding="utf-8"))
             if (path.name, func) != ALLOWED]
    assert not stray, ", ".join(f"{path.name}:{line} calls np.add.at outside "
                                f"tensor._scatter_add" for line, _ in stray)


def test_checker_finds_calls_and_their_functions():
    source = (
        "import numpy as np\n"
        "def _scatter_add(d, i, r):\n"
        "    np.add.at(d, i, r)\n"
        "def grad(d, i, r):\n"
        "    def inner():\n"
        "        numpy.add.at(d, i, r)\n"
        "    np.add.reduce(d)\n"
        "np.add.at(d, i, r)\n"
    )
    assert add_at_calls(source) == [(3, "_scatter_add"), (6, "inner"), (8, None)]
