"""Every import in src/, tests/ and demos/ is used in its file.

No linter is installed, so this walks each file's syntax tree with `ast`.  A
name counts as used when it is read anywhere in the file, listed in
`__all__`, or named inside a string annotation; `__future__` imports are
never flagged.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def _annotation_names(annotation: ast.expr) -> set[str]:
    """Names read by an annotation, including those inside string parts."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _annotation_names(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the source never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, ", ".join(f"{path.name}:{line} imports unused {name!r}"
                                 for line, name in unused)


def test_checker_flags_unused_and_spares_future_all_and_string_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from json import dumps, loads\n"
        "from typing import Iterable, Sequence\n"
        "from pathlib import Path\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Iterable[int]') -> 'list[Sequence]':\n"
        "    return osp.join(x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "loads"), (6, "Path")]
