"""Each guarded primitive is called in src/ only from its one home.

- `np.add.at` only inside `tensor._scatter_add`: a row scatter written as a
  2-D `np.add.at` is several times slower than the flattened 1-D scatter
  `_scatter_add` runs, with the same sums.
- no `.choice(` call at all: `Generator.choice` spends most of a sampling pick
  on per-call checks, and `decoding._draw` makes the same draw from one
  `rng.random()`.
- `open(...)` with no mode, a text-mode read, only inside `kg.text_lines`:
  that one reader drops a byte-order mark and names the file and line of an
  undecodable byte, for every text loader.

No linter is installed, so this walks each file's syntax tree with `ast`, as
`test_imports.py` does.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def is_add_at(call: ast.Call) -> bool:
    func = call.func
    return (isinstance(func, ast.Attribute) and func.attr == "at"
            and isinstance(func.value, ast.Attribute) and func.value.attr == "add"
            and isinstance(func.value.value, ast.Name) and func.value.value.id in ("np", "numpy"))


def is_choice(call: ast.Call) -> bool:
    return isinstance(call.func, ast.Attribute) and call.func.attr == "choice"


def is_text_read(call: ast.Call) -> bool:
    """open(...) without a mode, positional or keyword."""
    return (isinstance(call.func, ast.Name) and call.func.id == "open" and len(call.args) < 2
            and all(k.arg != "mode" for k in call.keywords))


# primitive -> (matcher of the call, its one (file, function) home or None)
HOMES = {
    "np.add.at": (is_add_at, ("tensor.py", "_scatter_add")),
    ".choice(": (is_choice, None),
    "open(": (is_text_read, ("kg.py", "text_lines")),
}


def calls(source: str, primitive: str) -> list[tuple[int, str | None]]:
    """(line, enclosing function or None) of each call of `primitive`."""
    matches, _ = HOMES[primitive]
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and matches(node):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def assert_only_at_home(path: Path, primitive: str):
    _, home = HOMES[primitive]
    stray = [line for line, func in calls(path.read_text(encoding="utf-8"), primitive)
             if (path.name, func) != home]
    where = f"outside {home[0][:-3]}.{home[1]}" if home else "under src/"
    assert not stray, ", ".join(f"{path.name}:{line} calls {primitive} {where}"
                                for line in stray)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_add_at_only_in_scatter_helper(path):
    assert_only_at_home(path, "np.add.at")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_choice_call(path):
    assert_only_at_home(path, ".choice(")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_text_reads_only_in_text_lines(path):
    assert_only_at_home(path, "open(")


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
        "def pick(rng, a, p):\n"
        "    rng.choice(a, p=p)\n"
        "    choice(a)\n"
        "np.random.default_rng(0).choice(3)\n"
        "def text_lines(path):\n"
        "    open(path, encoding='utf-8-sig')\n"
        "    open(path, 'rb')\n"
        "    open(path, mode='w')\n"
    )
    assert calls(source, "np.add.at") == [(3, "_scatter_add"), (6, "inner"), (8, None)]
    assert calls(source, ".choice(") == [(10, "pick"), (12, None)]
    assert calls(source, "open(") == [(14, "text_lines")]
