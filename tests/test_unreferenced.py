"""Every top-level function and class in src/kgmoe is referenced somewhere.

A helper that nothing calls is deleted rather than kept.  A definition counts
as referenced when src/, perfbench/ or demos/ names it (a name, an attribute,
an import, or a string that is exactly the name, as `__all__` entries and the
tracer's targets are) outside its own definition; tests do not count, and
neither do docstrings.  No linter is installed, so this walks each file's
syntax tree with `ast`, as `test_imports.py` does.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINING = sorted((ROOT / "src" / "kgmoe").rglob("*.py"))
REFERENCING = sorted(p for d in ("src", "perfbench", "demos") for p in (ROOT / d).rglob("*.py"))


def _references(node: ast.AST) -> set[str]:
    """Names that node and its children refer to, leaving out docstrings."""
    docstrings = {id(n.value) for n in ast.walk(node)
                  if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)}
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.split(".")[-1])
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and n.value.isidentifier() and id(n) not in docstrings):
            names.add(n.value)
    return names


def unreferenced(sources: dict[str, str], defining) -> list[tuple[str, int, str]]:
    """(file, line, name) of each top-level function or class of the defining
    files that no source names outside that definition."""
    tops = {key: [(node, _references(node)) for node in ast.parse(source).body]
            for key, source in sources.items()}
    return [(key, node.lineno, node.name) for key in sorted(defining) for node, _ in tops[key]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not any(node.name in refs for nodes in tops.values()
                        for other, refs in nodes if other is not node)]


def test_every_definition_in_src_is_referenced():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in REFERENCING}
    found = unreferenced(sources, [str(p.relative_to(ROOT)) for p in DEFINING])
    assert not found, ", ".join(f"{path}:{line} defines {name!r}, which nothing references"
                                for path, line, name in found)


def test_checker_flags_unreferenced_and_spares_calls_attributes_and_strings():
    sources = {
        "a.py": (
            "def used(): pass\n"
            "def recursive(n):\n"
            "    '''recursive calls itself'''\n"
            "    return recursive(n - 1)\n"
            "class Traced: pass\n"
            "def by_attribute(): pass\n"
            "def only_in_a_docstring(): pass\n"
            "def imported(): pass\n"
            "def in_all(): pass\n"
            "__all__ = ['in_all']\n"
            "def caller():\n"
            "    return used()\n"
            "x = caller()\n"),
        "b.py": (
            "'''only_in_a_docstring'''\n"
            "from a import imported\n"
            "import a\n"
            "TARGETS = [(a, 'Traced')]\n"
            "a.by_attribute()\n"),
    }
    assert unreferenced(sources, ["a.py"]) == [
        ("a.py", 2, "recursive"), ("a.py", 7, "only_in_a_docstring")]
