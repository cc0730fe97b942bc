"""Every top-level function and class in src/kgmoe, and every non-dunder
method and property of a top-level class there, is referenced somewhere.

A helper or view that nothing calls is deleted rather than kept.  A definition
counts as referenced when src/, perfbench/ or demos/ names it (a name, an
attribute, an import, or a string that is exactly the name, as `__all__`
entries and the tracer's targets are) outside its own definition; tests do not
count, and neither do docstrings.  No linter is installed, so this walks each file's
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


def _parts(tree: ast.Module):
    """(class, node, references) of each top-level statement, class None, and of
    each statement in the body of a top-level class; a class's own part holds
    the references of its decorators and bases."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield None, node, set().union(*map(_references, node.decorator_list + node.bases))
            yield from ((node, member, _references(member)) for member in node.body)
        else:
            yield None, node, _references(node)


def unreferenced(sources: dict[str, str], defining) -> list[tuple[str, int, str]]:
    """(file, line, name) of each top-level function or class, and each
    non-dunder method or property of a top-level class, of the defining files
    that no source names outside that definition."""
    parts = {key: list(_parts(ast.parse(source))) for key, source in sources.items()}
    every = [part for key_parts in parts.values() for part in key_parts]
    return [(key, node.lineno, node.name) for key in sorted(defining) for cls, node, _ in parts[key]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (cls and node.name.startswith("__") and node.name.endswith("__"))
            and not any(node.name in refs for owner, other, refs in every
                        if other is not node and owner is not node)]


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
            "x = caller()\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.by_sibling()\n"
            "    def by_sibling(self):\n"
            "        '''unused_view'''\n"
            "    @property\n"
            "    def size(self): return 0\n"
            "    def unused_view(self):\n"
            "        return self.unused_view()\n"
            "    def __len__(self): return 0\n"),
        "b.py": (
            "'''only_in_a_docstring'''\n"
            "from a import imported\n"
            "import a\n"
            "TARGETS = [(a, 'Traced')]\n"
            "a.by_attribute()\n"
            "a.Box().size\n"),
    }
    assert unreferenced(sources, ["a.py"]) == [
        ("a.py", 2, "recursive"), ("a.py", 7, "only_in_a_docstring"), ("a.py", 21, "unused_view")]
