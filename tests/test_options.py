"""Every defaulted parameter of a function or method in src/kgmoe is set by at
least one call in src/, perfbench/ or demos/.

A default that no caller overrides is a constant dressed as an option; it
belongs inside the function that reads it.  A call sets a parameter when it
passes it by keyword or by position, and a call with `*` or `**` sets every
parameter.  Calls are matched by the name called, `f(...)` or `x.f(...)`; a
call through a class name, or through `cls(...)` inside that class, calls its
`__init__`, and a method's first parameter (`self` or `cls`) takes no
positional argument unless the method is a staticmethod.  Calls in tests do
not count.  No linter is installed, so this walks each file's syntax tree with
`ast`, as `test_unreferenced.py` does.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINING = sorted((ROOT / "src" / "kgmoe").rglob("*.py"))
CALLING = sorted(p for d in ("src", "perfbench", "demos") for p in (ROOT / d).rglob("*.py"))
# the entry point's test seam: `kgmoe` runs main() on sys.argv, tests pass argv
ALLOWED = {("src/kgmoe/cli.py", "main", "argv")}


def _scoped(node: ast.AST, cls: ast.ClassDef | None = None):
    """(enclosing class or None, node) of node and each node below it."""
    yield cls, node
    for child in ast.iter_child_nodes(node):
        yield from _scoped(child, node if isinstance(node, ast.ClassDef) else cls)


def _defaults(tree: ast.Module):
    """(line, qualified name, called name, parameter, positional index or None)
    of each defaulted parameter of each function and method."""
    for cls, node in _scoped(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        method = cls is not None and node in cls.body
        called = cls.name if method and node.name == "__init__" else node.name
        qualname = f"{cls.name}.{node.name}" if method else node.name
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        skip = 1 if method and not static else 0
        for i, arg in enumerate(positional[first:], first):
            yield node.lineno, qualname, called, arg.arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.lineno, qualname, called, arg.arg, None


def _calls(tree: ast.Module):
    """(called name, positional count, keyword names, starred) of each call;
    `cls(...)` inside a class is a call of that class."""
    for cls, node in _scoped(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = cls.name if func.id == "cls" and cls is not None else func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        starred = (any(isinstance(a, ast.Starred) for a in node.args)
                   or any(k.arg is None for k in node.keywords))
        yield name, len(node.args), {k.arg for k in node.keywords}, starred


def unset_defaults(sources: dict[str, str], defining) -> list[tuple[str, int, str, str]]:
    """(file, line, qualified name, parameter) of each defaulted parameter of
    the defining files that no call in any source sets."""
    trees = {key: ast.parse(source) for key, source in sources.items()}
    calls = [call for tree in trees.values() for call in _calls(tree)]
    return [(key, line, qualname, param) for key in sorted(defining)
            for line, qualname, called, param, index in _defaults(trees[key])
            if not any(name == called and (starred or param in keywords
                                           or (index is not None and index < n))
                       for name, n, keywords, starred in calls)]


def test_every_default_in_src_is_set_by_some_caller():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in CALLING}
    found = [(key, line, qualname, param) for key, line, qualname, param
             in unset_defaults(sources, [str(p.relative_to(ROOT)) for p in DEFINING])
             if (key, qualname, param) not in ALLOWED]
    assert not found, ", ".join(f"{key}:{line} {qualname}: no call sets {param!r}"
                                for key, line, qualname, param in found)


def test_checker_flags_a_default_no_call_sets():
    sources = {
        "a.py": (
            "def never(x, flag=False): pass\n"
            "def by_keyword(x, flag=False): pass\n"
            "def by_position(x, flag=False): pass\n"
            "def by_star(x, flag=False): pass\n"
            "def keyword_only(x, *, flag=False): pass\n"
            "class Box:\n"
            "    def __init__(self, size=1): pass\n"
            "    @classmethod\n"
            "    def make(cls, size):\n"
            "        return cls(size)\n"
            "    def grow(self, by=1): pass\n"
            "    def shrink(self, by=1): pass\n"
            "    @staticmethod\n"
            "    def fit(n=0): pass\n"),
        "b.py": (
            "import a\n"
            "a.never(1)\n"
            "a.by_keyword(1, flag=True)\n"
            "a.by_position(1, True)\n"
            "a.by_star(*[1, True])\n"
            "a.keyword_only(1, flag=True)\n"
            "box = a.Box.make(2)\n"
            "box.grow(2)\n"
            "box.shrink()\n"
            "a.Box.fit(3)\n"),
    }
    assert unset_defaults(sources, ["a.py"]) == [
        ("a.py", 1, "never", "flag"), ("a.py", 12, "Box.shrink", "by")]
