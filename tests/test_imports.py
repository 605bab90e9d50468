"""Every module-level import in the library is used, and every function it
defines is called from inside it; stdlib stand-ins for a linter's unused-name
rules, so that helpers only the tests need live in ``tests/``."""

import ast
from pathlib import Path

import kschubert

SRC = Path(kschubert.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads and
    does not list in ``__all__``."""
    tree = ast.parse(source)
    imported, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read and name not in exported]


def test_checker_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from a import b, c as d\n"
        "__all__ = ['b']\n"
        "sys.exit(0)\n"
    )
    assert unused_imports(source) == ["os", "d"]


def test_no_unused_imports_in_library():
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


# Functions that only code outside the library reads: the independent
# oracle the tests and the benchmark compare against, and the matrix view of
# a finite part that the benchmark reads and turns back into an element.
ENTRY_POINTS = {
    "pontryagin_constants_linear",
    "wmat",
    "finite_element",
}


def uncalled_functions(sources: list[str]) -> list[str]:
    """Non-dunder functions and methods defined in ``sources`` whose name is
    never read there, as a name or as an attribute, and is not an entry
    point.  A read inside the body of a function of that name does not
    count, so a recursion that nothing else enters is flagged too.  Names
    are matched without their class, so a method is never flagged while
    anything of the same name is read: ``RationalFunction.act`` had no
    library caller once the b kernel stopped using it, yet passed because
    ``GroupAlgebraElement.act`` is read; it now lives in ``tests/oracles.py``
    as ``rf_act``."""
    defined, read = [], set()

    def visit(node, enclosing: frozenset) -> None:
        body = ()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.append(node.name)
            body = node.body
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in enclosing:
                read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in enclosing:
                read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing | {node.name} if child in body else enclosing)

    for source in sources:
        visit(ast.parse(source), frozenset())
    return sorted(
        name
        for name in set(defined)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in read
        and name not in ENTRY_POINTS
    )


def test_checker_flags_uncalled_functions():
    source = (
        "def used(): pass\n"
        "def unused(): pass\n"
        "def main(): used(); countdown(2)\n"
        "def countdown(n): return countdown(n - 1) if n else 0\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "class C:\n"
        "    def __eq__(self, other): return True\n"
        "    def method(self): pass\n"
        "    def other(self): return self.method()\n"
        "raise SystemExit(main())\n"
    )
    assert uncalled_functions([source]) == ["other", "recursive", "unused"]


def test_every_library_function_is_called_in_the_library():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert uncalled_functions(sources) == []
