"""Every module-level import in the library is used, and every function it
defines is called from inside it; stdlib stand-ins for a linter's unused-name
rules, so that helpers only the tests need live in ``tests/``.  Importing
the command line loads no standard module that the engine does not use."""

import ast
import json
import os
import subprocess
import sys
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


def unused_in(directory: Path) -> dict[str, list[str]]:
    """``unused_imports`` of every module in ``directory``, by file name."""
    return {
        path.name: names
        for path in sorted(directory.glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }


def test_no_unused_imports_in_library():
    assert unused_in(SRC) == {}


def test_no_unused_imports_in_tests():
    assert unused_in(Path(__file__).parent) == {}


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
    count, so a recursion that nothing else enters is flagged too.  A
    ``@classmethod`` counts as read only through ``ClassName.name``, or
    ``cls.name`` inside its class, and is flagged as ``ClassName.name``:
    ``RationalFunction.zero`` had only test readers yet passed while
    ``GroupAlgebraElement.zero`` was read.  Other methods are matched
    without their class, so one is never flagged while anything of the same
    name is read: ``RationalFunction.act`` had no library caller once the b
    kernel stopped using it, yet passed because ``GroupAlgebraElement.act``
    is read; it now lives in ``tests/oracles.py`` as ``rf_act``."""
    defined, read = [], set()

    def visit(node, enclosing: frozenset, owner: str | None) -> None:
        body = ()
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound = owner and any(isinstance(d, ast.Name) and d.id == "classmethod" for d in node.decorator_list)
            defined.append(f"{owner}.{node.name}" if bound else node.name)
            body = node.body
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in enclosing:
                read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in enclosing:
                read.add(node.attr)
                if isinstance(node.value, ast.Name):
                    read.add(f"{owner if node.value.id == 'cls' else node.value.id}.{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing | {node.name} if child in body else enclosing, owner)

    for source in sources:
        visit(ast.parse(source), frozenset(), None)
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


def test_checker_reads_a_classmethod_through_its_class():
    source = (
        "class A:\n"
        "    @classmethod\n"
        "    def zero(cls): return cls()\n"
        "    @classmethod\n"
        "    def one(cls): return cls.zero()\n"
        "class B:\n"
        "    @classmethod\n"
        "    def zero(cls): return A.one()\n"
        "    @classmethod\n"
        "    def one(cls): return cls()\n"
        "B.zero()\n"
        "B().one()\n"
    )
    assert uncalled_functions([source]) == ["B.one"]


def test_every_library_function_is_called_in_the_library():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert uncalled_functions(sources) == []


def test_every_entry_point_is_read_by_the_benchmark():
    # An entry point the benchmark no longer reads is exempt for no reason:
    # the names this lists may leave the library, or ENTRY_POINTS.
    read = {
        node.attr
        for path in sorted((SRC.parents[1] / "perfbench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    assert sorted(ENTRY_POINTS - read) == []


def unpassed_defaults(defining: list[str], calling: list[str]) -> list[str]:
    """``name.parameter`` for each defaulted parameter of a function or
    constructor defined in ``defining`` that no call in ``calling`` passes,
    by keyword or by position: an option that no caller sets.  A constructor
    counts under its class name, and the positions of a method start after
    ``self`` or ``cls``.  Calls are matched by name alone, as in
    ``uncalled_functions``, and one that unpacks ``*args`` or ``**kwargs``
    passes every parameter."""
    defaults: list[tuple[str, str, int | None]] = []

    def collect(node, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                collect(child, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                if owner is not None and not static:
                    positional = positional[1:]
                name = owner if child.name == "__init__" and owner else child.name
                first = len(positional) - len(args.defaults)
                defaults.extend((name, a.arg, k) for k, a in enumerate(positional) if k >= first)
                defaults.extend((name, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d)
            collect(child, None)

    for source in defining:
        collect(ast.parse(source), None)
    passed = set()
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                passed.add((name, "*"))
            passed.update((name, k.arg) for k in node.keywords)
            passed.update((name, k) for k in range(len(node.args)))
    return sorted(
        f"{name}.{param}"
        for name, param, position in defaults
        if not {(name, "*"), (name, param), (name, position)} & passed
    )


def test_checker_flags_unpassed_defaults():
    source = (
        "def f(a, b=1, *, c=2, d=3): pass\n"
        "def g(a, b=1): pass\n"
        "def h(a=1): pass\n"
        "class C:\n"
        "    def __init__(self, x, y=0): pass\n"
        "    def m(self, z=0): pass\n"
        "    @staticmethod\n"
        "    def s(z=0): pass\n"
        "class D:\n"
        "    def __init__(self, a, b, c=0, d=None): pass\n"
        "f(0, c=5)\n"
        "D(1, 2, d=[])\n"
        "g(*rest)\n"
        "C(1)\n"
        "C(1).m(2)\n"
        "C.s()\n"
    )
    assert unpassed_defaults([source], [source]) == ["C.y", "D.c", "f.b", "f.d", "h.a", "s.z"]


def test_every_library_default_is_passed_by_some_caller():
    root = SRC.parents[1]
    callers = [root / "src", root / "tests", root / "perfbench"]
    calling = [path.read_text() for folder in callers for path in sorted(folder.rglob("*.py"))]
    assert unpassed_defaults([path.read_text() for path in sorted(SRC.glob("*.py"))], calling) == []


# Standard modules that ``import kschubert.cli`` must not load: code
# generation at import time (``dataclasses``, which pulls in ``inspect``),
# rational and decimal arithmetic the engine does not do, ``typing``, and
# package-resource lookup for files that sit next to the source.
UNUSED_AT_IMPORT = ("dataclasses", "inspect", "fractions", "decimal", "typing", "importlib.resources")


def test_cli_import_loads_no_unused_standard_module():
    # A fresh interpreter without ``site``, whose .pth files may preload
    # some of these modules themselves.
    probe = f"import json, sys, kschubert.cli; print(json.dumps([m for m in {UNUSED_AT_IMPORT!r} if m in sys.modules]))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []
