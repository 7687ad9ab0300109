"""No module imports a name it never references, and the library defines
no private name that nothing references.  No linter is part of the
toolchain, so this scans the syntax trees of the library (except, for
imports, the package `__init__.py`, whose imports are its re-exports),
the tests and perfbench."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "pultr").glob("*.py"))
FILES = [
    *LIBRARY,
    *sorted((ROOT / "tests").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def unused_imports(source):
    """(line, name) for each name bound by an import of `source` and
    never referenced; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_the_scan_sees_unused_names():
    source = "import os, sys\nfrom a.b import c as d, e\nimport x.y\nprint(sys, e, x)\n"
    assert unused_imports(source) == [(1, "os"), (2, "d")]


def private_definitions(source):
    """(line, name) for each function, class or assigned name that
    `source` defines at module level under a name with one leading
    underscore."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [
            (node.lineno, name)
            for name in names
            if name.startswith("_") and not name.startswith("__")
        ]
    return found


def references(source):
    """The names `source` reads, imports or looks up as attributes, and
    its string constants, since monkeypatch and getattr take names as
    strings."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_the_scan_sees_unused_private_definitions():
    source = "_a = 1\n__b = 2\ndef _c():\n    return _a\nclass _D:\n    x = _e\n"
    assert private_definitions(source) == [(1, "_a"), (3, "_c"), (5, "_D")]
    assert {"_a", "_e"} <= references(source)
    assert not {"_c", "_D"} & references(source)


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in FILES
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def test_no_unreferenced_private_definitions():
    used = set().union(*(references(path.read_text()) for path in FILES))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in LIBRARY
        for line, name in private_definitions(path.read_text())
        if name not in used
    ]
    assert found == []
