"""No module imports a name it never references.  No linter is part of
the toolchain, so this scans the syntax trees of the library (except
the package `__init__.py`, whose imports are its re-exports), the
tests and perfbench."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def test_no_unused_imports():
    files = [
        *(ROOT / "src" / "pultr").glob("*.py"),
        *(ROOT / "tests").glob("*.py"),
        *(ROOT / "perfbench").glob("*.py"),
    ]
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(files)
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []
