"""The package is its Python modules alone: an install that drops
package data works like an editable checkout."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pultr"


def test_the_package_holds_only_modules():
    others = []
    for path in sorted(PACKAGE.rglob("*")):
        rel = path.relative_to(PACKAGE)
        if "__pycache__" not in rel.parts and not (path.is_file() and path.suffix == ".py"):
            others.append(str(rel))
    assert others == []
