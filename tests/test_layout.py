"""Two layout rules of ``src/tatek``, read from its source with ``ast``.

The package is dependency-free: every import names the package itself or a
module of the standard library.  And no line is wider than 100 columns.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tatek"
MODULES = sorted(PACKAGE.glob("*.py"))
MAX_COLUMNS = 100


def imported_modules(tree: ast.Module) -> list[str]:
    """The absolute module names that ``tree`` imports; a relative import
    names the package itself."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("tatek" if node.level else node.module)
    return names


def test_every_module_is_checked():
    assert {"cli.py", "modp.py", "orbits.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_are_the_package_or_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [
        name
        for name in imported_modules(tree)
        if name.partition(".")[0] not in {"tatek", *sys.stdlib_module_names}
    ]
    assert outside == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_line_is_wider_than_100_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    wide = [number for number, line in enumerate(lines, 1) if len(line) > MAX_COLUMNS]
    assert wide == []
