"""Assert guard: the package raises explicitly and never uses `assert`.

`python -O` strips assert statements, so a check written as one would
silently stop running; every guard in the package must be a raise.
"""

import ast
from pathlib import Path

import homgeom

PACKAGE = Path(homgeom.__file__).parent


def test_no_assert_statements_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements under src/homgeom: " + ", ".join(found)
