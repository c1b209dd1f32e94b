"""No check in the package is an ``assert`` statement.

``python -O`` strips every ``assert``, so a check written as one stops
checking in an optimized run.  The package raises instead.
"""

import ast
from pathlib import Path

import cpinterp

PACKAGE = Path(cpinterp.__file__).parent


def _asserts(path: Path) -> list[str]:
    """``file:line`` of every ``assert`` statement in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_the_package_has_no_assert_statement():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "pipeline.py" in modules
    assert [found for path in modules for found in _asserts(path)] == []


def test_the_scan_finds_an_assert(tmp_path):
    path = tmp_path / "checked.py"
    path.write_text("def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n")
    assert _asserts(path) == ["checked.py:3"]
