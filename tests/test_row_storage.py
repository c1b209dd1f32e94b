"""Only ``cpinterp.constraints`` reads the row stack.

``ConstraintSystem`` stores its rows as a dense (q, p, p) stack, ``matrices``,
with the flat view ``_flat``.  Every other module reads the rows through the
system's methods (``traces``, ``aggregate``, ``coordinates``, ``factor``, ...),
so the storage can change in one module.
"""

import ast
from pathlib import Path

import cpinterp

PACKAGE = Path(cpinterp.__file__).parent
STORAGE = {"matrices", "flat", "_flat"}


def _storage_reads(path: Path) -> list[str]:
    """Every attribute access in ``path`` to a name of the row storage."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in STORAGE]


def test_only_the_constraints_module_reads_the_row_stack():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "constraints.py" in modules
    offenders = [r for path in modules if path.name != "constraints.py"
                 for r in _storage_reads(path)]
    assert offenders == []


def test_the_guard_sees_the_constraints_module_read_it():
    assert _storage_reads(PACKAGE / "constraints.py")
