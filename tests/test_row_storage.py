"""Only ``cpinterp.constraints`` reads the row stack.

``ConstraintSystem`` stores its rows as a dense (q, p, p) stack, ``matrices``,
with the flat view ``_flat``.  Every other module reads the rows through the
system's methods (``traces``, ``aggregate``, ``coordinates``, ``factor``, ...),
so the storage can change in one module.

Rows from outside meet ``ConstraintSystem``'s exact Hermitian check.  Only
``constraints.py`` makes systems without it, through the private
``ConstraintSystem._derived``: systems derived from checked ones, and the
build from pairs, whose rows are Hermitian by construction.
"""

import ast
from pathlib import Path

import cpinterp

PACKAGE = Path(cpinterp.__file__).parent
STORAGE = {"matrices", "flat", "_flat"}
UNCHECKED = {"_derived"}


def _attribute_uses(path: Path, names=STORAGE) -> list[str]:
    """Every attribute access in ``path`` to one of ``names``, by default those
    of the row storage."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in names]


def test_only_the_constraints_module_reads_the_row_stack():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "constraints.py" in modules
    offenders = [r for path in modules if path.name != "constraints.py"
                 for r in _attribute_uses(path)]
    assert offenders == []


def test_only_the_constraints_module_skips_the_hermitian_check():
    offenders = [r for path in sorted(PACKAGE.glob("*.py")) if path.name != "constraints.py"
                 for r in _attribute_uses(path, UNCHECKED)]
    assert offenders == []


def test_the_guard_sees_the_constraints_module_read_it():
    assert _attribute_uses(PACKAGE / "constraints.py")
    # prune's copy, with_unit_trace, joint_support_reduce and instance_system
    assert len(_attribute_uses(PACKAGE / "constraints.py", UNCHECKED)) == 4
