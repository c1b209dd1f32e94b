"""No module of the package holds a dense stack of the rows.

``ConstraintSystem`` stores its rows only as Kronecker blocks, ``_blocks``
(the rows ``L kron R`` of a left and a right stack: for a built system the
halves' ``H^T`` and a basis of Herm(k), and the trace rows' basis of
Herm(n) and ``I_k``), and the index ``_kept`` of the blocks' rows that it
keeps.  A raw (q, p, p) stack passed to its constructor becomes the one
block ``(C, [[1]])``.  Every module reads the rows through the system's
methods (``traces``, ``aggregate``, ``coordinates``, ``diagonals``,
``factor``, ...), so no module names the former stack ``matrices``, its flat
view ``_flat`` or its build ``_kron_rows``.

Rows from outside meet ``ConstraintSystem``'s exact Hermitian check.  Only
``constraints.py`` makes systems without it, through the private
``ConstraintSystem._derived``: systems derived from checked ones, and the
build from pairs, whose rows are Hermitian by construction.
"""

import ast
from pathlib import Path

import cpinterp

PACKAGE = Path(cpinterp.__file__).parent
STORAGE = {"matrices", "flat", "_flat", "_kron_rows"}
UNCHECKED = {"_derived"}


def _attribute_uses(path: Path, names=STORAGE) -> list[str]:
    """Every attribute access in ``path`` to one of ``names``, and every
    function of that name it defines; by default those of a row stack."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno} {name}" for node in ast.walk(tree)
            for name in (getattr(node, "attr", None) if isinstance(node, ast.Attribute)
                         else getattr(node, "name", None) if isinstance(node, ast.FunctionDef)
                         else None,)
            if name in names]


def test_no_module_has_a_row_stack():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "constraints.py" in modules
    assert [use for path in modules for use in _attribute_uses(path)] == []


def test_only_the_constraints_module_skips_the_hermitian_check():
    offenders = [r for path in sorted(PACKAGE.glob("*.py")) if path.name != "constraints.py"
                 for r in _attribute_uses(path, UNCHECKED)]
    assert offenders == []


def test_the_guard_sees_a_row_stack(tmp_path):
    source = tmp_path / "stacked.py"
    source.write_text("def _kron_rows(left, right):\n    return left\n\n"
                      "rows = system.matrices\nflat = system._flat\n")
    assert _attribute_uses(source) == [
        "stacked.py:1 _kron_rows", "stacked.py:4 matrices", "stacked.py:5 _flat"
    ]
    # its definition, then prune's copy, with_unit_trace, joint_support_reduce
    # and instance_system
    assert len(_attribute_uses(PACKAGE / "constraints.py", UNCHECKED)) == 5
