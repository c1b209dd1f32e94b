"""The tolerance policy lives in one module.

Every numerical cut is named once in ``cpinterp.tolerances``; other modules
import it.  A module that binds its own ``*_TOL`` or ``*_RTOL`` at module
level makes the same decision a second time, with a value that can drift.
"""

import ast
from pathlib import Path

import cpinterp
from cpinterp import tolerances

PACKAGE = Path(cpinterp.__file__).parent


def _bound_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _bound_names(elt)]
    return []


def _policy_bindings(path: Path) -> list[str]:
    """Module-level assignments in ``path`` to a name ending in _TOL or _RTOL."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            found += [f"{path.name}:{node.lineno} {name}" for name in _bound_names(target)
                      if name.endswith(("_TOL", "_RTOL"))]
    return found


def test_only_the_policy_module_binds_tolerances():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "tolerances.py" in modules
    offenders = [b for path in modules if path.name != "tolerances.py"
                 for b in _policy_bindings(path)]
    assert offenders == []


def test_the_policy_module_binds_the_tolerances():
    bindings = _policy_bindings(PACKAGE / "tolerances.py")
    assert len(bindings) >= 5
    for binding in bindings:
        name = binding.split()[-1]
        assert isinstance(getattr(tolerances, name), float)
