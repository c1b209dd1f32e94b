"""The one pipeline from an instance to a verdict, behind ``solve`` and ``certify``.

``run`` takes each stage once: build and prune, support reduction, the span
check when ``strict``, the solve (``solve_diagonal`` for diagonal data,
``solve_exp`` otherwise) unless the span check's witness already certifies
infeasibility, the verdict, and for a feasible verdict the projection,
``verify`` and the Kraus elements.
``cli`` renders its ``Result``.  The span-check, solve and verdict stage is
``certify.decide``, which ``certify.feasibility_report`` calls too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import certify, linalg
from .certify import FeasibilityReport, FeasibilityStatus
from .choi import ChoiMatrix, KrausSet, choi_to_kraus
from .constraints import (
    ConstraintSystem, InconsistentSystemError, ProblemInstance, SupportReduction, embed_solution,
    instance_system, is_diagonal_instance, joint_support_reduce, prune_dependent,
)
from .solvers import ExpSolveConfig, VerifyReport, project_affine, solve_diagonal
from .solvers import solve_exp, verify as verify_solution
from .tolerances import KRAUS_FACTOR


@dataclass
class SolveOptions:
    tol: float = ExpSolveConfig.gradient_tol
    max_iters: int = ExpSolveConfig.max_iterations
    trace_preserving: bool | None = None  # None: take the instance file's flag


@dataclass
class Result:
    """What ``run`` found.  ``system`` is the built system, or the one that
    the build or prune found contradictory, which then also stands for
    ``pruned``, the system the certificate is over.  ``method`` is the
    solver, "exp" or "diagonal", and "none" when no solve ran: ``reduction``
    is then None after a contradiction, and still set when the span check
    decided (``certify.decide``).  The map fields are None unless the verdict
    is feasible."""

    instance: ProblemInstance
    trace_preserving: bool
    strict: bool
    system: ConstraintSystem
    pruned: ConstraintSystem
    feasibility: FeasibilityReport
    inconsistency: InconsistentSystemError | None = None
    method: str = "none"
    reduction: SupportReduction | None = None
    choi: np.ndarray | None = None
    kraus: KrausSet | None = None
    check: VerifyReport | None = None
    seconds: float = 0.0


def run(inst: ProblemInstance, options: SolveOptions, strict: bool) -> Result:
    """Every stage from ``inst`` to a verdict, each once.  ``strict`` asks
    for a strictly positive solution: the span check runs, a witness of it
    that certifies infeasibility answers without a solve, and a feasible
    solve with a marginal witness is checked for a PD-excluding certificate.
    The solvers are read off this module when called, so a wrapper set on
    them here runs."""
    started = time.perf_counter()
    cfg = ExpSolveConfig(gradient_tol=options.tol, max_iterations=options.max_iters)
    tp = inst.trace_preserving if options.trace_preserving is None else options.trace_preserving
    try:
        built = instance_system(inst, trace_preserving=tp)
        pruned = prune_dependent(built)
    except InconsistentSystemError as exc:
        result = Result(inst, bool(tp), strict, exc.system, exc.system,
                        certify.linear_system_verdict(exc.system, exc.certificate_coefficients),
                        inconsistency=exc)
    else:
        reduced, reduction = joint_support_reduce(pruned, inst)
        method = "diagonal" if is_diagonal_instance(inst) else "exp"
        solve = solve_diagonal if method == "diagonal" else solve_exp
        feasibility = certify.decide(pruned, reduced, solve, cfg, strict)
        if feasibility.solve_outcome is None:  # the span check decided
            method = "none"
        result = Result(inst, bool(tp), strict, built, pruned, feasibility,
                        method=method, reduction=reduction)
        if feasibility.status is FeasibilityStatus.FEASIBLE:
            x = embed_solution(feasibility.solve_outcome.solution, reduction)
            result.choi = x = project_affine(x, pruned)
            result.check = verify_solution(x, built)
            kraus_tol = KRAUS_FACTOR * options.tol * (1.0 + linalg.frobenius(x))
            result.kraus = choi_to_kraus(ChoiMatrix(inst.n, inst.k, x), tol=kraus_tol)
    result.seconds = time.perf_counter() - started
    return result
