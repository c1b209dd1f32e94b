"""Command-line front end.

Subcommands: ``solve`` (full pipeline to a report), ``certify`` (the same
pipeline, asking for a strictly positive solution; see ``_run``), ``apply``
(evaluate a solved map), ``kraus`` (print operation elements), ``verify``
(independently re-check a report).  Exit codes for solve/certify: 0
feasible, 2 certified infeasible, 3 undetermined (including
certified-no-strict), 4 input error, usage errors included.  ``verify``
exits 1 on the first failing check.
"""

from __future__ import annotations

import argparse
import functools
import sys as _sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, certify, linalg, reports
from .choi import ChoiMatrix, KrausSet, apply_choi, choi_to_kraus, kraus_to_choi
from .constraints import (
    ConstraintSystem,
    InconsistentSystemError,
    ProblemInstance,
    instance_system,
    is_diagonal_instance,
    joint_support_reduce,
    embed_solution,
    prune_dependent,
)
from .reports import InstanceFormatError
from .solvers import (
    ExpSolveConfig,
    project_affine,
    solve_barrier,
    solve_diagonal,
    solve_exp,
    verify as verify_solution,
)
from .tolerances import KRAUS_FACTOR, VERIFY_TOL

EXIT_FEASIBLE = 0
EXIT_VERIFY_FAIL = 1
EXIT_CERTIFIED_INFEASIBLE = 2
EXIT_UNDETERMINED = 3
EXIT_INPUT_ERROR = 4

_EXIT_CODES = {
    certify.FeasibilityStatus.FEASIBLE: EXIT_FEASIBLE,
    certify.FeasibilityStatus.CERTIFIED_INFEASIBLE: EXIT_CERTIFIED_INFEASIBLE,
    certify.FeasibilityStatus.CERTIFIED_NO_STRICT: EXIT_UNDETERMINED,
    certify.FeasibilityStatus.UNDETERMINED: EXIT_UNDETERMINED,
}


@dataclass
class SolveOptions:
    method: str = "auto"
    tol: float = ExpSolveConfig.gradient_tol
    max_iters: int = ExpSolveConfig.max_iterations
    trace_preserving: bool | None = None  # None: take the instance file's flag


def _tool_block() -> dict:
    return {"name": "cpinterp", "version": __version__}


def _certificate_block(cert: certify.Certificate, system: ConstraintSystem) -> dict:
    coefficients = cert.coefficients
    combo = system.aggregate(coefficients)
    return {
        "kind": cert.kind.value,
        "source": cert.source.value,
        "coefficients": [float(v) for v in coefficients],
        "objective": float(coefficients @ system.targets),
        "min_eigenvalue": float(linalg.min_eigenvalue(combo))
        if linalg.frobenius(combo) > 0
        else 0.0,
        "constraints": [str(t) for t in system.provenance],
    }


def _report_inconsistent(report: dict, exc: InconsistentSystemError) -> certify.FeasibilityStatus:
    """Fill the report for a contradictory linear system; return its status.

    Pruning decides dependence with a tolerance, so on ill-conditioned data
    its certificate can fail the exact check; then nothing is proven and the
    verdict is undetermined.
    """
    cert = certify.Certificate(
        exc.certificate_coefficients,
        certify.CertificateKind.EXCLUDES_PSD,
        objective=float(exc.certificate_coefficients @ exc.system.targets),
        min_eigenvalue=0.0,
        source=certify.CertificateSource.LINEAR_SYSTEM,
    )
    valid = certify.validate(cert, exc.system)
    report["solver"] = {
        "method": "none",
        "status": "inconsistent-linear-system",
        "iterations": 0,
        "cg_iterations": 0,
        "newton_steps": 0,
        "message": str(exc) if valid else (
            f"{exc}; its certificate fails validation, so infeasibility is not proven"
        ),
    }
    report["constraints"] = [str(t) for t in exc.system.provenance]
    report["certificate"] = _certificate_block(cert, exc.system) if valid else None
    report["targets"] = [float(b) for b in exc.system.targets]
    report["choi"] = None
    report["kraus"] = None
    return (
        certify.FeasibilityStatus.CERTIFIED_INFEASIBLE if valid
        else certify.FeasibilityStatus.UNDETERMINED
    )


def _solver_block(outcome, method: str) -> dict:
    return {
        "method": method,
        "status": outcome.status.value,
        "iterations": int(outcome.iterations),
        "cg_iterations": int(outcome.cg_iterations),
        "newton_steps": int(outcome.newton_steps),
        "message": outcome.message,
    }


def _solve(
    report: dict, inst: ProblemInstance, base: ConstraintSystem, pruned: ConstraintSystem,
    options: SolveOptions, strict: bool,
) -> certify.FeasibilityStatus:
    """Reduce the support, solve, take the verdict; fill the report, return the status."""
    report["constraints"] = [str(t) for t in base.provenance]
    report["targets"] = [float(b) for b in base.targets]

    reduced, reduction = joint_support_reduce(pruned, inst)
    report["support"] = {
        "full_dim": int(reduction.full_dim),
        "reduced_dim": int(reduction.reduced_dim),
    }

    method = options.method
    if method == "auto":
        method = "diagonal" if is_diagonal_instance(inst) else "exp"

    exp_cfg = ExpSolveConfig(gradient_tol=options.tol, max_iterations=options.max_iters)
    if method == "exp":
        outcome = solve_exp(reduced, exp_cfg)
    elif method == "diagonal":
        outcome = solve_diagonal(reduced, exp_cfg)
    elif method == "barrier":
        outcome = solve_barrier(reduced, exp_cfg)
    else:
        raise InstanceFormatError(f"unknown method {options.method!r}")
    report["solver"] = _solver_block(outcome, method)

    if strict:
        span = certify.span_contains_positive(pruned, exp_cfg)
        report["span_check"] = {
            "contains_positive_definite": bool(span.contains_positive_definite),
            "best_min_eigenvalue": float(span.best_min_eigenvalue),
            "source": span.source.value,
        }

    status, cert = certify.verdict(pruned, outcome, strict)
    if status is certify.FeasibilityStatus.FEASIBLE:
        x = embed_solution(outcome.solution, reduction)
        x = project_affine(x, pruned)
        check = verify_solution(x, base)
        kraus_tol = KRAUS_FACTOR * options.tol * (1.0 + linalg.frobenius(x))
        kraus = choi_to_kraus(ChoiMatrix(inst.n, inst.k, x), tol=kraus_tol)
        report["choi"] = reports.matrix_to_jsonable(x)
        report["kraus"] = [reports.matrix_to_jsonable(v) for v in kraus.elements]
        report["kraus_count"] = len(kraus.elements)
        report["residuals"] = [float(r) for r in check.residuals]
        report["max_residual"] = float(check.max_residual)
        report["min_eigenvalue"] = float(check.min_eigenvalue)
    else:
        report["choi"] = None
        report["kraus"] = None
    report["certificate"] = None if cert is None else _certificate_block(cert, pruned)
    return status


def _run(inst: ProblemInstance, options: SolveOptions, strict: bool) -> tuple[dict, int]:
    """The pipeline behind ``solve`` and ``certify``: build, prune, reduce the
    support, solve with the resolved method, take the verdict, write the report.

    ``strict`` asks for a strictly positive solution: a feasible solve with a
    marginal witness is checked for a PD-excluding certificate, and the
    report gains a ``span_check`` block.  Returns the report dictionary and
    the process exit code.
    """
    started = time.perf_counter()
    tp = inst.trace_preserving if options.trace_preserving is None else options.trace_preserving
    report: dict = {
        "tool": _tool_block(),
        "status": None,
        "problem": {
            "n": inst.n,
            "k": inst.k,
            "pairs": inst.count,
            "trace_preserving": bool(tp),
        },
    }
    try:
        base = instance_system(inst, trace_preserving=tp)
        pruned = prune_dependent(base)
    except InconsistentSystemError as exc:
        status = _report_inconsistent(report, exc)
        if strict:
            report["span_check"] = None
    else:
        status = _solve(report, inst, base, pruned, options, strict)
    report["status"] = status.value
    report["timing"] = {"seconds": time.perf_counter() - started}
    return report, _EXIT_CODES[status]


def run_solve(inst: ProblemInstance, options: SolveOptions) -> tuple[dict, int]:
    """Solve an instance: returns the report dictionary and the exit code."""
    return _run(inst, options, strict=False)


def run_certify(inst: ProblemInstance, options: SolveOptions) -> tuple[dict, int]:
    """Solve asking for a strictly positive solution; see ``_run``."""
    return _run(inst, options, strict=True)


def run_apply(report_path: str | Path, matrix_path: str | Path) -> np.ndarray:
    """Evaluate the solved map (from a report's Choi matrix) on an input matrix."""
    doc = reports.read_report(report_path)
    problem = doc.get("problem", {})
    n, k = problem.get("n"), problem.get("k")
    if not reports.is_integer(n) or not reports.is_integer(k):
        raise InstanceFormatError("report lacks problem dimensions")
    phi = reports.report_matrix(doc, "choi", n * k, n * k)
    matrix_doc = reports.load_json(matrix_path)
    if isinstance(matrix_doc, dict) and "A" in matrix_doc:
        matrix_doc = matrix_doc["A"]
    a = reports.matrix_from_json(matrix_doc, n, n, "input matrix")
    return apply_choi(ChoiMatrix(n, k, phi), a)


def run_verify(report_path: str | Path, instance_path: str | Path, tol: float = VERIFY_TOL):
    """Independently re-check a report against its instance.

    Yields (check name, passed, detail) tuples, stopping after the first
    failure.
    """
    doc = reports.read_report(report_path)
    inst = reports.parse_instance(instance_path)
    status = doc.get("status")
    problem = doc.get("problem", {})
    tp = bool(problem.get("trace_preserving", inst.trace_preserving))

    if problem.get("n") != inst.n or problem.get("k") != inst.k:
        yield ("dimensions", False,
               f"report is for {problem.get('n')} x {problem.get('k')}, "
               f"instance is {inst.n} x {inst.k}")
        return
    yield ("dimensions", True, f"n={inst.n} k={inst.k}")

    if status == "feasible":
        if doc.get("choi") is None:
            yield ("payload", False, "status feasible but no Choi matrix present")
            return
        yield ("payload", True, "feasible report carries a Choi matrix")
        p = inst.n * inst.k
        phi = reports.report_matrix(doc, "choi", p, p)
        herm_gap = linalg.frobenius(phi - phi.conj().T)
        if herm_gap > tol * (1.0 + linalg.frobenius(phi)):
            yield ("hermitian", False, f"Choi matrix is not Hermitian (gap {herm_gap:.3g})")
            return
        yield ("hermitian", True, f"gap {herm_gap:.3g}")

        try:
            base = instance_system(inst, trace_preserving=tp)
        except InconsistentSystemError as exc:
            base = exc.system  # its zero rows carry the contradicting targets
        check = verify_solution(phi, base, tol)
        if check.max_residual > tol:
            worst = int(np.argmax(np.abs(check.residuals)))
            yield ("residuals", False,
                   f"constraint {base.provenance[worst]} residual "
                   f"{check.residuals[worst]:.3g} exceeds {tol:.3g}")
            return
        yield ("residuals", True, f"max residual {check.max_residual:.3g}")

        if not check.positive_semidefinite:
            yield ("psd", False, f"min eigenvalue {check.min_eigenvalue:.3g}")
            return
        yield ("psd", True, f"min eigenvalue {check.min_eigenvalue:.3g}")

        if doc.get("kraus") is None:
            yield ("kraus", False, "feasible report carries no Kraus elements")
            return
        elements = [
            reports.matrix_from_json(v, inst.n, inst.k, f"kraus[{i}]")
            for i, v in enumerate(doc["kraus"])
        ]
        rebuilt = kraus_to_choi(KrausSet(inst.n, inst.k, elements)).matrix
        gap = linalg.frobenius(rebuilt - phi) / (1.0 + linalg.frobenius(phi))
        if gap > tol:
            yield ("kraus", False, f"Kraus round trip misses the Choi matrix by {gap:.3g}")
            return
        yield ("kraus", True, f"round-trip gap {gap:.3g}")
        return

    kind = next((k for k, s in certify.CERTIFIED_STATUS.items() if s.value == status), None)
    if kind is not None:
        cert_doc = doc.get("certificate")
        if not isinstance(cert_doc, dict):
            yield ("payload", False, f"{status} report carries no certificate")
            return
        if doc.get("choi") is not None:
            yield ("payload", False, f"status {status!r} must not carry a solution")
            return
        yield ("payload", True, "certificate present")
        try:
            system = prune_dependent(instance_system(inst, trace_preserving=tp))
        except InconsistentSystemError as exc:
            system = exc.system
        tags = [str(t) for t in system.provenance]
        if cert_doc.get("constraints") != tags:
            yield ("certificate", False, "certificate constraint list does not match "
                   "the rebuilt system")
            return
        try:
            cert = certify.Certificate(np.asarray(cert_doc.get("coefficients"), dtype=float),
                                       kind, objective=0.0, min_eigenvalue=0.0)
            valid = certify.validate(cert, system)
        except (TypeError, ValueError) as exc:
            yield ("certificate", False, f"malformed certificate coefficients: {exc}")
            return
        if not valid:
            yield ("certificate", False, f"certificate does not validate as {kind.value} "
                   "against the rebuilt system")
            return
        yield ("certificate", True, f"certificate validates as {kind.value}")
        return

    yield ("payload", doc.get("choi") is None,
           f"status {status!r} must not carry a solution")


def _print_matrix(m: np.ndarray, stream=None) -> None:
    stream = stream or _sys.stdout
    for row in np.asarray(m, dtype=complex):
        cells = []
        for z in row:
            if abs(z.imag) == 0.0:
                cells.append(format(z.real, ".17g"))
            else:
                cells.append(f"{format(z.real, '.17g')}{z.imag:+.17g}j")
        stream.write("  ".join(cells) + "\n")


def _emit_report(report: dict, out: str | None) -> None:
    text = reports.dumps_canonical(report) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        _sys.stdout.write(text)


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=reports.SOLVER_METHODS, default=None,
                        help="solver: exponential potential, log-det barrier, or auto "
                             "(diagonal fast path when applicable; default auto)")
    parser.add_argument("--tol", type=float, default=None,
                        help=f"residual tolerance (default {SolveOptions.tol:g})")
    parser.add_argument("--max-iters", type=int, default=None,
                        help="iteration cap of each solve, certify's span check "
                             f"included (default {SolveOptions.max_iters})")
    parser.add_argument("--trace-preserving", action="store_true", default=None,
                        help="require a quantum channel (trace preserving)")
    parser.add_argument("--out", default=None, help="write the report to this path")


def _options_from_args(args, file_options: dict) -> SolveOptions:
    opts = SolveOptions()
    opts.method = args.method or file_options.get("method", opts.method)
    opts.tol = (
        reports.checked_tol(args.tol, "--tol") if args.tol is not None
        else file_options.get("tol", opts.tol)
    )
    opts.max_iters = (
        args.max_iters if args.max_iters is not None
        else file_options.get("max_iters", opts.max_iters)
    )
    opts.trace_preserving = True if args.trace_preserving else None
    # solver.max_iters was checked when the file was read
    if opts.max_iters < 1:
        raise InstanceFormatError("--max-iters must be at least 1")
    return opts


class _Parser(argparse.ArgumentParser):
    """Exits with ``EXIT_INPUT_ERROR`` on a usage error.

    argparse's own status for one is 2, which here means certified infeasible.
    Subparsers are built from the same class.
    """

    def error(self, message):
        self.print_usage(_sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    ``parse_args`` leaves it unchanged, and building it takes about 1.2 ms,
    which every ``main`` call would otherwise pay.
    """
    parser = _Parser(
        prog="cpinterp",
        description="Find completely positive maps taking prescribed values.",
    )
    parser.add_argument("--version", action="version", version=f"cpinterp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance and emit a report")
    p_solve.add_argument("instance", help="instance JSON file")
    _add_solver_flags(p_solve)

    p_cert = sub.add_parser("certify", help="characterize feasibility with certificates")
    p_cert.add_argument("instance", help="instance JSON file")
    _add_solver_flags(p_cert)

    p_apply = sub.add_parser("apply", help="apply a solved map to a matrix")
    p_apply.add_argument("report", help="report JSON file with a Choi matrix")
    p_apply.add_argument("matrix", help="JSON file holding an n x n matrix")

    p_kraus = sub.add_parser("kraus", help="print the operation elements of a report")
    p_kraus.add_argument("report", help="report JSON file with Kraus elements")

    p_verify = sub.add_parser("verify", help="independently re-check a report")
    p_verify.add_argument("report", help="report JSON file")
    p_verify.add_argument("instance", help="instance JSON file")
    p_verify.add_argument("--tol", type=float, default=VERIFY_TOL,
                          help=f"residual and eigenvalue tolerance (default {VERIFY_TOL:g})")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("solve", "certify"):
            doc = reports.load_json(args.instance)
            inst = reports.instance_from_jsonable(doc)
            options = _options_from_args(args, reports.solver_options_from_jsonable(doc))
            run = run_solve if args.command == "solve" else run_certify
            report, code = run(inst, options)
            _emit_report(report, args.out)
            return code

        if args.command == "apply":
            result = run_apply(args.report, args.matrix)
            _print_matrix(result)
            return 0

        if args.command == "kraus":
            doc = reports.read_report(args.report)
            problem = doc.get("problem", {})
            n, k = problem.get("n"), problem.get("k")
            if doc.get("kraus") is None or not reports.is_integer(n) or not reports.is_integer(k):
                raise InstanceFormatError("report carries no Kraus elements")
            for i, v in enumerate(doc["kraus"]):
                _sys.stdout.write(f"# element {i + 1}\n")
                _print_matrix(reports.matrix_from_json(v, n, k, f"kraus[{i}]"))
            return 0

        if args.command == "verify":
            failed = False
            tol = reports.checked_tol(args.tol, "--tol")
            for name, ok, detail in run_verify(args.report, args.instance, tol=tol):
                _sys.stdout.write(f"{'ok' if ok else 'FAIL'}: {name}: {detail}\n")
                if not ok:
                    failed = True
                    break
            return EXIT_VERIFY_FAIL if failed else 0

    except InstanceFormatError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    except OSError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
