"""Command-line front end.

Subcommands: ``solve`` (``pipeline.run`` to a report), ``certify`` (the same
pipeline, asking for a strictly positive solution), ``apply`` (evaluate a
solved map), ``kraus`` (print operation elements), ``verify`` (independently
re-check a report).  Exit codes for solve/certify: 0 feasible, 2 certified
infeasible, 3 undetermined (including certified-no-strict), 4 input error,
usage errors included.  ``verify`` exits 1 on the first failing check.
"""

from __future__ import annotations

import argparse
import functools
import sys as _sys
from pathlib import Path

import numpy as np

from . import __version__, certify, linalg, pipeline, reports
from .choi import ChoiMatrix, KrausSet, apply_choi, kraus_to_choi
from .constraints import InconsistentSystemError, ProblemInstance, instance_system, prune_dependent
from .pipeline import SolveOptions
from .reports import InstanceFormatError
from .solvers import verify as verify_solution
from .tolerances import VERIFY_TOL

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

# The keys of the two report shapes in order: a solved system, and one that the build or
# prune found contradictory.  span_check is certify's, kraus_count..min_eigenvalue a map's.
_SOLVED_KEYS = ("tool", "status", "problem", "constraints", "targets", "support", "solver",
                "span_check", "choi", "kraus", "kraus_count", "residuals", "max_residual",
                "min_eigenvalue", "certificate", "timing")
_INCONSISTENT_KEYS = ("tool", "status", "problem", "solver", "constraints", "certificate",
                      "targets", "choi", "kraus", "span_check", "timing")


def _certificate_block(result: pipeline.Result) -> dict | None:
    cert, system = result.feasibility.certificate, result.pruned
    if cert is None:
        return None
    combo = system.aggregate(cert.coefficients)
    return {
        "kind": cert.kind.value,
        "source": cert.source.value,
        "coefficients": np.array(cert.coefficients, dtype=float),
        "objective": float(cert.coefficients @ system.targets),
        "min_eigenvalue": float(linalg.min_eigenvalue(combo))
        if linalg.frobenius(combo) > 0
        else 0.0,
        "constraints": [str(t) for t in system.provenance],
    }


def _solver_block(result: pipeline.Result) -> dict:
    outcome, exc = result.feasibility.solve_outcome, result.inconsistency
    if outcome is None and exc is None:  # the span check decided (certify.decide)
        return {
            "method": result.method,
            "status": "not-run",
            "iterations": 0,
            "cg_iterations": 0,
            "newton_steps": 0,
            "message": "the span check's positive definite combination of the rows pairs "
                       "negatively with the targets; no solve ran",
        }
    if outcome is None:
        return {
            "method": "none",
            "status": "inconsistent-linear-system",
            "iterations": 0,
            "cg_iterations": 0,
            "newton_steps": 0,
            "message": str(exc) if result.feasibility.certificate is not None else (
                f"{exc}; its certificate fails validation, so infeasibility is not proven"
            ),
        }
    return {
        "method": result.method,
        "status": outcome.status.value,
        "iterations": int(outcome.iterations),
        "cg_iterations": int(outcome.cg_iterations),
        "newton_steps": int(outcome.newton_steps),
        "message": outcome.message,
    }


def _render(result: pipeline.Result) -> tuple[dict, int]:
    """The report of a pipeline result, and the process exit code.

    Its float blocks are float64 ndarrays, which ``reports.dumps_canonical``
    writes in one pass each: ``choi`` (p, p, 2) and ``kraus`` (m, n, k, 2) as
    ``[re, im]`` pairs, ``targets``, ``residuals`` and the certificate's
    ``coefficients``.
    """
    inst, feasibility, x = result.instance, result.feasibility, result.choi
    span = feasibility.span_check
    values = {
        "tool": {"name": "cpinterp", "version": __version__},
        "status": feasibility.status.value,
        "problem": {"n": inst.n, "k": inst.k, "pairs": inst.count,
                    "trace_preserving": result.trace_preserving},
        "constraints": [str(t) for t in result.system.provenance],
        "targets": np.array(result.system.targets, dtype=float),
        "solver": _solver_block(result),
        "choi": None,
        "kraus": None,
        "certificate": _certificate_block(result),
        "timing": {"seconds": result.seconds},
    }
    if result.reduction is not None:
        values["support"] = {"full_dim": int(result.reduction.full_dim),
                             "reduced_dim": int(result.reduction.reduced_dim)}
    if result.strict:
        values["span_check"] = None if span is None else {
            "contains_positive_definite": bool(span.contains_positive_definite),
            "best_min_eigenvalue": float(span.best_min_eigenvalue),
            "source": span.source.value,
        }
    if x is not None:
        elements = result.kraus.elements
        values["choi"] = reports.complex_parts(x)
        values["kraus"] = reports.complex_parts(np.reshape(elements, (-1, inst.n, inst.k)))
        values["kraus_count"] = len(elements)
        values["residuals"] = np.array(result.check.residuals, dtype=float)
        values["max_residual"] = float(result.check.max_residual)
        values["min_eigenvalue"] = float(result.check.min_eigenvalue)
    keys = _SOLVED_KEYS if result.inconsistency is None else _INCONSISTENT_KEYS
    return {key: values[key] for key in keys if key in values}, _EXIT_CODES[feasibility.status]


def run_solve(inst: ProblemInstance, options: SolveOptions) -> tuple[dict, int]:
    """Solve an instance: returns the report dictionary, whose float blocks are
    ndarrays (see ``_render``), and the exit code."""
    return _render(pipeline.run(inst, options, strict=False))


def run_certify(inst: ProblemInstance, options: SolveOptions) -> tuple[dict, int]:
    """Solve asking for a strictly positive solution (see ``pipeline.run``):
    returns the report dictionary, whose float blocks are ndarrays (see
    ``_render``), and the exit code."""
    return _render(pipeline.run(inst, options, strict=True))


def run_apply(report_path: str | Path, matrix_path: str | Path) -> np.ndarray:
    """Evaluate the solved map (from a report's Choi matrix) on an input matrix."""
    doc, n, k = reports.read_report(report_path)
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
    doc, n, k = reports.read_report(report_path)
    inst = reports.parse_instance(instance_path)
    status = doc.get("status")
    tp = bool(doc["problem"].get("trace_preserving", inst.trace_preserving))

    if (n, k) != (inst.n, inst.k):
        yield ("dimensions", False, f"report is for {n} x {k}, instance is {inst.n} x {inst.k}")
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
        elements = reports.report_kraus(doc, inst.n, inst.k)
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
            cert = certify.Certificate(np.asarray(cert_doc.get("coefficients"), dtype=float), kind)
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
            doc, n, k = reports.read_report(args.report)
            for i, v in enumerate(reports.report_kraus(doc, n, k)):
                _sys.stdout.write(f"# element {i + 1}\n")
                _print_matrix(v)
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
