"""Infeasibility certificates for trace-constrained PSD systems.

A real coefficient vector x with ``sum x_i C(i) >= 0`` and ``sum x_i b_i < 0``
proves that no ``X >= 0`` can satisfy ``tr(C(i) X) = b_i`` (pair X against the
nonnegative combination).  With ``sum x_i b_i <= 0`` and x nonzero it still
proves that no strictly positive solution exists, provided the C(i) are
linearly independent.

Under the strict verdict a system that pruning accepted is first asked whether
the span of its C(i) holds a positive definite matrix
(``span_contains_positive``).  A witness ``S = sum y C > 0`` with
``b . y < 0`` excludes every PSD solution (``tr(S X) >= 0``), and that is the
certificate, with no solve.  Otherwise the solve runs, and a certificate comes
from three steps, tried in order.  First the divergence ray: when the
exponential potential is unbounded below, its iterates run off along a
direction d with ``sum d C <= 0`` and ``d . b > 0``, so the normalized ``-x``
at solver exit is a PSD-excluding certificate: an exact one when the solver
stopped on its recession test (at an iterate or at a line-search trial point,
whichever passed it first), otherwise one up to an ``O(1/|x|)`` lag.  Second,
a short hinge descent repairs a ray that misses the cone by that lag.  Only
when neither yields a PSD-excluding certificate does a search from fixed
starts run: each row's ``+e_i`` and ``-e_i`` and the target direction
``-b/|b|``, each classified as it is and repaired onto the cone, and then
again after a penalized descent from it; its failure to find one proves
nothing.  No step uses randomness.  Whatever the source, a certificate is
returned only after the exact eigenvalue check in ``validate``, which is
independent of how the certificate was found.
``span_contains_positive`` decides whether the span of the C(i) holds a
positive definite matrix, from the identity's fit by the rows, else the exp
solve; ``decide`` puts the steps in their order, and
``linear_system_verdict`` answers a contradiction that the build or prune
found.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .constraints import ConstraintSystem
from .solvers import ExpSolveConfig, SolveOutcome, SolveStatus, solve_exp
from .tolerances import DEPENDENCE_RTOL, MARGINAL_FACTOR, REPAIR_FRACTION, VALIDATION_TOL


class CertificateKind(enum.Enum):
    EXCLUDES_PSD = "excludes-psd"
    EXCLUDES_PD = "excludes-pd"


class CertificateSource(enum.Enum):
    LINEAR_SYSTEM = "linear-system"
    DIVERGENCE_RAY = "divergence-ray"
    SEARCH = "search"


class SpanSource(enum.Enum):
    """Where a span check's witness came from; a "yes" is exact from any.

    ``linear-system``: I is in the span, and the witness is its fit by the
    rows (``span_contains_positive``).  ``solution``: the solve
    found ``X > 0``, ``tr X = 1``, every ``tr(C(i) X)`` within its gradient
    tolerance of 0, so no unit combination's least eigenvalue is above about
    that tolerance.  ``divergence-ray``: the solve diverged or hit its cap.
    """

    LINEAR_SYSTEM = "linear-system"
    SOLUTION = "solution"
    DIVERGENCE_RAY = "divergence-ray"


class FeasibilityStatus(enum.Enum):
    FEASIBLE = "feasible"
    CERTIFIED_INFEASIBLE = "certified-infeasible"
    CERTIFIED_NO_STRICT = "certified-no-strict"
    UNDETERMINED = "undetermined"


# the status each certificate kind earns
CERTIFIED_STATUS = {
    CertificateKind.EXCLUDES_PSD: FeasibilityStatus.CERTIFIED_INFEASIBLE,
    CertificateKind.EXCLUDES_PD: FeasibilityStatus.CERTIFIED_NO_STRICT,
}


@dataclass
class Certificate:
    """A normalized coefficient vector witnessing infeasibility.

    ``source`` names the mechanism that found the certificate (None when it
    was read back from a report); it plays no part in validation.
    """

    coefficients: np.ndarray
    kind: CertificateKind
    source: CertificateSource | None = None

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        norm = float(np.linalg.norm(self.coefficients))
        if norm == 0.0:
            raise ValueError("certificate coefficients must be nonzero")
        self.coefficients = self.coefficients / norm


@dataclass
class SpanCheck:
    """Whether span{C(i)} contains a positive definite matrix: whether the
    least eigenvalue ``best_min_eigenvalue`` of ``sum y C`` for the unit
    ``witness`` y (None without rows) is above the tolerance.
    """

    contains_positive_definite: bool
    best_min_eigenvalue: float
    witness: np.ndarray | None
    source: SpanSource


@dataclass
class FeasibilityReport:
    """A verdict with what it rests on; no solve or span check ran where None."""

    status: FeasibilityStatus
    solve_outcome: SolveOutcome | None
    certificate: Certificate | None
    span_check: SpanCheck | None


def _trace_scale(sys: ConstraintSystem, tol: float) -> float:
    """An upper bound on ``tr X`` over the PSD solutions, else the nominal p.

    When ``P = sum z C`` for the least-squares fit z of the identity has
    least eigenvalue ``mu > tol``, every solution has
    ``mu tr X <= tr(P X) = z . b`` (exactly ``tr X = z . b`` when the data
    hold trace preservation).  Otherwise the data give no bound, and the
    size of ``X = I`` stands in for one.  The fit is made in the p^2
    Hermitian coordinates (``ConstraintSystem.coordinates``), an isometry
    of Herm(p), so it is the fit over the real and imaginary parts of all
    p^2 entries, with half the equations.
    """
    design = sys.coordinates().T
    rhs = linalg.hermitian_coordinates(np.eye(sys.p)[None])[0]
    z = np.linalg.lstsq(design, rhs, rcond=None)[0]
    combo = sys.aggregate(z)
    mu = linalg.min_eigenvalue(combo) if linalg.frobenius(combo) > 0 else 0.0
    if mu > tol:
        return max(0.0, float(z @ sys.targets)) / mu
    return float(sys.p)


def _strongest_kind(sys: ConstraintSystem, x: np.ndarray, tol: float) -> CertificateKind | None:
    """The strongest certificate kind the unit vector x supports, if any.

    With ``S = sum x C``, no kind when ``min eig S < -tol``.  Every PSD solution X has
    ``b . x = tr(S X) >= min(0, min eig S) tr X``, so x excludes every PSD
    solution only when ``b . x`` falls below ``-tol`` by more than that
    eigenvalue slack can explain, with ``tr X`` bounded by ``_trace_scale``.
    It excludes every PD solution when ``b . x <= tol`` and ``S != 0``, which
    within the tolerance is ``max eig S > tol``: a PD X has ``tr(S X) > 0``
    only for a nonzero ``S >= 0``.
    """
    combo = sys.aggregate(x)
    w = np.linalg.eigvalsh(linalg.hermitian_part(combo)) if linalg.frobenius(combo) > 0 else [0.0]
    mineig, maxeig = float(w[0]), float(w[-1])
    objective = float(x @ sys.targets)
    if mineig < -tol:
        return None
    slack = -mineig * _trace_scale(sys, tol) if mineig < 0 else 0.0
    if objective < -tol - slack:
        return CertificateKind.EXCLUDES_PSD
    if objective <= tol and maxeig > tol:
        return CertificateKind.EXCLUDES_PD
    return None


def validate(
    cert: Certificate, sys: ConstraintSystem, tol: float = VALIDATION_TOL
) -> bool:
    """Exact check of a certificate against a system.

    Both kinds require ``min eig(sum x C) >= -tol``.  EXCLUDES_PSD requires
    ``sum x b < -tol`` by a margin that the eigenvalue slack cannot explain
    (see ``_strongest_kind``); EXCLUDES_PD relaxes the objective to
    ``<= tol`` and requires ``max eig(sum x C) > tol``.  The verdict is
    invariant under positive rescaling of x (the coefficients are normalized
    on construction).
    """
    x = cert.coefficients
    if len(x) != sys.q:
        raise ValueError(f"certificate length {len(x)} does not match q = {sys.q}")
    kind = _strongest_kind(sys, x, tol)
    if kind is CertificateKind.EXCLUDES_PSD:
        return True
    return kind is not None and cert.kind is CertificateKind.EXCLUDES_PD


def _min_eig_pair(combo: np.ndarray) -> tuple[float, np.ndarray]:
    w, u = np.linalg.eigh(linalg.hermitian_part(combo))
    return float(w[0]), u[:, 0]


def _eig_gradient(sys: ConstraintSystem, u: np.ndarray) -> np.ndarray:
    """``u^* C(i) u`` for every row: the gradient of an eigenvalue with vector u."""
    return sys.traces(np.outer(u, u.conj()))


def _penalized_descent(
    sys: ConstraintSystem, x0: np.ndarray, rho0: float, rounds: int = 3, steps: int = 80
) -> np.ndarray:
    """Minimize ``b . x + rho * max(0, -min eig(sum x C))**2`` on the unit sphere."""
    b = sys.targets
    x = x0 / np.linalg.norm(x0)
    rho = rho0
    for _ in range(rounds):
        lr = 0.2
        mineig, u = _min_eig_pair(sys.aggregate(x))
        hinge = max(0.0, -mineig)
        f = float(b @ x) + rho * hinge**2
        for _ in range(steps):
            if hinge > 0.0:
                eig_grad = _eig_gradient(sys, u)
                g = b - 2.0 * rho * hinge * eig_grad
            else:
                g = b.copy()
            g -= (g @ x) * x  # tangent to the sphere
            gn = float(np.linalg.norm(g))
            if gn < 1e-14:
                break
            trial = x - lr * g
            trial /= np.linalg.norm(trial)
            mineig_t, u_t = _min_eig_pair(sys.aggregate(trial))
            hinge_t = max(0.0, -mineig_t)
            f_t = float(b @ trial) + rho * hinge_t**2
            if f_t < f:
                x, f, mineig, u, hinge = trial, f_t, mineig_t, u_t, hinge_t
                lr = min(lr * 1.2, 1.0)
            else:
                lr *= 0.5
                if lr < 1e-12:
                    break
        rho *= 100.0
    return x


def _repair_into_cone(sys: ConstraintSystem, x: np.ndarray) -> np.ndarray:
    """Push a near-certificate onto the PSD cone by minimizing the hinge alone,
    until its least eigenvalue is at least ``-REPAIR_FRACTION * VALIDATION_TOL``."""
    lr = 0.1
    mineig, u = _min_eig_pair(sys.aggregate(x))
    for _ in range(200):
        if mineig >= -REPAIR_FRACTION * VALIDATION_TOL:
            break
        eig_grad = _eig_gradient(sys, u)
        g = -eig_grad
        g -= (g @ x) * x
        gn = float(np.linalg.norm(g))
        if gn < 1e-14:
            break
        trial = x - lr * g
        trial /= np.linalg.norm(trial)
        mineig_t, u_t = _min_eig_pair(sys.aggregate(trial))
        if mineig_t > mineig:
            x, mineig, u = trial, mineig_t, u_t
            lr = min(lr * 1.2, 1.0)
        else:
            lr *= 0.5
            if lr < 1e-12:
                break
    return x


def _classify(
    sys: ConstraintSystem, x: np.ndarray, source: CertificateSource
) -> Certificate | None:
    """Build the strongest certificate the vector supports, if any."""
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return None
    x = x / norm
    kind = _strongest_kind(sys, x, VALIDATION_TOL)
    return None if kind is None else Certificate(x, kind, source)


def ray_certificate(sys: ConstraintSystem, coefficients: np.ndarray | None) -> Certificate | None:
    """PSD-excluding certificate read off a solver's final point (exp or barrier).

    Classifies the normalized ``-coefficients``; when that misses the cone
    (typically by the ``O(1/|x|)`` lag of a diverging iterate) it repairs the
    vector onto the cone and classifies again.  Returns a certificate only
    when it excludes every PSD solution and passes ``validate``; None proves
    nothing.
    """
    if coefficients is None or len(coefficients) != sys.q:
        return None
    norm = float(np.linalg.norm(coefficients))
    if not np.isfinite(norm) or norm == 0.0:
        return None
    ray = -np.asarray(coefficients, dtype=float) / norm
    source = CertificateSource.DIVERGENCE_RAY
    cert = _classify(sys, ray, source)
    if cert is None or cert.kind is not CertificateKind.EXCLUDES_PSD:
        cert = _classify(sys, _repair_into_cone(sys, ray), source)
    if cert is not None and cert.kind is CertificateKind.EXCLUDES_PSD and validate(cert, sys):
        return cert
    return None


def search_certificate(sys: ConstraintSystem) -> Certificate | None:
    """Search for a certificate from fixed starts: ``+e_i`` and ``-e_i`` for
    every row, and ``-b/|b|`` when ``b != 0``.

    Each start is classified as it is and after its repair onto the cone;
    a penalized descent with an increasing cone penalty then runs from it,
    and its end point is classified likewise.  The strongest validated
    certificate is returned (PSD-excluding preferred, then lowest
    objective).  Returning None proves nothing.
    """
    starts = [sign * e for e in np.eye(sys.q) for sign in (1.0, -1.0)]
    bn = float(np.linalg.norm(sys.targets))
    if bn > 0:
        starts.append(-sys.targets / bn)
    rho0 = 10.0 * (1.0 + bn)
    source = CertificateSource.SEARCH

    def rank(cert: Certificate) -> tuple[bool, float]:
        return cert.kind is CertificateKind.EXCLUDES_PSD, -float(cert.coefficients @ sys.targets)

    best: Certificate | None = None
    for x0 in starts:
        for x in (x0, _penalized_descent(sys, x0, rho0)):
            for cand in (x, _repair_into_cone(sys, x)):
                cert = _classify(sys, cand, source)
                if cert is None or not validate(cert, sys):  # defense in depth
                    continue
                if best is None or rank(cert) > rank(best):
                    best = cert
    return best


def verdict(
    sys: ConstraintSystem, outcome: SolveOutcome, strict: bool
) -> tuple[FeasibilityStatus, Certificate | None]:
    """The status a solve outcome on ``sys`` earns, and its certificate.

    A feasible outcome stands unless ``strict`` asks for a strictly positive
    solution and the witness is marginal (least eigenvalue within
    ``MARGINAL_FACTOR * VALIDATION_TOL`` of zero relative to its norm, as
    when the potential's infimum is not attained).  Otherwise the
    certificate is the divergence ray's, else the search's best; no search
    result ranks above a validated PSD-excluding one, so skipping the search
    after the ray loses no verdict.  PSD-excluding gives ``certified-infeasible``, PD-excluding
    ``certified-no-strict``; with none a feasible outcome stands and any
    other is ``undetermined``.

    ``outcome`` may come from the support-reduced copy of ``sys``: it keeps
    the rows in order and each of its C equals P C P for the support
    projector P, so a coefficient vector certifies on one system exactly
    when it certifies on the other.
    """
    if outcome.status is SolveStatus.FEASIBLE:
        boundary = MARGINAL_FACTOR * VALIDATION_TOL * (
            1.0 + float(np.linalg.norm(outcome.solution))
        )
        if not strict or outcome.min_eigenvalue > boundary:
            return FeasibilityStatus.FEASIBLE, None
        unproven = FeasibilityStatus.FEASIBLE
    else:
        unproven = FeasibilityStatus.UNDETERMINED
    cert = ray_certificate(sys, outcome.coefficients)
    if cert is None:
        cert = search_certificate(sys)
    if cert is None:
        return unproven, None
    return CERTIFIED_STATUS[cert.kind], cert


def span_contains_positive(sys: ConstraintSystem, cfg: ExpSolveConfig | None = None) -> SpanCheck:
    """Decide whether span{C(i)} holds a positive definite matrix.

    Exactly one holds (theorem of alternatives): some ``sum y C > 0``, or
    some ``X >= 0`` solving the rows of ``sys`` at target 0 and ``tr X = 1``.
    When the squared residual of the unit identity's fit by the rows
    (``ConstraintSystem._unit_fit``) is at most ``DEPENDENCE_RTOL``, prune's
    test for the row ``(I, 1)``, I is in the span and y is the fit.  Else
    ``with_unit_trace`` needs no prune, and y is ``-x`` for the final point x
    of its exp solve under ``cfg``.  The answer is ``min eig(sum y C) >
    VALIDATION_TOL``, reported for the unit y and judged for the fit at its
    own scale, ``I / sqrt p`` up to the residual however large y is.
    ``sys`` must be pruned (a ``ValueError`` otherwise).
    """
    y, residual = sys._unit_fit
    if residual**2 <= DEPENDENCE_RTOL:
        source = SpanSource.LINEAR_SYSTEM
    else:
        outcome = solve_exp(sys.with_unit_trace(), cfg)
        y = -outcome.coefficients[: sys.q]
        solved = outcome.status is SolveStatus.FEASIBLE
        source = SpanSource.SOLUTION if solved else SpanSource.DIVERGENCE_RAY
    norm = float(np.linalg.norm(y))
    if norm == 0.0 or not np.isfinite(norm):
        return SpanCheck(False, 0.0, None, source)
    y = y / norm
    mineig = linalg.min_eigenvalue(sys.aggregate(y))
    scale = norm if source is SpanSource.LINEAR_SYSTEM else 1.0
    return SpanCheck(mineig * scale > VALIDATION_TOL, mineig, y, source)


def _span_certificate(sys: ConstraintSystem, span: SpanCheck) -> Certificate | None:
    """The PSD-excluding certificate that a span check's "yes" gives when its
    witness y pairs negatively with the targets, else None.

    For ``S = sum y C > 0`` every PSD solution X has ``b . y = tr(S X) >= 0``,
    so ``b . y < 0`` leaves none.  The certificate is classified and
    validated like every other; its source is the span witness's
    (``linear-system``, else ``divergence-ray``: y is ``-x`` read off the
    final point of the span check's exp solve).
    """
    if not span.contains_positive_definite:
        return None
    linear = span.source is SpanSource.LINEAR_SYSTEM
    source = CertificateSource.LINEAR_SYSTEM if linear else CertificateSource.DIVERGENCE_RAY
    cert = _classify(sys, span.witness, source)
    if cert is not None and cert.kind is CertificateKind.EXCLUDES_PSD and validate(cert, sys):
        return cert
    return None


def linear_system_verdict(system: ConstraintSystem, coefficients: np.ndarray) -> FeasibilityReport:
    """The verdict on a contradiction that the build or prune found in
    ``system``, with the coefficients of its certificate.  Pruning decides
    dependence with a tolerance, so on ill-conditioned data that certificate
    can fail the exact check; then nothing is proven."""
    cert = Certificate(coefficients, CertificateKind.EXCLUDES_PSD, CertificateSource.LINEAR_SYSTEM)
    if validate(cert, system):
        return FeasibilityReport(FeasibilityStatus.CERTIFIED_INFEASIBLE, None, cert, None)
    return FeasibilityReport(FeasibilityStatus.UNDETERMINED, None, None, None)


def decide(pruned: ConstraintSystem, reduced: ConstraintSystem, solve: Callable,
           cfg: ExpSolveConfig | None, strict: bool) -> FeasibilityReport:
    """Check the span of ``pruned`` when ``strict``; when its witness is a
    PSD-excluding certificate (``_span_certificate``) that is the verdict, and
    no solve runs.  Otherwise solve ``reduced`` (``pruned`` or its
    support-reduced copy) and take the ``verdict``."""
    span = span_contains_positive(pruned, cfg) if strict else None
    cert = None if span is None else _span_certificate(pruned, span)
    if cert is not None:
        return FeasibilityReport(FeasibilityStatus.CERTIFIED_INFEASIBLE, None, cert, span)
    outcome = solve(reduced, cfg)
    status, cert = verdict(pruned, outcome, strict)
    return FeasibilityReport(status, outcome, cert, span)


def feasibility_report(
    sys: ConstraintSystem, exp_config: ExpSolveConfig | None = None
) -> FeasibilityReport:
    """Check the span, then solve with the exp potential and take the strict
    ``verdict`` (``decide``); a span witness that certifies infeasibility
    answers alone, with ``solve_outcome`` None.

    Outcomes: ``feasible`` with a positive solution; ``certified-infeasible``
    (no PSD solution at all); ``certified-no-strict`` (no strictly positive
    solution; the solve outcome may still carry a near-boundary PSD witness);
    or ``undetermined``.  A feasible verdict and a validated PSD-excluding
    certificate cannot coexist.  ``sys`` must be pruned, for the span check.
    """
    return decide(sys, sys, solve_exp, exp_config, True)
