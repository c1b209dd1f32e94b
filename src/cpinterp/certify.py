"""Infeasibility certificates for trace-constrained PSD systems.

A real coefficient vector x with ``sum x_i C(i) >= 0`` and ``sum x_i b_i < 0``
proves that no ``X >= 0`` can satisfy ``tr(C(i) X) = b_i`` (pair X against the
nonnegative combination).  With ``sum x_i b_i <= 0`` and x nonzero it still
proves that no strictly positive solution exists, provided the C(i) are
linearly independent.

A system that pruning accepted gets its certificate from three steps, tried
in order.  First the divergence ray: when the exponential potential is
unbounded below, its iterates run off along a direction d with
``sum d C <= 0`` and ``d . b > 0``, so the normalized ``-x`` at solver exit is
a PSD-excluding certificate: an exact one when the solver stopped on its
recession test, otherwise one up to an ``O(1/|x|)`` lag.  Second, a short hinge
descent repairs a ray that misses the cone by that lag.  Only when neither
yields a PSD-excluding certificate does a heuristic penalized-descent search
over the unit sphere run; its failure to find one proves nothing.  Whatever
the source, a certificate is returned only after the exact eigenvalue check
in ``validate``, which is independent of how the certificate was found.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg
from .constraints import ConstraintSystem
from .solvers import ExpSolveConfig, SolveOutcome, SolveStatus, solve_exp

DEFAULT_VALIDATION_TOL = 1e-9


class CertificateKind(enum.Enum):
    EXCLUDES_PSD = "excludes-psd"
    EXCLUDES_PD = "excludes-pd"


class CertificateSource(enum.Enum):
    LINEAR_SYSTEM = "linear-system"
    DIVERGENCE_RAY = "divergence-ray"
    SEARCH = "search"


class FeasibilityStatus(enum.Enum):
    FEASIBLE = "feasible"
    CERTIFIED_INFEASIBLE = "certified-infeasible"
    CERTIFIED_NO_STRICT = "certified-no-strict"
    UNDETERMINED = "undetermined"


@dataclass
class Certificate:
    """A normalized coefficient vector witnessing infeasibility.

    ``objective`` is ``sum x_i b_i`` and ``min_eigenvalue`` that of
    ``sum x_i C(i)``; both are recomputed during validation.  ``source``
    names the mechanism that found the certificate (None when it was read
    back from a report); it plays no part in validation.
    """

    coefficients: np.ndarray
    kind: CertificateKind
    objective: float
    min_eigenvalue: float
    source: CertificateSource | None = None

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        norm = float(np.linalg.norm(self.coefficients))
        if norm == 0.0:
            raise ValueError("certificate coefficients must be nonzero")
        self.coefficients = self.coefficients / norm


@dataclass
class SpanCheck:
    """Heuristic test whether span{C(i)} contains a positive definite matrix.

    ``False`` may be a false negative (the maximization is heuristic); the
    achieved minimum eigenvalue over the unit sphere is reported so callers
    can judge the margin.
    """

    contains_positive_definite: bool
    best_min_eigenvalue: float
    witness: np.ndarray | None


@dataclass
class FeasibilityReport:
    status: FeasibilityStatus
    solve_outcome: SolveOutcome
    certificate: Certificate | None
    span_check: SpanCheck


def validate(
    cert: Certificate, sys: ConstraintSystem, tol: float = DEFAULT_VALIDATION_TOL
) -> bool:
    """Exact check of a certificate against a system.

    EXCLUDES_PSD requires ``min eig(sum x C) >= -tol`` and
    ``sum x b < -tol``; EXCLUDES_PD relaxes the objective to ``<= tol``.
    The verdict is invariant under positive rescaling of x (the coefficients
    are normalized on construction).
    """
    x = cert.coefficients
    if len(x) != sys.q:
        raise ValueError(f"certificate length {len(x)} does not match q = {sys.q}")
    combo = sys.aggregate(x)
    mineig = linalg.min_eigenvalue(combo) if linalg.frobenius(combo) > 0 else 0.0
    objective = float(x @ sys.targets)
    if mineig < -tol:
        return False
    if cert.kind is CertificateKind.EXCLUDES_PSD:
        return objective < -tol
    return objective <= tol


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


def _repair_into_cone(sys: ConstraintSystem, x: np.ndarray, tol: float) -> np.ndarray:
    """Push a near-certificate onto the PSD cone by minimizing the hinge alone."""
    lr = 0.1
    mineig, u = _min_eig_pair(sys.aggregate(x))
    for _ in range(200):
        if mineig >= -tol / 2:
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
    sys: ConstraintSystem, x: np.ndarray, tol: float, source: CertificateSource
) -> Certificate | None:
    """Build the strongest certificate the vector supports, if any."""
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return None
    x = x / norm
    combo = sys.aggregate(x)
    mineig = linalg.min_eigenvalue(combo) if linalg.frobenius(combo) > 0 else 0.0
    objective = float(x @ sys.targets)
    if mineig < -tol:
        return None
    if objective < -tol:
        kind = CertificateKind.EXCLUDES_PSD
    elif objective <= tol:
        kind = CertificateKind.EXCLUDES_PD
    else:
        return None
    return Certificate(x, kind, objective, mineig, source)


def ray_certificate(
    sys: ConstraintSystem,
    coefficients: np.ndarray | None,
    tol: float = DEFAULT_VALIDATION_TOL,
) -> Certificate | None:
    """PSD-excluding certificate read off the exp solver's final iterate.

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
    cert = _classify(sys, ray, tol, source)
    if cert is None or cert.kind is not CertificateKind.EXCLUDES_PSD:
        cert = _classify(sys, _repair_into_cone(sys, ray, tol), tol, source)
    if (
        cert is not None
        and cert.kind is CertificateKind.EXCLUDES_PSD
        and validate(cert, sys, tol)
    ):
        return cert
    return None


def search_certificate(
    sys: ConstraintSystem,
    seed: int = 0,
    budget: int = 8,
    tol: float = DEFAULT_VALIDATION_TOL,
) -> Certificate | None:
    """Heuristic search for an infeasibility certificate.

    Starts from the coordinate directions, the target direction and
    ``budget`` seeded random points, runs penalized descent with an
    increasing cone penalty, repairs the best iterates onto the cone and
    returns the strongest validated certificate (PSD-excluding preferred,
    then lowest objective).  Returning None proves nothing.
    """
    rng = np.random.default_rng(seed)
    starts = []
    eye = np.eye(sys.q)
    for i in range(sys.q):
        starts.append(eye[i])
        starts.append(-eye[i])
    bn = float(np.linalg.norm(sys.targets))
    if bn > 0:
        starts.append(-sys.targets / bn)
    starts.extend(rng.standard_normal(sys.q) for _ in range(budget))
    rho0 = 10.0 * (1.0 + bn)
    source = CertificateSource.SEARCH

    found = []
    for x0 in starts:
        found.append(_classify(sys, x0, tol, source))
        x = _penalized_descent(sys, x0, rho0)
        for cand in (x, _repair_into_cone(sys, x, tol)):
            found.append(_classify(sys, cand, tol, source))

    best: Certificate | None = None
    for cert in found:
        if cert is None or not validate(cert, sys, tol):  # defense in depth
            continue
        if best is None:
            best = cert
            continue
        rank = (cert.kind is CertificateKind.EXCLUDES_PSD, -cert.objective)
        best_rank = (best.kind is CertificateKind.EXCLUDES_PSD, -best.objective)
        if rank > best_rank:
            best = cert
    return best


def find_certificate(
    sys: ConstraintSystem,
    coefficients: np.ndarray | None,
    seed: int = 0,
    budget: int = 8,
    tol: float = DEFAULT_VALIDATION_TOL,
) -> Certificate | None:
    """The divergence-ray certificate if there is one, else the search's best.

    No search result ranks above a validated PSD-excluding certificate, so
    running the search only when the ray gives none loses no verdict.
    """
    cert = ray_certificate(sys, coefficients, tol)
    if cert is None:
        cert = search_certificate(sys, seed=seed, budget=budget, tol=tol)
    return cert


def span_contains_positive(
    sys: ConstraintSystem,
    tol: float = DEFAULT_VALIDATION_TOL,
    seed: int = 0,
    restarts: int = 3,
    steps: int = 200,
) -> SpanCheck:
    """Heuristically maximize ``min eig(sum x C)`` over the unit sphere.

    First tries to hit the identity exactly by least squares; otherwise runs
    supergradient ascent from seeded starts.
    """
    vecs = sys.flat
    target = np.eye(sys.p, dtype=complex).ravel()
    design = np.concatenate([vecs.real, vecs.imag], axis=1).T
    rhs = np.concatenate([target.real, target.imag])
    coeffs, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    if float(np.linalg.norm(design @ coeffs - rhs)) <= 1e-9 * np.sqrt(sys.p):
        x = coeffs / np.linalg.norm(coeffs)
        return SpanCheck(True, linalg.min_eigenvalue(sys.aggregate(x)), x)

    rng = np.random.default_rng(seed)
    best_eig = -np.inf
    best_x = None
    start_list = [coeffs] if np.linalg.norm(coeffs) > 0 else []
    start_list.extend(rng.standard_normal(sys.q) for _ in range(restarts))
    for x0 in start_list:
        x = x0 / np.linalg.norm(x0)
        lr = 0.2
        mineig, u = _min_eig_pair(sys.aggregate(x))
        for _ in range(steps):
            g = _eig_gradient(sys, u)
            g -= (g @ x) * x
            if float(np.linalg.norm(g)) < 1e-14:
                break
            trial = x + lr * g
            trial /= np.linalg.norm(trial)
            mineig_t, u_t = _min_eig_pair(sys.aggregate(trial))
            if mineig_t > mineig:
                x, mineig, u = trial, mineig_t, u_t
                lr = min(lr * 1.2, 1.0)
            else:
                lr *= 0.5
                if lr < 1e-12:
                    break
        if mineig > best_eig:
            best_eig, best_x = mineig, x
    return SpanCheck(best_eig > tol, float(best_eig), best_x)


def feasibility_report(
    sys: ConstraintSystem,
    exp_config: ExpSolveConfig | None = None,
    seed: int = 0,
    budget: int = 8,
    tol: float = DEFAULT_VALIDATION_TOL,
) -> FeasibilityReport:
    """Solve, and on failure look for a certificate (see ``find_certificate``).

    Outcomes: ``feasible`` with a positive solution; ``certified-infeasible``
    (no PSD solution at all); ``certified-no-strict`` (no strictly positive
    solution; the solve outcome may still carry a near-boundary PSD witness);
    or ``undetermined``.  A feasible verdict and a validated PSD-excluding
    certificate cannot coexist.

    When the potential has an unattained infimum the minimizing sequence can
    satisfy the residual tolerance with a nearly singular witness; such
    marginal solves are corroborated by ``find_certificate``, and a
    validated PD-excluding certificate downgrades them to
    ``certified-no-strict``.
    """
    outcome = solve_exp(sys, exp_config)
    span = span_contains_positive(sys, tol=tol, seed=seed)
    if outcome.status is SolveStatus.FEASIBLE:
        boundary = 1e3 * tol * (
            1.0 + float(np.linalg.norm(outcome.solution))
        )
        if outcome.min_eigenvalue > boundary:
            return FeasibilityReport(FeasibilityStatus.FEASIBLE, outcome, None, span)
        cert = find_certificate(sys, outcome.coefficients, seed=seed, budget=budget, tol=tol)
        if cert is None:
            return FeasibilityReport(FeasibilityStatus.FEASIBLE, outcome, None, span)
        status = (
            FeasibilityStatus.CERTIFIED_INFEASIBLE
            if cert.kind is CertificateKind.EXCLUDES_PSD
            else FeasibilityStatus.CERTIFIED_NO_STRICT
        )
        return FeasibilityReport(status, outcome, cert, span)
    cert = find_certificate(sys, outcome.coefficients, seed=seed, budget=budget, tol=tol)
    if cert is None:
        status = FeasibilityStatus.UNDETERMINED
    elif cert.kind is CertificateKind.EXCLUDES_PSD:
        status = FeasibilityStatus.CERTIFIED_INFEASIBLE
    else:
        status = FeasibilityStatus.CERTIFIED_NO_STRICT
    return FeasibilityReport(status, outcome, cert, span)
