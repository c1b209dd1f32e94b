"""Feasibility solvers for trace-constrained PSD systems.

Two routes to a feasible ``X >= 0`` with ``tr(C(i) X) = b_i``:

* ``solve_exp`` minimizes the strictly convex exponential potential

      V(x) = tr(exp(sum_i x_i C(i) + s I)) - sum_i x_i b_i

  by Polak-Ribiere+ conjugate gradients with a strong-Wolfe line search and
  a damped-Newton polish.  The gradient components of V are exactly the
  constraint residuals of ``X = exp(sum x C + s I)``, so a critical point is
  an exact strictly positive solution; V is coercive precisely when such a
  solution exists, and unbounded growth of the iterates witnesses that none
  does.  The solver stops as soon as an iterate x proves it: with
  ``sum x C <= 0`` and ``b . x > 0`` the potential falls without bound along
  the ray through x, and ``-x`` is itself an infeasibility certificate.  The
  scalar offset ``s`` shifts the exponent by a multiple of the identity; it
  changes which feasible point is found but not feasibility.

* ``analytic_center`` minimizes the log-det barrier ``-ln det a(x)`` with
  ``a(x) = a0 + sum x_i C(i)`` over the slice ``sum b_i x_i = level`` by an
  infeasible-start Newton method; the stationarity relation
  ``tr(C(i) a(x*)^{-1}) = mu b_i`` turns the center into the solution
  ``X = a(x*)^{-1} / mu``.

``solve_diagonal`` is the fast path for systems of diagonal matrices, where
the exponential acts entrywise.  ``project_affine`` re-projects an
approximate solution exactly onto the constraint subspace.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .constraints import ConstraintSystem


class SolveStatus(enum.Enum):
    FEASIBLE = "feasible"
    NO_STRICTLY_POSITIVE_SOLUTION = "no-strictly-positive-solution"
    ITERATION_LIMIT = "iteration-limit"


@dataclass
class ExpSolveConfig:
    """Settings for the exponential-potential conjugate-gradient solver."""

    gradient_tol: float = 1e-9
    max_iterations: int = 10000
    sufficient_decrease: float = 1e-4
    curvature: float = 0.4
    restart_period: int | None = None  # None: restart every q iterations
    divergence_threshold: float = 1e4
    exponent_offset: float = -1.0
    newton_polish: bool = True

    def __post_init__(self):
        if self.gradient_tol <= 0:
            raise ValueError("gradient_tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0 < self.sufficient_decrease < self.curvature < 1:
            raise ValueError("need 0 < sufficient_decrease < curvature < 1")
        if self.restart_period is not None and self.restart_period < 1:
            raise ValueError("restart_period must be at least 1")
        if self.divergence_threshold <= 0:
            raise ValueError("divergence_threshold must be positive")


@dataclass
class BarrierConfig:
    """Settings for the analytic-center barrier solver.

    ``a0`` must be strictly positive definite (``None`` means the identity),
    so that x = 0 is strictly inside the matrix inequality.
    """

    a0: np.ndarray | None = None
    level: float = 1.0
    newton_tol: float = 1e-10
    max_newton_steps: int = 100

    def __post_init__(self):
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if self.max_newton_steps < 1:
            raise ValueError("max_newton_steps must be at least 1")
        if not np.isfinite(self.level):
            raise ValueError("level must be finite")


@dataclass
class SolveOutcome:
    status: SolveStatus
    solution: np.ndarray | None
    coefficients: np.ndarray | None
    residuals: np.ndarray
    max_residual: float
    min_eigenvalue: float
    iterations: int
    message: str = ""


@dataclass
class VerifyReport:
    residuals: np.ndarray
    max_residual: float
    min_eigenvalue: float
    positive_semidefinite: bool


def verify(x: np.ndarray, sys: ConstraintSystem, tol: float = 1e-8) -> VerifyReport:
    """Residuals, minimum eigenvalue and a PSD verdict for a candidate solution."""
    x = linalg.as_complex_matrix(x, "candidate solution")
    if x.shape != (sys.p, sys.p):
        raise ValueError(f"candidate must be {sys.p} x {sys.p}, got {x.shape}")
    res = sys.residuals(x)
    mineig = linalg.min_eigenvalue(x)
    return VerifyReport(
        residuals=res,
        max_residual=float(np.max(np.abs(res))) if len(res) else 0.0,
        min_eigenvalue=mineig,
        positive_semidefinite=mineig >= -tol * (1.0 + linalg.frobenius(x)),
    )


def potential(sys: ConstraintSystem, x: np.ndarray, offset: float = 0.0) -> float:
    """Exponential potential ``tr(exp(sum x C + offset I)) - x . b``."""
    x = np.asarray(x, dtype=float)
    s = linalg.hermitian_part(sys.aggregate(x))
    if offset:
        s = s + offset * np.eye(sys.p)
    return float(np.trace(linalg.expm_herm(s)).real - x @ sys.targets)


def gradient(sys: ConstraintSystem, x: np.ndarray, offset: float = 0.0) -> np.ndarray:
    """Gradient of the potential: ``tr(C(i) exp(sum x C + offset I)) - b_i``.

    These are exactly the constraint residuals of ``exp(sum x C + offset I)``.
    """
    x = np.asarray(x, dtype=float)
    s = linalg.hermitian_part(sys.aggregate(x))
    if offset:
        s = s + offset * np.eye(sys.p)
    return sys.residuals(linalg.expm_herm(s))


# ---------------------------------------------------------------------------
# shared minimization machinery


@dataclass
class _Objective:
    """Fused value/gradient/Hessian oracle for a smooth convex function.

    ``value_grad`` returns ``(f, g)`` with ``f = inf`` (and ``g = None``) on
    exponential overflow, which the line searches treat as a step that went
    too far.  ``recedes(x)`` is True when the function is provably unbounded
    below along the ray through x.
    """

    value_grad: Callable[[np.ndarray], tuple[float, np.ndarray | None]]
    hessian: Callable[[np.ndarray], np.ndarray]
    recedes: Callable[[np.ndarray], bool]


def _exp_objective(sys: ConstraintSystem, offset: float) -> _Objective:
    eye = np.eye(sys.p)
    mats = sys.matrices
    targets = sys.targets

    def value_grad(x):
        s = linalg.hermitian_part(sys.aggregate(x)) + offset * eye
        w, u = np.linalg.eigh(s)
        if w[-1] > linalg.EXP_ARG_LIMIT:
            return np.inf, None
        ex = (u * np.exp(w)) @ u.conj().T
        f = float(np.sum(np.exp(w)) - x @ targets)
        return f, sys.residuals(ex)

    def hessian(x):
        s = linalg.hermitian_part(sys.aggregate(x)) + offset * eye
        w, u = np.linalg.eigh(s)
        ew = np.exp(w)
        # divided differences of exp over the spectrum
        dw = w[:, None] - w[None, :]
        near = np.abs(dw) < 1e-12
        dw_safe = np.where(near, 1.0, dw)
        phi = np.where(near, (ew[:, None] + ew[None, :]) / 2, (ew[:, None] - ew[None, :]) / dw_safe)
        # H_ij = sum_ab phi_ab (U^* C(i) U)_ab conj((U^* C(j) U)_ab)
        rot = (u.conj().T @ mats @ u).reshape(sys.q, -1)
        return ((rot * phi.ravel()) @ rot.conj().T).real

    def recedes(x):
        # sum x C <= 0 keeps tr exp bounded along t x while -t b.x falls
        if float(x @ targets) <= 0.0:
            return False
        return float(np.linalg.eigvalsh(linalg.hermitian_part(sys.aggregate(x)))[-1]) <= 0.0

    return _Objective(value_grad, hessian, recedes)


def _diag_objective(coeffs: np.ndarray, targets: np.ndarray, offset: float) -> _Objective:
    """Potential restricted to diagonal matrices: entrywise exponential."""

    def value_grad(x):
        s = coeffs.T @ x + offset
        if np.max(s) > linalg.EXP_ARG_LIMIT:
            return np.inf, None
        es = np.exp(s)
        return float(np.sum(es) - x @ targets), coeffs @ es - targets

    def hessian(x):
        es = np.exp(np.clip(coeffs.T @ x + offset, None, linalg.EXP_ARG_LIMIT))
        return (coeffs * es) @ coeffs.T

    def recedes(x):
        return float(x @ targets) > 0.0 and float(np.max(coeffs.T @ x)) <= 0.0

    return _Objective(value_grad, hessian, recedes)


def _wolfe_search(fg_line, f0, slope0, c1, c2, alpha0):
    """Strong-Wolfe line search (bracket and zoom).

    ``fg_line(alpha)`` returns ``(f, slope)`` with ``f = inf`` past the
    overflow horizon.  Returns an accepted ``alpha`` or None.
    """
    if slope0 >= 0:
        return None

    def zoom(lo, f_lo, s_lo, hi, f_hi):
        for _ in range(40):
            # quadratic interpolation, safeguarded by bisection
            denom = 2.0 * (f_hi - f_lo - s_lo * (hi - lo))
            alpha = lo + (hi - lo) / 2 if abs(denom) < 1e-300 else lo - s_lo * (hi - lo) ** 2 / denom
            span = abs(hi - lo)
            if not (min(lo, hi) + 0.05 * span <= alpha <= max(lo, hi) - 0.05 * span):
                alpha = lo + (hi - lo) / 2
            f, s = fg_line(alpha)
            if not np.isfinite(f) or f > f0 + c1 * alpha * slope0 or f >= f_lo:
                hi, f_hi = alpha, f
            else:
                if abs(s) <= -c2 * slope0:
                    return alpha
                if s * (hi - lo) >= 0:
                    hi, f_hi = lo, f_lo
                lo, f_lo, s_lo = alpha, f, s
            if span < 1e-16 * (1.0 + abs(lo)):
                return lo if f_lo < f0 else None
        return lo if f_lo < f0 else None

    alpha_prev, f_prev, s_prev = 0.0, f0, slope0
    alpha = alpha0
    for i in range(40):
        f, s = fg_line(alpha)
        if not np.isfinite(f):
            alpha = (alpha_prev + alpha) / 2  # overflow: pull back
            continue
        if f > f0 + c1 * alpha * slope0 or (i > 0 and f >= f_prev):
            return zoom(alpha_prev, f_prev, s_prev, alpha, f)
        if abs(s) <= -c2 * slope0:
            return alpha
        if s >= 0:
            return zoom(alpha, f, s, alpha_prev, f_prev)
        alpha_prev, f_prev, s_prev = alpha, f, s
        alpha *= 2.0
    return alpha_prev if f_prev < f0 else None


@dataclass
class _MinimizeResult:
    x: np.ndarray
    grad: np.ndarray
    iterations: int
    converged: bool
    diverged: bool
    message: str = ""


def _minimize_cg(obj: _Objective, x0: np.ndarray, cfg: ExpSolveConfig) -> _MinimizeResult:
    """Polak-Ribiere+ conjugate gradients with periodic restarts."""
    q = len(x0)
    restart_every = cfg.restart_period or max(q, 10)
    divergence_cap = cfg.divergence_threshold * (1.0 + float(np.linalg.norm(x0)))

    x = np.asarray(x0, dtype=float).copy()
    f, g = obj.value_grad(x)
    if not np.isfinite(f):
        raise ValueError("objective overflows at the starting point")
    since_restart = 0
    d = -g
    iterations = 0

    while iterations < cfg.max_iterations:
        gnorm = float(np.linalg.norm(g))
        if gnorm <= cfg.gradient_tol:
            return _MinimizeResult(x, g, iterations, True, False)
        if obj.recedes(x):
            return _MinimizeResult(
                x, g, iterations, False, True,
                "the objective is unbounded below along the ray through the iterate",
            )
        if float(np.linalg.norm(x)) > divergence_cap:
            return _MinimizeResult(
                x, g, iterations, False, True,
                "iterates diverged with the objective still decreasing",
            )
        slope = float(g @ d)
        if slope >= 0:  # not a descent direction: restart on steepest descent
            d = -g
            slope = -gnorm**2
            since_restart = 0

        state: dict = {}

        def fg_line(alpha, _state=state, _x=x, _d=d):
            fa, ga = obj.value_grad(_x + alpha * _d)
            if ga is not None:
                _state[alpha] = (fa, ga)
            return fa, np.inf if ga is None else float(ga @ _d)

        alpha0 = min(1.0, 2.0 * max(abs(f), 1.0) / max(gnorm**2, 1e-30)) if iterations == 0 else 1.0
        alpha = _wolfe_search(
            fg_line, f, slope, cfg.sufficient_decrease, cfg.curvature, alpha0
        )
        iterations += 1
        if alpha is None or alpha == 0.0:
            return _MinimizeResult(
                x, g, iterations, False, False, "line search stalled"
            )
        x = x + alpha * d
        f_new, g_new = state.get(alpha, (None, None))
        if g_new is None:
            f_new, g_new = obj.value_grad(x)
        since_restart += 1
        if since_restart >= restart_every:
            beta = 0.0
            since_restart = 0
        else:
            beta = max(0.0, float(g_new @ (g_new - g)) / max(float(g @ g), 1e-300))
        d = -g_new + beta * d
        f, g = f_new, g_new

    return _MinimizeResult(x, g, iterations, False, False, "iteration limit reached")


def _newton_polish(
    obj: _Objective, x: np.ndarray, g: np.ndarray, tol: float, max_steps: int = 50
) -> tuple[np.ndarray, np.ndarray, int]:
    """Damped Newton steps judged on the gradient norm (robust near the minimum)."""
    steps = 0
    gnorm = float(np.linalg.norm(g))
    while gnorm > tol and steps < max_steps:
        h = obj.hessian(x)
        ridge = 0.0
        for _ in range(6):
            try:
                delta = np.linalg.solve(h + ridge * np.eye(len(x)), -g)
                break
            except np.linalg.LinAlgError:
                ridge = max(ridge * 10, 1e-12 * (1.0 + float(np.trace(h)) / len(x)))
        else:
            break
        improved = False
        alpha = 1.0
        for _ in range(30):
            f_new, g_new = obj.value_grad(x + alpha * delta)
            if g_new is not None and float(np.linalg.norm(g_new)) < gnorm:
                x = x + alpha * delta
                g = g_new
                gnorm = float(np.linalg.norm(g))
                improved = True
                break
            alpha *= 0.5
        steps += 1
        if not improved:
            break
    return x, g, steps


def _maybe_polish(
    obj: _Objective, result: _MinimizeResult, cfg: ExpSolveConfig
) -> _MinimizeResult:
    if result.diverged or result.converged or not cfg.newton_polish:
        return result
    x, g, extra = _newton_polish(obj, result.x, result.grad, cfg.gradient_tol)
    converged = float(np.linalg.norm(g)) <= cfg.gradient_tol
    return _MinimizeResult(
        x, g, result.iterations + extra, converged, False,
        "" if converged else result.message,
    )


def _outcome_from_point(
    sys: ConstraintSystem,
    builder: Callable[[np.ndarray], np.ndarray],
    result: _MinimizeResult,
    cfg: ExpSolveConfig,
) -> SolveOutcome:
    x = result.x
    if result.diverged:
        return SolveOutcome(
            status=SolveStatus.NO_STRICTLY_POSITIVE_SOLUTION,
            solution=None,
            coefficients=x,
            residuals=result.grad,
            max_residual=float(np.max(np.abs(result.grad))),
            min_eigenvalue=float("nan"),
            iterations=result.iterations,
            message=result.message or "potential has no attained minimum",
        )
    solution = builder(x)
    res = sys.residuals(solution)
    max_res = float(np.max(np.abs(res)))
    status = SolveStatus.FEASIBLE if result.converged else SolveStatus.ITERATION_LIMIT
    return SolveOutcome(
        status=status,
        solution=solution,
        coefficients=x,
        residuals=res,
        max_residual=max_res,
        min_eigenvalue=linalg.min_eigenvalue(solution),
        iterations=result.iterations,
        message=result.message,
    )


def solve_exp(
    sys: ConstraintSystem, cfg: ExpSolveConfig | None = None, x0: np.ndarray | None = None
) -> SolveOutcome:
    """Find a strictly positive solution by minimizing the exponential potential.

    Convergence of the gradient (2-norm below ``cfg.gradient_tol``) certifies
    feasibility: the returned ``X = exp(sum x C + offset I)`` is positive
    definite by construction and its residuals equal the final gradient.
    Divergence reports that no strictly positive solution exists (the
    potential is coercive exactly when one does).  It is declared at the
    first iterate whose ray the potential provably falls along without bound,
    or else when the iterates outgrow ``cfg.divergence_threshold``.  Hitting the iteration cap is a soft outcome.
    """
    cfg = cfg or ExpSolveConfig()
    obj = _exp_objective(sys, cfg.exponent_offset)
    start = np.zeros(sys.q) if x0 is None else np.asarray(x0, dtype=float).copy()
    result = _minimize_cg(obj, start, cfg)
    result = _maybe_polish(obj, result, cfg)

    def build(x):
        s = linalg.hermitian_part(sys.aggregate(x)) + cfg.exponent_offset * np.eye(sys.p)
        return linalg.expm_herm(s)

    return _outcome_from_point(sys, build, result, cfg)


def solve_diagonal(sys: ConstraintSystem, cfg: ExpSolveConfig | None = None) -> SolveOutcome:
    """Exponential-potential solver restricted to diagonal solutions.

    Requires every constraint matrix to be diagonal, or strictly
    off-diagonal with a zero target (such constraints are satisfied by any
    diagonal X and are dropped).  Each potential evaluation is O(p q): the
    matrix exponential is entrywise on the diagonal.
    """
    cfg = cfg or ExpSolveConfig()
    diag = np.einsum("qii->qi", sys.matrices)
    if float(np.max(np.abs(diag.imag))) > 1e-12:
        raise ValueError("constraint matrices are not selfadjoint")
    diag = diag.real.copy()
    off_mass = np.array(
        [linalg.frobenius(sys.matrices[i] - np.diag(diag[i])) for i in range(sys.q)]
    )
    scale = 1e-12 * (1.0 + float(np.max(np.abs(sys.matrices))))
    active = off_mass <= scale
    for i in np.flatnonzero(~active):
        if float(np.linalg.norm(diag[i])) > scale or abs(sys.targets[i]) > 1e-12:
            raise ValueError(
                f"constraint {sys.provenance[i]} is not diagonal and not droppable; "
                "the diagonal solver only applies to diagonal systems"
            )
    coeffs = diag[active]  # (q_active, p)
    targets = sys.targets[active]

    obj = _diag_objective(coeffs, targets, cfg.exponent_offset)
    result = _minimize_cg(obj, np.zeros(len(targets)), cfg)
    result = _maybe_polish(obj, result, cfg)

    def build(x):
        return np.diag(np.exp(coeffs.T @ x + cfg.exponent_offset)).astype(complex)

    outcome = _outcome_from_point(sys, build, result, cfg)
    if outcome.coefficients is not None:
        full = np.zeros(sys.q)
        full[active] = outcome.coefficients
        outcome.coefficients = full
    return outcome


def project_affine(x: np.ndarray, sys: ConstraintSystem) -> np.ndarray:
    """Closest point to ``x`` (Frobenius norm) satisfying all trace constraints.

    Subtracts ``sum_i y_i C(i)`` with ``G y = residuals``; requires a pruned
    system (invertible Gram matrix).  Positivity is not preserved and must be
    re-checked by the caller.
    """
    x = linalg.hermitian_part(linalg.as_complex_matrix(x, "candidate"))
    gram = sys.gram()
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        chol = None
    # rank deficiency shows up as Cholesky pivots at the sqrt(machine eps) scale
    pivots = None if chol is None else np.diag(chol)
    if chol is None or not np.all(pivots > 1e-6 * np.max(pivots)):
        raise ValueError(
            "Gram matrix is singular; run prune_dependent before projecting"
        )
    for _ in range(2):  # one refinement pass reaches machine precision
        res = sys.residuals(x)
        y = _chol_solve(chol, res)
        x = x - sys.aggregate(y)
    return linalg.hermitian_part(x)


def _chol_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    z = np.linalg.solve(chol, rhs)
    return np.linalg.solve(chol.conj().T, z)


def _chol_pd(m: np.ndarray) -> np.ndarray | None:
    """Cholesky factor of a Hermitian matrix, or None when not PD."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None


def analytic_center(
    sys: ConstraintSystem, cfg: BarrierConfig, feas_tol: float = 1e-8
) -> SolveOutcome:
    """Analytic center of ``a(x) > 0`` on the slice ``b . x = level``.

    Runs an infeasible-start Newton method on the KKT residual of
    ``minimize -ln det a(x)`` subject to the level constraint, starting at
    x = 0 where ``a(0) = a0 > 0``; steps are shortened until ``a(x)`` stays
    positive definite.  At the optimum ``tr(C(i) a^{-1}) = mu b_i``; the
    multiplier is recovered by least squares and ``X = a^{-1} / mu`` solves
    the constraints.
    """
    a0 = np.eye(sys.p, dtype=complex) if cfg.a0 is None else linalg.as_complex_matrix(cfg.a0)
    if a0.shape != (sys.p, sys.p):
        raise ValueError(f"a0 must be {sys.p} x {sys.p}, got {a0.shape}")
    a0 = linalg.hermitian_part(a0)
    if _chol_pd(a0) is None:
        raise ValueError("a0 must be strictly positive definite")

    b = sys.targets
    bnorm = float(np.linalg.norm(b))
    lam = cfg.level
    empty = np.zeros(sys.q)
    if bnorm == 0.0:
        return SolveOutcome(
            status=SolveStatus.ITERATION_LIMIT,
            solution=None, coefficients=empty, residuals=empty,
            max_residual=float("nan"), min_eigenvalue=float("nan"), iterations=0,
            message=(
                f"level {lam:.6g} is unattainable: all targets vanish"
                if lam != 0.0
                else "degenerate system: all targets vanish, multiplier undefined"
            ),
        )

    x = np.zeros(sys.q)
    w = 0.0
    rtol = cfg.newton_tol * (1.0 + abs(lam) + bnorm)
    iterations = 0
    message = ""
    for iterations in range(1, cfg.max_newton_steps + 1):
        a = linalg.hermitian_part(a0 + sys.aggregate(x))
        ainv = np.linalg.inv(a)
        ainv = linalg.hermitian_part(ainv)
        gvec = -sys.traces(ainv)
        r_dual = gvec + w * b
        r_pri = float(b @ x - lam)
        rnorm = float(np.sqrt(np.linalg.norm(r_dual) ** 2 + r_pri**2))
        if rnorm <= rtol:
            break
        m = ainv @ sys.matrices  # a^{-1} C(i)
        # tr(a^{-1} C(i) a^{-1} C(j)): row i of m against the transpose of row j
        hess = (m.reshape(sys.q, -1) @ np.swapaxes(m, 1, 2).reshape(sys.q, -1).T).real
        kkt = np.zeros((sys.q + 1, sys.q + 1))
        kkt[: sys.q, : sys.q] = hess
        kkt[: sys.q, sys.q] = b
        kkt[sys.q, : sys.q] = b
        rhs = -np.concatenate([r_dual, [r_pri]])
        try:
            step = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            kkt[: sys.q, : sys.q] += 1e-12 * np.trace(hess) / sys.q * np.eye(sys.q)
            step = np.linalg.solve(kkt, rhs)
        dx, dw = step[: sys.q], float(step[sys.q])

        t = 1.0
        accepted = False
        for _ in range(60):
            xt = x + t * dx
            at = linalg.hermitian_part(a0 + sys.aggregate(xt))
            if _chol_pd(at) is not None:
                ainv_t = linalg.hermitian_part(np.linalg.inv(at))
                g_t = -sys.traces(ainv_t)
                rd_t = g_t + (w + t * dw) * b
                rp_t = float(b @ xt - lam)
                if np.sqrt(np.linalg.norm(rd_t) ** 2 + rp_t**2) <= (1 - 0.01 * t) * rnorm:
                    x, w = xt, w + t * dw
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            message = "Newton step made no progress"
            break
    else:
        message = "Newton iteration cap reached"

    a = linalg.hermitian_part(a0 + sys.aggregate(x))
    ainv = linalg.hermitian_part(np.linalg.inv(a))
    moments = sys.traces(ainv)
    r_pri = float(b @ x - lam)
    if abs(r_pri) > np.sqrt(rtol) * (1.0 + abs(lam)):
        message = (
            f"level {lam:.6g} was not attained (gap {r_pri:.3g}); it may lie "
            "outside the attainable range of b . x on the feasible set"
        )
    mu = float(b @ moments) / float(b @ b)
    if not message and mu <= 0:
        message = f"recovered multiplier {mu:.6g} is not positive"
    if message:
        return SolveOutcome(
            status=SolveStatus.ITERATION_LIMIT,
            solution=None, coefficients=x, residuals=np.full(sys.q, np.nan),
            max_residual=float("nan"), min_eigenvalue=float("nan"),
            iterations=iterations, message=message,
        )
    solution = linalg.hermitian_part(ainv / mu)
    res = sys.residuals(solution)
    max_res = float(np.max(np.abs(res)))
    return SolveOutcome(
        status=SolveStatus.FEASIBLE if max_res <= feas_tol else SolveStatus.ITERATION_LIMIT,
        solution=solution,
        coefficients=x,
        residuals=res,
        max_residual=max_res,
        min_eigenvalue=linalg.min_eigenvalue(solution),
        iterations=iterations,
        message="" if max_res <= feas_tol else
        f"center found but residuals {max_res:.3g} exceed {feas_tol:.3g}",
    )


def barrier_sweep(
    sys: ConstraintSystem,
    a0: np.ndarray | None = None,
    newton_tol: float = 1e-10,
    max_newton_steps: int = 100,
    feas_tol: float = 1e-8,
    levels: np.ndarray | None = None,
) -> SolveOutcome:
    """Try analytic centers along a geometric sweep of target levels.

    The admissible window for the level is not computable a priori, so the
    sweep scans ``2**j * sum |b_i|`` for j = -12..8 (ascending: the window
    often hugs zero) and accepts the first level whose recovered solution
    verifies at ``feas_tol``.
    """
    scale = float(np.sum(np.abs(sys.targets)))
    if levels is None:
        levels = [(2.0**j) * scale for j in range(-12, 9)] if scale > 0 else [0.0]
    last = None
    for lam in levels:
        cfg = BarrierConfig(
            a0=a0, level=float(lam), newton_tol=newton_tol,
            max_newton_steps=max_newton_steps,
        )
        outcome = analytic_center(sys, cfg, feas_tol=feas_tol)
        if outcome.status is SolveStatus.FEASIBLE:
            outcome.message = f"level {lam:.6g} accepted"
            return outcome
        last = outcome
    if last is None:
        raise ValueError("empty level sweep")
    last.message = f"no level in the sweep produced a verifying solution; {last.message}"
    return last
