"""Feasibility solvers for trace-constrained PSD systems.

Two routes to a feasible ``X >= 0`` with ``tr(C(i) X) = b_i``, both by one
minimizer, ``_minimize``, on a smooth convex objective whose gradient is the
constraint residual vector of a positive definite matrix:

* ``solve_exp`` minimizes the strictly convex exponential potential

      V(x) = tr(exp(sum_i x_i C(i) + s I)) - sum_i x_i b_i

  by a short warm start of Polak-Ribiere+ conjugate gradients with a
  strong-Wolfe line search, handed to damped Newton with the exact Hessian
  once the gradient norm has fallen to ``NEWTON_HANDOFF`` (0.3) of its
  starting value.  The warm start runs in the metric of the Hessian at
  x = 0, ``e^s G`` with G the Gram matrix ``tr(C(a) C(b))``, which the
  system's triangular factor applies (``ConstraintSystem.gram_solver``):
  its first step is the Newton step at x = 0, and on planted data it
  evaluates about half the points that CG in the identity metric did.  CG
  converges only linearly and Newton quadratically, so Newton does most of
  the work.  Should Newton stall short of the tolerance, CG resumes from
  its point in the identity metric, with the rest of the iteration budget
  and no second hand-off, and a CG run that stalls or hits the cap still
  ends in a Newton polish.  The gradient components of V are exactly
  the constraint residuals of ``X = exp(sum x C + s I)``, so a critical
  point is an exact strictly positive solution; V is coercive precisely
  when such a solution exists, and unbounded growth of the iterates
  witnesses that none does.  The solver stops as soon as any evaluated
  point x proves it, an iterate or a trial point of either line search:
  with ``sum x C <= 0`` and ``b . x > 0`` the potential falls without bound
  along the ray through x, and ``-x`` is itself an infeasibility
  certificate.  Each point is factored once, by one eigendecomposition of
  ``sum x C``, whose spectrum gives the value, the gradient, this test and,
  for Newton, the Hessian, whose rotation of the rows
  (``ConstraintSystem.coordinates``) works on their n x n Kronecker factors.
  On infeasible data the gradient, a residual vector of a positive definite
  matrix, stays away from zero unless the data are only weakly infeasible,
  and on planted infeasible data the recession test fires before the
  hand-off; should a hand-off happen, Newton cannot converge, and its
  backtracking or the resumed CG stops on the recession test.  The scalar
  offset ``s`` (``EXPONENT_OFFSET``) shifts the exponent by a multiple of
  the identity; it changes which feasible point is found but not
  feasibility.

* ``solve_barrier`` minimizes the log-det barrier objective

      F(y) = -b . y - ln det(I - sum_i y_i C(i))

  on the domain where ``Z = I - sum y C`` is positive definite, by the same
  minimizer; at y = 0, Z = I, and the Hessian there, the warm start's
  metric, is G.  Its gradient is the residual vector of ``X = Z^{-1}``, so
  ``X Z = I`` at its minimizer: the mu = 1 point on the central path of the
  SDP ``min tr X`` subject to the constraints and ``X >= 0`` (the max-det
  form of Vandenberghe, Boyd & Wu, 1998).  That point exists exactly when a
  strictly positive solution does, and otherwise F falls without bound
  along a ray with ``sum y C <= 0`` and ``b . y > 0``: the exp potential's
  recession test, word for word.

``solve_diagonal`` is the fast path for systems of diagonal matrices, where
the exponential acts entrywise; its CG keeps the identity metric.
``project_affine`` re-projects an approximate solution exactly onto the
constraint subspace.

When the rows determine X, ``solve_exp`` and ``solve_diagonal`` do not run
the minimizer (``_closed_form``): q = p^2 independent rows, or p independent
diagonal rows, have one solution, and the potential's minimizer is that
point.  One linear solve gives it, and its logarithm gives the dual point x.
The answer stands when the solution is positive definite and the gradient at
x passes ``gradient_tol``; it reports 0 CG and 0 Newton steps.  In every
other case, infeasible and boundary data included, the minimizer runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .constraints import ConstraintSystem
from .tolerances import GRADIENT_TOL, STRUCTURE_RTOL, VERIFY_TOL


class SolveStatus(enum.Enum):
    FEASIBLE = "feasible"
    NO_STRICTLY_POSITIVE_SOLUTION = "no-strictly-positive-solution"
    ITERATION_LIMIT = "iteration-limit"


# CG hands its iterate to Newton once the gradient norm is at most this
# fraction of its starting value, so CG is only a warm start.  On planted
# n = k = 4 data a run takes 1.9 CG and 4.0 Newton steps and 10.8 objective
# evaluations (400 instances; 2.9, 4.9 and 18.2 in the identity metric): CG
# converges only linearly, Newton quadratically once it is near the
# minimizer.  Newton from x = 0 is not safe: on infeasible data it can run
# along a ray without the recession test firing.  On planted infeasible
# data that test fires during CG, before the gradient falls to 0.3 of its
# start (on all of 1 280 instances), so those runs stay CG only.
# A run that is handed off on infeasible data, as the span check's can be,
# ends at the first Newton trial point that passes the test.
NEWTON_HANDOFF = 0.3

# Strong-Wolfe constants of the CG line search (0 < c1 < c2 < 1), and the
# multiple of (1 + |x0|) past which CG declares the iterates divergent.
SUFFICIENT_DECREASE, CURVATURE = 1e-4, 0.4
DIVERGENCE_THRESHOLD = 1e4

# The exp potential's offset s in X = exp(sum x C + s I).  It changes which
# feasible point is found, not whether one exists; the shipped golden report
# holds the point found with s = -1.
EXPONENT_OFFSET = -1.0


@dataclass
class ExpSolveConfig:
    """Settings for the minimizer, shared by every solver of this module.

    ``max_iterations`` caps the CG steps of a run; each Newton phase takes at
    most ``_newton_polish``'s 50 steps.  Every run hands CG's iterate to
    Newton at ``NEWTON_HANDOFF``.  The defaults are those of the command line.
    """

    gradient_tol: float = GRADIENT_TOL
    max_iterations: int = 10000

    def __post_init__(self):
        if self.gradient_tol <= 0:
            raise ValueError("gradient_tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class SolveOutcome:
    """Result of a solver run.

    ``cg_iterations`` counts conjugate-gradient steps and ``newton_steps``
    Newton steps.
    """

    status: SolveStatus
    solution: np.ndarray | None
    coefficients: np.ndarray | None
    residuals: np.ndarray
    max_residual: float
    min_eigenvalue: float
    cg_iterations: int
    newton_steps: int
    message: str = ""

    @property
    def iterations(self) -> int:
        return self.cg_iterations + self.newton_steps


@dataclass
class VerifyReport:
    residuals: np.ndarray
    max_residual: float
    min_eigenvalue: float
    positive_semidefinite: bool


def verify(x: np.ndarray, sys: ConstraintSystem, tol: float = VERIFY_TOL) -> VerifyReport:
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


def _value_grad(sys: ConstraintSystem, x: np.ndarray, offset: float) -> tuple[float, np.ndarray]:
    """The potential and its gradient at x; ``OverflowError`` past the float range."""
    point = _exp_objective(sys, offset).evaluate(np.asarray(x, dtype=float))
    if point.g is None:
        raise OverflowError("the potential or its gradient exceeds the range of double precision")
    return point.f, point.g


def potential(sys: ConstraintSystem, x: np.ndarray, offset: float = 0.0) -> float:
    """Exponential potential ``tr(exp(sum x C + offset I)) - x . b``."""
    return _value_grad(sys, x, offset)[0]


def gradient(sys: ConstraintSystem, x: np.ndarray, offset: float = 0.0) -> np.ndarray:
    """Gradient of the potential: ``tr(C(i) exp(sum x C + offset I)) - b_i``.

    These are exactly the constraint residuals of ``exp(sum x C + offset I)``.
    """
    return _value_grad(sys, x, offset)[1]


# ---------------------------------------------------------------------------
# shared minimization machinery


@dataclass
class _Point:
    """An objective evaluated at x, all of it read off one factorization.

    ``f = inf`` (and ``g = None``) where the exponential or the gradient
    overflows, or outside the domain, which the line searches treat as a
    step that went too far.
    ``recedes`` is True when the objective is provably unbounded below along
    the ray through x.  ``factor`` is the objective's factorization at x,
    which its ``hessian`` and ``solution`` reuse.
    """

    x: np.ndarray
    f: float
    g: np.ndarray | None = None
    recedes: bool = False
    factor: tuple = ()


@dataclass
class _Objective:
    """A smooth convex function: ``evaluate(x)`` factors x once, and
    ``hessian(point)`` and ``solution(point)`` (the positive definite matrix
    whose residuals are the gradient) read the point's factorization.
    ``precondition(g)`` is ``M^{-1} g`` for the Hessian M at x = 0, CG's
    metric from there; None when the objective has none."""

    evaluate: Callable[[np.ndarray], _Point]
    hessian: Callable[[_Point], np.ndarray]
    solution: Callable[[_Point], np.ndarray]
    precondition: Callable[[np.ndarray], np.ndarray] | None = None


def _gram_metric(sys: ConstraintSystem, weight: float) -> Callable[[np.ndarray], np.ndarray] | None:
    """``g -> weight G^{-1} g``, the inverse of the Hessian ``G / weight`` at
    x = 0, with G the rows' Gram matrix (``ConstraintSystem.gram_solver``);
    None when G is singular, as on a system that keeps dependent rows."""
    solve = sys.gram_solver
    return None if solve is None else lambda g: weight * solve(g)


def _exp_objective(sys: ConstraintSystem, offset: float) -> _Objective:
    """The exp potential, factored by one ``eigh`` of ``sum x C`` per point.

    Its recession test (``sum x C <= 0`` and ``b . x > 0``; see
    ``_barrier_objective``) reads the top of that same spectrum.  At x = 0
    every divided difference of exp is ``e^s``, so the Hessian there, CG's
    metric, is ``e^s G`` with G the rows' Gram matrix.
    """
    targets = sys.targets

    def evaluate(x):
        w, u = np.linalg.eigh(linalg.hermitian_part(sys.aggregate(x)))
        top = float(w[-1])  # the largest eigenvalue of sum x C
        w = w + offset
        if w[-1] > linalg.EXP_ARG_LIMIT:
            return _Point(x, np.inf)
        ew = np.exp(w)
        ex = (u * ew) @ u.conj().T
        with np.errstate(over="ignore", invalid="ignore"):
            g = sys.residuals(ex)
        if not np.all(np.isfinite(g)):  # the pairings with large rows overflow
            return _Point(x, np.inf)
        bx = float(x @ targets)
        return _Point(x, float(np.sum(ew) - bx), g, bx > 0.0 and top <= 0.0, (w, u, ex))

    def hessian(point):
        w, u, _ = point.factor
        ew = np.exp(w)
        # divided differences of exp over the spectrum
        dw = w[:, None] - w[None, :]
        near = np.abs(dw) < 1e-12
        dw_safe = np.where(near, 1.0, dw)
        phi = np.where(near, (ew[:, None] + ew[None, :]) / 2, (ew[:, None] - ew[None, :]) / dw_safe)
        # H_ij = Re sum_ab phi_ab (U^* C(i) U)_ab conj((U^* C(j) U)_ab), and
        # phi is symmetric and positive (exp is increasing), so H is one SYRK
        # of the rotated rows' Hermitian coordinates, each scaled by sqrt(phi);
        # the system rotates the rows' Kronecker factors, not p x p rows
        rot = sys.coordinates(u, phi)
        return rot @ rot.T

    return _Objective(evaluate, hessian, lambda point: linalg.hermitian_part(point.factor[2]),
                      _gram_metric(sys, np.exp(-offset)))


def _barrier_objective(sys: ConstraintSystem) -> _Objective:
    """``F(y) = -b . y - ln det Z`` with ``Z = I - sum y C``; see the module docstring.

    A point is factored by the Cholesky inverse ``K = L^{-1}`` of
    ``Z = L L^*``, so that ``X = Z^{-1} = K^* K``; y is outside the domain
    when Z is not positive definite.  The gradient is ``tr(C(i) X) - b_i``
    and the Hessian ``tr(X C(i) X C(j))``, the Gram matrix of the
    ``K C(i) K^*``: one SYRK of their Hermitian coordinates, which the
    system rotates through its Kronecker blocks as for the exp potential.

    The recession test, shared with the exp potential, is ``sum y C <= 0``
    and ``b . y > 0``: along ``t y`` the term ``-t b . y`` then falls without
    bound while ``-ln det(I - sum t y C)`` stays at most 0 (and
    ``tr exp(sum t y C + s I)`` stays bounded), and ``-y`` is an
    infeasibility certificate.  The Cholesky factor does not show the top of
    the spectrum, so the test takes one ``eigvalsh`` when ``b . y > 0`` and
    no diagonal entry of ``sum y C`` is positive (one that is rules out
    ``sum y C <= 0``).  At y = 0, Z = I and the Hessian, CG's metric, is the
    rows' Gram matrix.
    """

    def evaluate(y):
        s = linalg.hermitian_part(sys.aggregate(y))
        try:
            k = np.linalg.inv(np.linalg.cholesky(np.eye(sys.p) - s))
        except np.linalg.LinAlgError:
            return _Point(y, np.inf)
        x = k.conj().T @ k
        by = float(y @ sys.targets)
        # ln det Z = -2 sum ln |K_ii|, K being triangular
        f = float(2.0 * np.sum(np.log(np.abs(np.diagonal(k)))) - by)
        recedes = (by > 0.0 and float(np.max(s.diagonal().real)) <= 0.0
                   and float(np.linalg.eigvalsh(s)[-1]) <= 0.0)
        return _Point(y, f, sys.residuals(x), recedes, (k, x))

    def hessian(point):
        k, _ = point.factor
        rot = sys.coordinates(k.conj().T)
        return rot @ rot.T

    return _Objective(evaluate, hessian, lambda point: point.factor[1], _gram_metric(sys, 1.0))


def _diag_objective(coeffs: np.ndarray, targets: np.ndarray) -> _Objective:
    """Potential restricted to diagonal matrices: entrywise exponential.

    CG keeps the identity metric: with its own Hessian at x = 0,
    ``e^s D D^T``, ill-conditioned diagonal draws outgrow the norm cap.
    """

    def evaluate(x):
        cx = coeffs.T @ x
        s = cx + EXPONENT_OFFSET
        if np.max(s) > linalg.EXP_ARG_LIMIT:
            return _Point(x, np.inf)
        es = np.exp(s)
        bx = float(x @ targets)
        return _Point(x, float(np.sum(es) - bx), coeffs @ es - targets,
                      bx > 0.0 and float(np.max(cx)) <= 0.0, (es,))

    def hessian(point):
        return (coeffs * point.factor[0]) @ coeffs.T

    return _Objective(evaluate, hessian, lambda point: np.diag(point.factor[0]).astype(complex))


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


# Why a CG run stopped, besides convergence, and how a message puts it;
# Newton's backtracking also stops on "trial-recedes".
_CG_STOPS = {
    "recedes": "found the objective unbounded below along the ray through the iterate",
    "trial-recedes": "found the objective unbounded below along the ray through a trial point",
    "norm-cap": "saw the iterates diverge with the objective still decreasing",
    "stalled": "stalled in the line search",
    "limit": "hit the iteration limit",
}
_DIVERGED = ("recedes", "trial-recedes", "norm-cap")


class _TrialRecedes(Exception):
    """A line search's trial point passed the recession test, which ends the run there."""

    def __init__(self, point: _Point):
        super().__init__()
        self.point = point


def _minimize_cg(
    obj: _Objective,
    start: _Point,
    cfg: ExpSolveConfig,
    budget: int,
    handoff: float = 0.0,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[_Point, int, str]:
    """Polak-Ribiere+ conjugate gradients with periodic restarts, in the
    metric M whose inverse ``precondition`` applies, or the identity.

    The search directions are built from the preconditioned gradients
    ``M^{-1} g`` (Nocedal & Wright, *Numerical Optimization*, 5.2).  With M
    the Hessian at the start point, the first step is the Newton step
    there, and every line search starts at ``alpha = 1``; a restart goes
    along ``-M^{-1} g``.  In the identity metric the first step has no
    natural length, and its search starts where the linear model has
    fallen by ``2 max(|f|, 1)``.  Takes at most ``budget`` steps and
    declares divergence once ``|x| > DIVERGENCE_THRESHOLD * (1 + |x0|)``,
    or as soon as the start, an iterate or a trial point of the line search
    passes the recession test.  Returns the last point, the step count and
    why the run stopped:
    ``"converged"``, ``"handoff"`` (the gradient norm fell to ``handoff``
    times its starting value; 0 never hands off) or a key of ``_CG_STOPS``.
    """
    if not np.isfinite(start.f):
        raise ValueError("objective overflows at the starting point")
    restart_every = max(len(start.x), 10)
    divergence_cap = DIVERGENCE_THRESHOLD * (1.0 + float(np.linalg.norm(start.x)))
    handoff_norm = handoff * float(np.linalg.norm(start.g))
    metric = precondition or (lambda g: g)
    point = start
    since_restart = 0
    pg = metric(point.g)
    d = -pg
    iterations = 0

    while iterations < budget:
        x, f, g = point.x, point.f, point.g
        gnorm = float(np.linalg.norm(g))
        if gnorm <= cfg.gradient_tol:
            return point, iterations, "converged"
        if point.recedes:
            return point, iterations, "recedes"
        if float(np.linalg.norm(x)) > divergence_cap:
            return point, iterations, "norm-cap"
        if gnorm <= handoff_norm:
            return point, iterations, "handoff"
        slope = float(g @ d)
        if slope >= 0:  # not a descent direction: restart on -M^{-1} g
            d = -pg
            slope = -float(g @ pg)
            since_restart = 0

        probes: dict = {}

        def fg_line(alpha, _probes=probes, _x=x, _d=d):
            probe = obj.evaluate(_x + alpha * _d)
            if probe.recedes:
                raise _TrialRecedes(probe)
            if probe.g is None:
                return probe.f, np.inf
            with np.errstate(over="ignore", invalid="ignore"):
                slope = float(probe.g @ _d)
            if not np.isfinite(slope):  # the pairing overflows: the step went too far
                return np.inf, np.inf
            _probes[alpha] = probe
            return probe.f, slope

        alpha0 = 1.0
        if precondition is None and iterations == 0:
            alpha0 = min(1.0, 2.0 * max(abs(f), 1.0) / max(gnorm**2, 1e-30))
        iterations += 1
        try:
            alpha = _wolfe_search(fg_line, f, slope, SUFFICIENT_DECREASE, CURVATURE, alpha0)
        except _TrialRecedes as stop:
            return stop.point, iterations, "trial-recedes"
        if alpha is None or alpha == 0.0:
            return point, iterations, "stalled"
        # every step the search accepts is one it evaluated with a finite value
        point = probes[alpha]
        pg_prev, pg = pg, metric(point.g)
        since_restart += 1
        if since_restart >= restart_every:
            beta = 0.0
            since_restart = 0
        else:
            beta = max(0.0, float(pg @ (point.g - g)) / max(float(g @ pg_prev), 1e-300))
        d = -pg + beta * d

    return point, iterations, "limit"


def _newton_polish(
    obj: _Objective, point: _Point, tol: float, max_steps: int = 50
) -> tuple[_Point, int]:
    """Damped Newton steps judged on the gradient norm (robust near the minimum).

    Returns the last point and the step count.  A trial point of the
    backtracking that passes the recession test ends the run, and is
    returned.  The backtracking halves the step at most 30 times, and stops
    the run once the step no longer moves x: x itself is not evaluated again.
    """
    steps = 0
    gnorm = float(np.linalg.norm(point.g))
    while gnorm > tol and steps < max_steps:
        h = obj.hessian(point)
        ridge = 0.0
        for _ in range(6):
            try:
                delta = np.linalg.solve(h + ridge * np.eye(len(point.x)) if ridge else h, -point.g)
                break
            except np.linalg.LinAlgError:
                ridge = max(ridge * 10, 1e-12 * (1.0 + float(np.trace(h)) / len(point.x)))
        else:
            break
        steps += 1
        alpha = 1.0
        for _ in range(30):
            x = point.x + alpha * delta
            if np.array_equal(x, point.x):
                # every shorter step gives x again: no step lowers the gradient norm
                return point, steps
            trial = obj.evaluate(x)
            if trial.recedes:
                return trial, steps
            # a long step's gradient can overflow the norm: inf rejects it
            with np.errstate(over="ignore"):
                trial_norm = np.inf if trial.g is None else float(np.linalg.norm(trial.g))
            if trial_norm < gnorm:
                point, gnorm = trial, trial_norm
                break
            alpha *= 0.5
        else:  # no step lowered the gradient norm
            break
    return point, steps


def _minimize(
    sys: ConstraintSystem, obj: _Objective, x0: np.ndarray, cfg: ExpSolveConfig
) -> SolveOutcome:
    """A CG warm start, handed to Newton at ``NEWTON_HANDOFF``, with CG as the
    stall fallback; the outcome on ``sys``, whose residuals the gradient of
    ``obj`` is.

    The warm start runs in the metric of ``obj.precondition``, the Hessian
    at x = 0.  If Newton stalls short of ``cfg.gradient_tol``, CG resumes
    from Newton's point, where that is no longer the Hessian, in the
    identity metric, with the rest of the CG budget and without a second
    hand-off.  From there the run ends as a CG-only run does: on
    convergence, on the recession test or the norm cap, or on a stall or the
    iteration cap followed by a Newton polish.  The resumed run measures the
    norm cap from Newton's point: on ill-conditioned data the minimizer can
    lie beyond the cap of the first start, and Newton may have walked most
    of the way there.
    Every point either method evaluates is tested for recession, and the
    first that passes ends the run as diverged.
    """

    def converged(point: _Point) -> bool:
        return float(np.linalg.norm(point.g)) <= cfg.gradient_tol

    point, cg_steps, stop = _minimize_cg(
        obj, obj.evaluate(x0), cfg, cfg.max_iterations, NEWTON_HANDOFF, obj.precondition
    )
    newton_steps = 0
    phase = "CG"
    if stop == "handoff":
        point, newton_steps = _newton_polish(obj, point, cfg.gradient_tol)
        if point.recedes:
            stop, phase = "trial-recedes", "Newton"
        elif converged(point):
            stop = "converged"
        else:
            point, more, stop = _minimize_cg(obj, point, cfg, cfg.max_iterations - cg_steps)
            cg_steps += more
            phase = "Newton stalled after hand-off; CG resumed and"
    message = "" if stop == "converged" else f"{phase} {_CG_STOPS[stop]}"
    if stop in ("stalled", "limit"):
        point, more = _newton_polish(obj, point, cfg.gradient_tol)
        newton_steps += more
        if point.recedes:
            stop = "trial-recedes"
            message += f"; Newton polish {_CG_STOPS['trial-recedes']}"
        elif converged(point):
            stop, message = "converged", ""
        else:
            message += "; Newton polish did not converge"
    if stop in _DIVERGED:
        return SolveOutcome(
            SolveStatus.NO_STRICTLY_POSITIVE_SOLUTION, None, point.x, point.g,
            float(np.max(np.abs(point.g))), float("nan"), cg_steps, newton_steps, message,
        )
    status = SolveStatus.FEASIBLE if stop == "converged" else SolveStatus.ITERATION_LIMIT
    return _solved(sys, obj, point, status, cg_steps, newton_steps, message)


def _solved(
    sys: ConstraintSystem, obj: _Objective, point: _Point, status: SolveStatus,
    cg_steps: int, newton_steps: int, message: str,
) -> SolveOutcome:
    """The outcome that returns ``obj``'s positive definite matrix at ``point``."""
    solution = obj.solution(point)
    res = sys.residuals(solution)
    return SolveOutcome(
        status, solution, point.x, res, float(np.max(np.abs(res), initial=0.0)),
        linalg.min_eigenvalue(solution), cg_steps, newton_steps, message,
    )


def _closed_form(
    sys: ConstraintSystem, obj: _Objective, x: np.ndarray | None, cfg: ExpSolveConfig
) -> SolveOutcome | None:
    """A ``FEASIBLE`` outcome at the dual point x of the one solution of
    rows that determine X, with 0 CG and 0 Newton steps; None when there is
    no such x, or when x fails the minimizer's own test: the gradient at x,
    the residual vector of ``obj``'s matrix there, must be finite and of
    2-norm at most ``cfg.gradient_tol``.  Then the minimizer runs instead."""
    if x is None or not np.all(np.isfinite(x)):
        return None
    point = obj.evaluate(x)
    if point.g is None or float(np.linalg.norm(point.g)) > cfg.gradient_tol:
        return None
    return _solved(sys, obj, point, SolveStatus.FEASIBLE, 0, 0, "")


def _determined_dual(sys: ConstraintSystem) -> np.ndarray | None:
    """The exp potential's minimizer when the rows determine X: q = p^2
    independent rows (``gram_solver`` defined) span the Hermitian matrices,
    so the one solution is ``X = sum y C`` with ``G y = b``.  When X is
    positive definite, the x with ``sum x C = log X - s I`` is
    ``G^{-1} tr(C(i) (log X - s I))``, read off one ``eigh`` of X; None
    otherwise."""
    solve = sys.gram_solver if sys.q == sys.p * sys.p else None
    if solve is None:
        return None
    try:
        w, u = np.linalg.eigh(linalg.hermitian_part(sys.aggregate(solve(sys.targets))))
    except np.linalg.LinAlgError:
        return None
    if not w[0] > 0.0:
        return None
    return solve(sys.traces((u * (np.log(w) - EXPONENT_OFFSET)) @ u.conj().T))


def _determined_diagonal_dual(coeffs: np.ndarray, targets: np.ndarray) -> np.ndarray | None:
    """``_diag_objective``'s minimizer when p independent rows determine the
    diagonal: d solves ``D d = b``, and x solves ``D^T x = log d - s``; None
    unless d is positive, or when D is singular."""
    try:
        d = np.linalg.solve(coeffs, targets)
        if not np.min(d) > 0.0:
            return None
        return np.linalg.solve(coeffs.T, np.log(d) - EXPONENT_OFFSET)
    except np.linalg.LinAlgError:
        return None


def solve_exp(sys: ConstraintSystem, cfg: ExpSolveConfig | None = None) -> SolveOutcome:
    """Find a strictly positive solution by minimizing the exponential potential.

    A few CG steps bring the gradient norm to ``NEWTON_HANDOFF`` (0.3) of its
    starting value, then damped Newton finishes; if Newton stalls, CG resumes
    (see ``_minimize``).  Convergence of the gradient (2-norm below
    ``cfg.gradient_tol``) certifies feasibility: the returned
    ``X = exp(sum x C + s I)`` is positive definite by construction and
    its residuals equal the final gradient.  Divergence reports that no
    strictly positive solution exists (the potential is coercive exactly
    when one does).  It is declared at the first evaluated point, iterate
    or line-search trial, whose ray the potential provably falls along
    without bound, or else when the iterates outgrow
    ``DIVERGENCE_THRESHOLD``.  The returned X is read off the eigenvalue
    decomposition that evaluated the last point.

    Hitting the iteration cap is a soft outcome.

    Rows that determine X (q = p^2 with ``gram_solver`` defined) skip the
    minimizer when their one solution is positive definite and passes the
    gradient test (``_determined_dual``, ``_closed_form``): the outcome then
    has 0 CG and 0 Newton steps.
    """
    cfg = cfg or ExpSolveConfig()
    obj = _exp_objective(sys, EXPONENT_OFFSET)
    return _closed_form(sys, obj, _determined_dual(sys), cfg) or _minimize(
        sys, obj, np.zeros(sys.q), cfg)


def solve_barrier(sys: ConstraintSystem, cfg: ExpSolveConfig | None = None) -> SolveOutcome:
    """Find a strictly positive solution by minimizing the barrier objective.

    The run is ``solve_exp``'s with ``F`` (see the module docstring) in place
    of the exp potential, from y = 0 where ``Z = I``.  Convergence returns
    ``X = (I - sum y C)^{-1}``, positive definite by construction, with its
    residuals equal to the final gradient; divergence reports that no
    strictly positive solution exists.
    """
    return _minimize(sys, _barrier_objective(sys), np.zeros(sys.q), cfg or ExpSolveConfig())


def solve_diagonal(sys: ConstraintSystem, cfg: ExpSolveConfig | None = None) -> SolveOutcome:
    """Exponential-potential solver restricted to diagonal solutions.

    Requires every constraint matrix to be diagonal, or strictly
    off-diagonal with a zero target (such constraints are satisfied by any
    diagonal X and are dropped).  Each potential evaluation is O(p q): the
    matrix exponential is entrywise on the diagonal.  When p rows remain,
    prune has made them independent and they determine the diagonal d: if
    ``D d = b`` gives a positive d that passes the gradient test, the
    outcome is read off it with 0 CG and 0 Newton steps
    (``_determined_diagonal_dual``, ``_closed_form``), and otherwise the
    minimizer runs.
    """
    coords = sys.coordinates()
    diag = coords[:, : sys.p]
    scale = STRUCTURE_RTOL * (1.0 + float(np.max(np.abs(coords), initial=0.0)))
    # the norm of the other coordinates is that of the off-diagonal entries
    active = np.linalg.norm(coords[:, sys.p :], axis=1) <= scale
    droppable = (np.linalg.norm(diag, axis=1) <= scale) & (np.abs(sys.targets) <= STRUCTURE_RTOL)
    refused = np.flatnonzero(~(active | droppable))
    if refused.size:
        raise ValueError(
            f"constraint {sys.provenance[refused[0]]} is not diagonal and not droppable; "
            "the diagonal solver only applies to diagonal systems"
        )
    cfg = cfg or ExpSolveConfig()
    coeffs, targets = diag[active], sys.targets[active]
    obj = _diag_objective(coeffs, targets)
    x = _determined_diagonal_dual(coeffs, targets) if len(targets) == sys.p else None
    outcome = _closed_form(sys, obj, x, cfg) or _minimize(sys, obj, np.zeros(len(targets)), cfg)
    full = np.zeros(sys.q)
    full[active] = outcome.coefficients
    outcome.coefficients = full
    return outcome


def project_affine(x: np.ndarray, sys: ConstraintSystem) -> np.ndarray:
    """Closest point to ``x`` (Frobenius norm) satisfying all trace constraints.

    Subtracts ``sum_i y_i C(i)`` with ``G y = residuals``, G the Gram matrix
    ``tr(C(a) C(b))``.  The system must be one that prune keeps whole, and
    the rank is decided on prune's own factor (``ConstraintSystem.factor``):
    ``G = N R^T R N``, with N the diagonal of the row norms and R the
    triangular factor of the unit-norm rows, which ``gram_solver`` applies,
    and the squared pivots ``R[j, j]^2`` are the squared residuals that
    ``prune_dependent`` cuts.  A ``ValueError`` is raised when one is at
    most ``DEPENDENCE_RTOL``.  Positivity is not preserved and must be
    re-checked by the caller.
    """
    x = linalg.hermitian_part(linalg.as_complex_matrix(x, "candidate"))
    solve = sys.gram_solver
    if solve is None:
        raise ValueError(
            "the constraints are linearly dependent; run prune_dependent before projecting"
        )
    for _ in range(2):  # one refinement pass reaches machine precision
        x = x - sys.aggregate(solve(sys.residuals(x)))
    return linalg.hermitian_part(x)
