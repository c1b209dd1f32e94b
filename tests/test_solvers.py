import numpy as np
import pytest

from cpinterp.constraints import (
    ConstraintSystem,
    ProblemInstance,
    instance_system,
    joint_support_reduce,
    prune_dependent,
)
from cpinterp.solvers import (
    BarrierConfig,
    ExpSolveConfig,
    SolveStatus,
    analytic_center,
    barrier_sweep,
    gradient,
    potential,
    project_affine,
    solve_diagonal,
    solve_exp,
    verify,
)
from helpers import (
    X_REF,
    golden_system,
    planted_diagonal_instance,
    planted_instance,
    random_hermitian,
)


def system_of(mats, targets):
    mats = np.asarray(mats, dtype=complex)
    return ConstraintSystem(mats.shape[1], mats, np.asarray(targets, dtype=float))


def random_system(rng, p, q, planted=True):
    """Random independent constraints; optionally with a planted exp-form solution."""
    mats = np.array([random_hermitian(rng, p) for _ in range(q)])
    if planted:
        coeffs = rng.uniform(-0.5, 0.5, size=q)
        s = np.tensordot(coeffs, mats, axes=1)
        w, u = np.linalg.eigh((s + s.conj().T) / 2)
        x_true = (u * np.exp(w)) @ u.conj().T
        targets = np.einsum("qij,ji->q", mats, x_true).real
    else:
        targets = rng.standard_normal(q)
    sys = ConstraintSystem(p, mats, targets)
    return prune_dependent(sys)


def fd_gradient(sys, x, offset=0.0, step=1e-5):
    """Central finite differences of the potential (independent oracle)."""
    out = np.zeros(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = step
        out[i] = (potential(sys, x + e, offset) - potential(sys, x - e, offset)) / (2 * step)
    return out


# ---------------------------------------------------------------------------
# potential / gradient


def test_potential_at_zero_is_dimension():
    sys = golden_system()
    assert potential(sys, np.zeros(sys.q)) == pytest.approx(4.0)


def test_potential_scalar_family():
    sys = system_of([np.diag([1.0, -1.0])], [0.0])
    for t in (-1.0, -0.3, 0.0, 0.5, 2.0):
        assert potential(sys, np.array([t])) == pytest.approx(np.exp(t) + np.exp(-t))
    # minimized at t = 0
    out = solve_exp(sys, ExpSolveConfig(exponent_offset=0.0))
    assert out.status is SolveStatus.FEASIBLE
    assert abs(out.coefficients[0]) < 1e-9


def test_gradient_at_zero():
    sys = golden_system()
    g = gradient(sys, np.zeros(sys.q))
    expected = np.einsum("qii->q", sys.matrices).real - sys.targets
    assert np.abs(g - expected).max() < 1e-12


def test_gradient_scalar_zero():
    sys = system_of([np.diag([1.0, -1.0])], [0.0])
    assert abs(gradient(sys, np.zeros(1))[0]) < 1e-15


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(55)
    sys = golden_system()
    for _ in range(3):
        x = rng.uniform(-0.3, 0.3, size=sys.q)
        g = gradient(sys, x)
        fd = fd_gradient(sys, x)
        assert np.abs(g - fd).max() <= 1e-6 * (1 + np.abs(fd).max())


def test_exp_hessian_matches_finite_differences():
    from cpinterp.solvers import _exp_objective

    rng = np.random.default_rng(57)
    p, support = 6, 4
    # constraints supported on the first 4 of 6 coordinates, planted solution
    mats = np.zeros((10, p, p), dtype=complex)
    for c in mats:
        c[:support, :support] = random_hermitian(rng, support)
    s = np.tensordot(rng.uniform(-0.5, 0.5, size=len(mats)), mats, axes=1)
    w, u = np.linalg.eigh(s)
    x_true = (u * np.exp(w)) @ u.conj().T
    pruned = prune_dependent(system_of(mats, [np.trace(c @ x_true).real for c in mats]))
    reduced, red = joint_support_reduce(pruned)
    assert red.reduced_dim < p
    step = 1e-5
    for sys in (pruned, reduced):
        obj = _exp_objective(sys, -1.0)
        for _ in range(3):
            x = rng.uniform(-0.3, 0.3, size=sys.q)
            h = obj.hessian(x)
            fd = np.zeros_like(h)
            for i in range(sys.q):
                e = np.zeros(sys.q)
                e[i] = step
                fd[:, i] = (obj.value_grad(x + e)[1] - obj.value_grad(x - e)[1]) / (2 * step)
            assert np.linalg.norm(h - fd) <= 1e-6 * np.linalg.norm(fd)


def test_potential_overflow_is_diagnosed():
    sys = system_of([np.array([[1.0]])], [1.0])
    with pytest.raises(OverflowError):
        potential(sys, np.array([2000.0]))


def test_line_search_backtracks_through_overflow():
    from cpinterp.solvers import _wolfe_search

    # quadratic valley with an overflow cliff just past the minimizer
    def fg_line(alpha):
        if alpha > 1.0:
            return np.inf, np.inf
        return (alpha - 0.9) ** 2, 2.0 * (alpha - 0.9)

    f0, slope0 = fg_line(0.0)
    alpha = _wolfe_search(fg_line, f0, slope0, 1e-4, 0.4, alpha0=4.0)
    assert alpha is not None
    assert 0.0 < alpha <= 1.0
    f, s = fg_line(alpha)
    assert f <= f0 + 1e-4 * alpha * slope0
    assert abs(s) <= 0.4 * abs(slope0)


def test_potential_midpoint_convexity():
    rng = np.random.default_rng(56)
    sys = golden_system()
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, size=sys.q)
        d = rng.standard_normal(sys.q)
        vals = [potential(sys, x + t * d) for t in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            assert b <= (a + c) / 2 + 1e-9


# ---------------------------------------------------------------------------
# solve_exp


def test_solve_exp_reproduces_reference_solution():
    out = solve_exp(golden_system())
    assert out.status is SolveStatus.FEASIBLE
    assert np.abs(out.solution - X_REF).max() < 5e-3
    assert out.min_eigenvalue > 0
    assert out.max_residual <= 1e-9


def test_solve_exp_trace_constraint_identity():
    p = 3
    sys = system_of([np.eye(p)], [float(p)])
    out = solve_exp(sys, ExpSolveConfig(exponent_offset=0.0))
    assert out.status is SolveStatus.FEASIBLE
    # the aggregate vanishes at the critical point and X is the identity
    assert np.abs(sys.aggregate(out.coefficients)).max() < 1e-9
    assert np.abs(out.solution - np.eye(p)).max() < 1e-9


def test_solve_exp_planted_recovery():
    rng = np.random.default_rng(60)
    for _ in range(5):
        inst, _ = planted_instance(rng, 2, 2, 2)
        sys = prune_dependent(instance_system(inst))
        out = solve_exp(sys)
        assert out.status is SolveStatus.FEASIBLE
        assert out.max_residual <= 1e-8
        assert out.min_eigenvalue > 0


def test_solve_exp_unique_critical_point():
    rng = np.random.default_rng(61)
    sys = golden_system()
    cfg = ExpSolveConfig(gradient_tol=1e-11)
    x_first = solve_exp(sys, cfg, x0=rng.uniform(-0.5, 0.5, size=sys.q)).coefficients
    x_second = solve_exp(sys, cfg, x0=rng.uniform(-0.5, 0.5, size=sys.q)).coefficients
    assert np.abs(x_first - x_second).max() < 1e-6


def test_solve_exp_detects_no_strict_solution():
    # planted sign obstruction: a PSD constraint matrix with a negative target
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    sys = system_of([e11], [-1.0])
    out = solve_exp(sys)
    assert out.status is SolveStatus.NO_STRICTLY_POSITIVE_SOLUTION
    assert out.solution is None


def test_solve_exp_stops_on_recession_ray():
    # planted data plus (I, -I): the solver stops at the first iterate x with
    # sum x C <= 0 and b . x > 0, not on the norm cap
    rng = np.random.default_rng(64)
    eye = np.eye(3, dtype=complex)
    for _ in range(5):
        inst, _ = planted_instance(rng, 3, 3, 3)
        inst = ProblemInstance(3, 3, inst.pairs + [(eye, -eye)])
        sys = prune_dependent(instance_system(inst))
        out = solve_exp(sys)
        assert out.status is SolveStatus.NO_STRICTLY_POSITIVE_SOLUTION
        assert "unbounded below" in out.message
        x = out.coefficients
        assert np.linalg.eigvalsh(sys.aggregate(x))[-1] <= 0.0
        assert x @ sys.targets > 0.0


def test_solve_diagonal_stops_on_recession_ray():
    # 1 x = -1 has no positive solution; the potential falls along x -> -inf
    sys = system_of([np.array([[1.0]])], [-1.0])
    out = solve_diagonal(sys)
    assert out.status is SolveStatus.NO_STRICTLY_POSITIVE_SOLUTION
    assert "unbounded below" in out.message
    assert out.coefficients[0] < 0.0


def test_solve_exp_non_hermitian_data():
    rng = np.random.default_rng(63)
    inst, _ = planted_instance(rng, 2, 2, 2, hermitian_data=False)
    sys = prune_dependent(instance_system(inst))
    assert sys.q == 16  # both hermitized parts of every couple survive
    out = solve_exp(sys)
    assert out.status is SolveStatus.FEASIBLE
    assert out.max_residual <= 1e-8


def test_solve_exp_strictly_positive_by_construction():
    rng = np.random.default_rng(62)
    for _ in range(3):
        sys = random_system(rng, 4, 5)
        out = solve_exp(sys)
        assert out.status is SolveStatus.FEASIBLE
        assert out.min_eigenvalue > 0


def test_solve_exp_iteration_limit_is_soft():
    sys = golden_system()
    out = solve_exp(sys, ExpSolveConfig(max_iterations=1, newton_polish=False))
    assert out.status is SolveStatus.ITERATION_LIMIT
    assert out.solution is not None  # best iterate still reported


# ---------------------------------------------------------------------------
# analytic_center / barrier_sweep


def test_analytic_center_single_trace_constraint():
    p = 3
    sys = system_of([np.eye(p)], [1.0])
    for level in (0.5, 1.0, 4.0):
        out = analytic_center(sys, BarrierConfig(level=level))
        assert out.status is SolveStatus.FEASIBLE
        assert np.abs(out.solution - np.eye(p) / p).max() < 1e-8
        assert out.max_residual < 1e-10


def test_analytic_center_golden_sweep():
    out = barrier_sweep(golden_system(), feas_tol=1e-6)
    assert out.status is SolveStatus.FEASIBLE
    assert out.max_residual <= 1e-6
    assert out.min_eigenvalue > 0


def test_analytic_center_rejects_level_with_zero_targets():
    sys = system_of([np.diag([1.0, -1.0])], [0.0])
    out = analytic_center(sys, BarrierConfig(level=1.0))
    assert out.status is SolveStatus.ITERATION_LIMIT
    assert "unattainable" in out.message


def test_analytic_center_requires_positive_a0():
    sys = system_of([np.eye(2)], [1.0])
    with pytest.raises(ValueError, match="positive definite"):
        analytic_center(sys, BarrierConfig(a0=np.diag([1.0, -1.0])))


# ---------------------------------------------------------------------------
# project_affine


def test_project_affine_fixes_feasible_point():
    rng = np.random.default_rng(70)
    sys = random_system(rng, 3, 4)
    out = solve_exp(sys)
    moved = project_affine(out.solution, sys)
    assert np.abs(moved - out.solution).max() < 1e-8


def test_project_affine_reference_solution():
    sys = golden_system()
    projected = project_affine(X_REF.astype(complex), sys)
    assert np.abs(sys.residuals(projected)).max() < 1e-12
    assert np.linalg.eigvalsh(projected).min() > 0


def test_project_affine_scaled_identity():
    p = 3
    sys = system_of([np.eye(p)], [float(p)])
    out = project_affine(np.zeros((p, p)), sys)
    assert np.abs(out - np.eye(p)).max() < 1e-12


def test_project_affine_idempotent():
    rng = np.random.default_rng(71)
    sys = golden_system()
    x = random_hermitian(rng, 4)
    once = project_affine(x, sys)
    twice = project_affine(once, sys)
    assert np.abs(once - twice).max() < 1e-12
    assert np.abs(sys.residuals(once)).max() < 1e-12


def test_project_affine_requires_pruned_system():
    c = np.eye(2, dtype=complex)
    sys = system_of([c, c], [2.0, 2.0])
    with pytest.raises(ValueError, match="prune"):
        project_affine(np.zeros((2, 2)), sys)


# ---------------------------------------------------------------------------
# solve_diagonal


def test_solve_diagonal_scalar():
    # A = (2), B = (6): the single constraint 2 x = 6 has solution x = 3
    sys = system_of([np.array([[2.0]])], [6.0])
    out = solve_diagonal(sys)
    assert out.status is SolveStatus.FEASIBLE
    assert abs(out.solution[0, 0] - 3.0) < 1e-9


def test_solve_diagonal_planted():
    rng = np.random.default_rng(80)
    for _ in range(5):
        inst, _ = planted_diagonal_instance(rng, 2, 2, 2)
        sys = prune_dependent(instance_system(inst))
        out = solve_diagonal(sys)
        assert out.status is SolveStatus.FEASIBLE
        assert out.max_residual <= 1e-8
        x = out.solution
        assert np.abs(x - np.diag(np.diag(x))).max() == 0.0
        assert np.diag(x).real.min() > 0


def test_diagonal_part_of_full_solution_is_feasible():
    rng = np.random.default_rng(81)
    inst, _ = planted_diagonal_instance(rng, 2, 2, 2)
    sys = prune_dependent(instance_system(inst))
    full = solve_exp(sys)
    assert full.status is SolveStatus.FEASIBLE
    diag_part = np.diag(np.diag(full.solution))
    rep = verify(diag_part, sys, tol=1e-8)
    assert rep.max_residual <= 1e-8
    assert rep.positive_semidefinite


def test_solve_diagonal_rejects_non_diagonal_systems():
    sys = system_of([np.array([[1.0, 0.5], [0.5, 2.0]])], [1.0])
    with pytest.raises(ValueError, match="diagonal"):
        solve_diagonal(sys)


# ---------------------------------------------------------------------------
# verify


def test_verify_planted():
    rng = np.random.default_rng(90)
    inst, x_true = planted_instance(rng, 2, 2, 2)
    sys = instance_system(inst)
    rep = verify(x_true, sys, tol=1e-8)
    assert rep.max_residual <= 1e-10
    assert rep.positive_semidefinite


def test_verify_reference_solution_residual():
    sys = golden_system(pruned=False)
    rep = verify(X_REF.astype(complex), sys, tol=1e-8)
    # residual of the first constraint matches the printed approximation gap
    assert abs(rep.residuals[0] - (3.99978984 - 4.0)) < 1e-7
    assert rep.max_residual < 1e-3


def test_verify_rejects_negative_definite():
    sys = golden_system()
    rep = verify(-np.eye(4), sys, tol=1e-8)
    assert not rep.positive_semidefinite
