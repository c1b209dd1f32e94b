"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from cpinterp.choi import (
    ChoiMatrix,
    apply_choi,
    choi_to_kraus,
    kraus_to_choi,
    minimal_kraus_count,
)
from cpinterp.certify import (
    CertificateKind,
    FeasibilityStatus,
    feasibility_report,
    search_certificate,
    validate,
)
from cpinterp.constraints import (
    ConstraintSystem,
    ProblemInstance,
    instance_system,
    joint_support_reduce,
    embed_solution,
    prune_dependent,
)
from cpinterp.solvers import (
    ExpSolveConfig,
    SolveStatus,
    gradient,
    potential,
    project_affine,
    solve_barrier,
    solve_diagonal,
    solve_exp,
    verify,
)
from cpinterp import cli
from helpers import (
    A1,
    A2,
    B2,
    X_REF,
    golden_instance,
    golden_system,
    planted_diagonal_instance,
    planted_instance,
    random_channel_kraus,
    random_hermitian,
    random_kraus_set,
)

GOLDEN_INSTANCE = Path(__file__).parent.parent / "golden" / "qubit_pair.json"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number:2d}: {description}")
        raise
    print(f"PASS criterion {number:2d}: {description}")


def solve_and_project(sys_pruned, base=None, cfg=None):
    out = solve_exp(sys_pruned, cfg)
    assert out.status is SolveStatus.FEASIBLE
    x = project_affine(out.solution, sys_pruned)
    return x, verify(x, base if base is not None else sys_pruned, tol=1e-9)


def test_criterion_01_golden_reproduction():
    with criterion(1, "golden 2x2 instance reproduces the reference solution"):
        started = time.perf_counter()
        base = golden_system(pruned=False)
        pruned = prune_dependent(base)
        x, check = solve_and_project(pruned, base)
        elapsed = time.perf_counter() - started
        assert np.abs(x - X_REF).max() < 5e-3
        assert check.max_residual <= 1e-6
        assert check.min_eigenvalue > 0
        assert elapsed < 5.0


def test_criterion_02_interpolation_check():
    with criterion(2, "solved golden map reproduces the prescribed values"):
        pruned = golden_system()
        x, _ = solve_and_project(pruned)
        phi = ChoiMatrix(2, 2, x)
        assert abs(apply_choi(phi, A1)[0, 0] - 4.0) < 1e-6
        assert np.abs(apply_choi(phi, A2) - B2).max() < 1e-6


def test_criterion_03_gradient_matches_finite_differences():
    with criterion(3, "gradient matches central finite differences on 20 systems"):
        rng = np.random.default_rng(303)
        step = 1e-5
        for _ in range(20):
            p = int(rng.integers(2, 9))
            q = int(rng.integers(2, min(11, p * p)))
            mats = np.array([random_hermitian(rng, p, scale=0.6) for _ in range(q)])
            targets = rng.standard_normal(q)
            sys = ConstraintSystem(p, mats, targets)
            x = rng.uniform(-0.4, 0.4, size=q)
            g = gradient(sys, x)
            fd = np.zeros(q)
            for i in range(q):
                e = np.zeros(q)
                e[i] = step
                fd[i] = (potential(sys, x + e) - potential(sys, x - e)) / (2 * step)
            denom = max(1.0, float(np.abs(fd).max()))
            assert np.abs(g - fd).max() / denom <= 1e-6


def test_criterion_04_planted_feasibility():
    with criterion(4, "50 planted instances solve to 1e-8 with no certificate"):
        started = time.perf_counter()
        rng = np.random.default_rng(404)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            num_pairs = int(rng.integers(1, 5))
            inst, _ = planted_instance(rng, n, k, num_pairs)
            sys = prune_dependent(instance_system(inst))
            out = solve_exp(sys)
            assert out.status is SolveStatus.FEASIBLE
            assert out.max_residual <= 1e-8
            assert search_certificate(sys) is None
        assert time.perf_counter() - started < 60.0


def test_criterion_05_certified_infeasibility():
    with criterion(5, "negative-identity instance is certified infeasible"):
        inst = ProblemInstance(2, 2, [(np.eye(2), -np.eye(2))])
        sys = prune_dependent(instance_system(inst))
        rep = feasibility_report(sys)
        assert rep.status is FeasibilityStatus.CERTIFIED_INFEASIBLE
        assert rep.certificate is not None
        assert rep.certificate.kind is CertificateKind.EXCLUDES_PSD
        assert validate(rep.certificate, sys, tol=1e-9)


def test_criterion_06_choi_kraus_round_trip():
    with criterion(6, "100 random Kraus sets round trip at 1e-10"):
        rng = np.random.default_rng(606)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            count = int(rng.integers(1, n * k + 1))
            ks = random_kraus_set(rng, n, k, count)
            phi = kraus_to_choi(ks)
            ks2 = choi_to_kraus(phi)
            phi2 = kraus_to_choi(ks2)
            assert np.linalg.norm(phi2.matrix - phi.matrix) <= 1e-10
            # independent rank oracle: stacked vectorized elements
            stacked = np.array([v.ravel() for v in ks.elements])
            planted_rank = int(np.linalg.matrix_rank(stacked, tol=1e-10))
            assert minimal_kraus_count(phi) == planted_rank


def test_criterion_07_diagonal_reduction():
    with criterion(7, "diagonal instances solve diagonally; diag(X) stays feasible"):
        rng = np.random.default_rng(707)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            inst, _ = planted_diagonal_instance(rng, n, k, int(rng.integers(1, 4)))
            sys = prune_dependent(instance_system(inst))
            out = solve_diagonal(sys)
            assert out.status is SolveStatus.FEASIBLE
            x = out.solution
            assert np.abs(x - np.diag(np.diag(x))).max() == 0.0
            assert out.max_residual <= 1e-8
            assert out.min_eigenvalue > 0
            full = solve_exp(sys)
            assert full.status is SolveStatus.FEASIBLE
            diag_part = np.diag(np.diag(full.solution))
            assert verify(diag_part, sys, tol=1e-8).max_residual <= 1e-8


def test_criterion_08_barrier_cross_check():
    with criterion(8, "barrier solve verifies the golden instance"):
        out = solve_barrier(golden_system())
        assert out.status is SolveStatus.FEASIBLE
        assert out.max_residual <= 1e-6
        assert out.min_eigenvalue > 0


def test_criterion_09_trace_preserving_mode(tmp_path):
    with criterion(9, "planted channels solved trace-preserving to 1e-8"):
        rng = np.random.default_rng(909)
        for trial in range(5):
            n = int(rng.integers(2, 4))
            ks = random_channel_kraus(rng, n, int(rng.integers(1, n + 1)))
            x_channel = kraus_to_choi(ks)
            pairs = []
            for _ in range(2):
                a = random_hermitian(rng, n)
                pairs.append((a, apply_choi(x_channel, a)))
            inst = ProblemInstance(n, n, pairs, trace_preserving=True)
            base = instance_system(inst)
            pruned = prune_dependent(base)
            x, check = solve_and_project(pruned, base)
            assert check.max_residual <= 1e-8
            phi = ChoiMatrix(n, n, x)
            for i in range(n):
                for j in range(n):
                    unit = np.zeros((n, n), dtype=complex)
                    unit[i, j] = 1.0
                    image_trace = np.trace(apply_choi(phi, unit))
                    assert abs(image_trace - (1.0 if i == j else 0.0)) <= 1e-8


def test_criterion_10_support_reduction():
    with criterion(10, "planted-kernel instances reduce and solve identically"):
        rng = np.random.default_rng(1010)
        for _ in range(5):
            n, k = 4, 2
            d0 = int(rng.integers(1, 3))  # kernel dimension on the input side
            basis = np.linalg.qr(
                rng.standard_normal((n, n - d0)) + 1j * rng.standard_normal((n, n - d0))
            )[0]
            a_mats = [
                basis @ random_hermitian(rng, n - d0) @ basis.conj().T for _ in range(2)
            ]
            x_true = np.eye(n * k) + 0.5 * random_hermitian(rng, n * k)
            x_true = x_true @ x_true.conj().T
            pairs = [(a, apply_choi(ChoiMatrix(n, k, x_true), a)) for a in a_mats]
            inst = ProblemInstance(n, k, pairs)
            base = instance_system(inst)
            pruned = prune_dependent(base)

            reduced, reduction = joint_support_reduce(pruned, inst)
            d = d0 * k
            assert reduction.reduced_dim == n * k - d

            direct_x, direct_check = solve_and_project(pruned, base)
            red_out = solve_exp(reduced)
            assert red_out.status is SolveStatus.FEASIBLE
            lifted = embed_solution(red_out.solution, reduction)
            lifted = project_affine(lifted, pruned)
            lifted_check = verify(lifted, base, tol=1e-9)
            assert abs(lifted_check.max_residual - direct_check.max_residual) <= 1e-10
            assert np.abs(lifted_check.residuals - direct_check.residuals).max() <= 1e-10
