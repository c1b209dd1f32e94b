import numpy as np
import pytest

from cpinterp import linalg
from cpinterp.constraints import ConstraintSystem, Provenance, instance_system
from helpers import X_REF, golden_instance, random_hermitian


def unit(p, i, j):
    m = np.zeros((p, p), dtype=complex)
    m[i, j] = 1.0
    return m


# ---------------------------------------------------------------------------
# the Kronecker layout of the constraint rows


def test_kron_reproduces_reference_constraint_matrices():
    # the golden rows A1^T kron E_11 and A1^T kron (E_21 + E_12), read back
    # off the Kronecker blocks by aggregate, which is exact on a unit vector
    sys = instance_system(golden_instance())
    expected_11 = np.array(
        [[2, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]], dtype=complex
    )
    expected_21 = np.array(
        [[0, 0, 0, 0], [2, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0]], dtype=complex
    )

    def row(*label):
        return sys.aggregate(np.eye(sys.q)[sys.provenance.index(Provenance(*label))])

    assert np.abs(row("value", (1, 1, 1)) - expected_11).max() == 0
    assert np.abs(row("value", (1, 1, 2), "re") - (expected_21 + expected_21.T)).max() == 0


# ---------------------------------------------------------------------------
# herm_eig


def test_herm_eig_diagonal():
    w, _ = linalg.herm_eig(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])


def test_herm_eig_exchange_matrix():
    w, _ = linalg.herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])


def test_herm_eig_reconstruction():
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 6)
    w, u = linalg.herm_eig(h)
    rebuilt = (u * w) @ u.conj().T
    assert np.linalg.norm(rebuilt - h) <= 1e-12 * (1 + np.linalg.norm(h))
    assert np.linalg.norm(u.conj().T @ u - np.eye(6)) <= 1e-12 * 7


def test_herm_eig_spectrum_unitary_invariance():
    rng = np.random.default_rng(12)
    h = random_hermitian(rng, 5)
    g = random_hermitian(rng, 5)
    _, u = linalg.herm_eig(g)  # unitary from an unrelated matrix
    w1, _ = linalg.herm_eig(h)
    w2, _ = linalg.herm_eig(u @ h @ u.conj().T)
    assert np.abs(w1 - w2).max() < 1e-10


# ---------------------------------------------------------------------------
# the trace pairing Re tr(C X) of the constraint rows (ConstraintSystem.traces)


def trace_pair(a, b):
    a = np.asarray(a, dtype=complex)
    return float(ConstraintSystem(a.shape[0], a[None], [0.0]).traces(b)[0])


def test_trace_pair_identity():
    assert trace_pair(np.eye(4), np.eye(4)) == 4.0


def test_trace_pair_reference_value():
    c111 = np.array([[2, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]], dtype=complex)
    assert abs(trace_pair(c111, X_REF.astype(complex)) - 3.99978984) < 1e-7


def test_trace_pair_matches_entrywise_sum():
    rng = np.random.default_rng(31)
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)
    direct = sum(a[i, j] * b[j, i] for i in range(4) for j in range(4))
    assert abs(trace_pair(a, b) - direct.real) < 1e-12


def test_trace_pair_is_real_inner_product():
    rng = np.random.default_rng(32)
    a, b, c = (random_hermitian(rng, 3) for _ in range(3))
    assert abs(trace_pair(a, b) - trace_pair(b, a)) < 1e-12
    lhs = trace_pair(2.0 * a + 0.5 * b, c)
    rhs = 2.0 * trace_pair(a, c) + 0.5 * trace_pair(b, c)
    assert abs(lhs - rhs) < 1e-12
    assert trace_pair(a, a) >= 0.0


def test_trace_pair_dimension_mismatch():
    with pytest.raises(ValueError):
        trace_pair(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# min_eigenvalue


def test_min_eigenvalue_simple():
    assert linalg.min_eigenvalue(np.eye(3)) == pytest.approx(1.0)
    assert linalg.min_eigenvalue(np.diag([-2.0, 5.0])) == pytest.approx(-2.0)


def test_min_eigenvalue_reference_solution_is_positive():
    assert linalg.min_eigenvalue(X_REF.astype(complex)) > 0


# ---------------------------------------------------------------------------
# the common kernel of a family (joint_support's second basis)


def common_nullspace(hs):
    return linalg.joint_support(np.vstack(hs))[1]


def test_common_nullspace_single_unit():
    basis = common_nullspace([unit(2, 0, 0)])
    assert basis.shape == (2, 1)
    assert abs(abs(basis[1, 0]) - 1.0) < 1e-12


def test_common_nullspace_identity_is_empty():
    basis = common_nullspace([np.eye(2)])
    assert basis.shape == (2, 0)


def test_common_nullspace_two_units():
    basis = common_nullspace([unit(3, 0, 0), unit(3, 1, 1)])
    assert basis.shape == (3, 1)
    for c in (unit(3, 0, 0), unit(3, 1, 1)):
        assert np.linalg.norm(c @ basis) < 1e-12


def test_common_nullspace_membership_property():
    rng = np.random.default_rng(41)
    # constraints supported on the first 3 of 5 coordinates
    mats = []
    for _ in range(4):
        h = np.zeros((5, 5), dtype=complex)
        h[:3, :3] = random_hermitian(rng, 3)
        mats.append(h)
    support, basis = linalg.joint_support(np.vstack(mats))
    assert basis.shape[1] == 2
    for c in mats:
        assert np.linalg.norm(c @ basis) <= 1e-9 * (1 + np.linalg.norm(c))
    # the two bases together form a unitary
    both = np.hstack([support, basis])
    assert np.abs(both.conj().T @ both - np.eye(5)).max() < 1e-12


# ---------------------------------------------------------------------------
# hermitian_coordinates


def random_hermitian_stack(rng, m, p):
    return np.array([random_hermitian(rng, p) for _ in range(m)])


@pytest.mark.parametrize("p", [1, 2, 5])
def test_hermitian_coordinates_give_the_trace_pairing(p):
    rng = np.random.default_rng(40 + p)
    stack = random_hermitian_stack(rng, 6, p)
    coords = linalg.hermitian_coordinates(stack)
    assert coords.shape == (6, p * p)
    oracle = np.einsum("iab,jba->ij", stack, stack).real  # Re tr(C_i C_j)
    assert np.abs(coords @ coords.T - oracle).max() <= 1e-13 * np.abs(oracle).max()


def test_hermitian_coordinates_of_an_empty_stack():
    coords = linalg.hermitian_coordinates(np.zeros((0, 3, 3), dtype=complex))
    assert coords.shape == (0, 9)
    assert (coords @ coords.T).shape == (0, 0)


@pytest.mark.parametrize("p", [1, 2, 5])
def test_weighted_hermitian_coordinates(p):
    rng = np.random.default_rng(50 + p)
    stack = random_hermitian_stack(rng, 5, p)
    phi = rng.uniform(0.1, 2.0, size=(p, p))
    phi = phi + phi.T
    coords = linalg.hermitian_coordinates(stack, phi)
    oracle = np.einsum("ab,iab,jab->ij", phi, stack, stack.conj()).real
    assert np.abs(coords @ coords.T - oracle).max() <= 1e-13 * np.abs(oracle).max()
