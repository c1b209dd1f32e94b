import numpy as np
import pytest

from cpinterp import certify
from cpinterp.choi import ChoiMatrix, KrausSet, apply_choi, kraus_to_choi, matrix_unit
from cpinterp.constraints import (
    ConstraintSystem,
    InconsistentSystemError,
    ProblemInstance,
    Provenance,
    RawConstraint,
    add_trace_preserving,
    assemble,
    embed_solution,
    hermitize,
    instance_system,
    is_diagonal_instance,
    joint_support_reduce,
    prune_dependent,
)
from helpers import A1, B1, golden_instance, random_complex, random_hermitian


def find_raw(raw, nu, m, l):
    for rc in raw:
        if rc.origin.kind == "value" and rc.origin.indices == (nu, m, l):
            return rc
    raise AssertionError(f"no raw constraint ({nu},{m},{l})")


# ---------------------------------------------------------------------------
# assemble


def test_assemble_reference_entries():
    raw = assemble(golden_instance())
    assert len(raw) == 2 * 4  # N * k**2
    rc = find_raw(raw, 1, 1, 1)
    expected = np.array([[2, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]])
    assert np.abs(rc.matrix - expected).max() == 0
    assert rc.target == 4.0
    rc = find_raw(raw, 1, 1, 2)
    e21 = matrix_unit(2, 1, 0)
    assert np.abs(rc.matrix - np.kron(A1.T, e21)).max() == 0
    assert rc.target == 0.0  # B1[1, 2]


def test_assemble_unital_condition():
    inst = ProblemInstance(3, 2, [(np.eye(3), np.eye(2))])
    raw = assemble(inst)
    for rc in raw:
        _, m, l = rc.origin.indices
        assert rc.target == (1.0 if m == l else 0.0)


# ---------------------------------------------------------------------------
# hermitize


def test_hermitize_passes_selfadjoint_through():
    c = np.diag([1.0, 2.0]).astype(complex)
    sys = hermitize([RawConstraint(c, 3.0 + 0j, Provenance("value", (1, 1, 1)))])
    assert sys.q == 1
    assert np.abs(sys.matrices[0] - c).max() == 0
    assert sys.targets[0] == 3.0
    assert sys.provenance[0].part == "whole"


def test_hermitize_golden_couples():
    sys = instance_system(golden_instance())
    couples = {(t.kind, t.indices) for t in sys.provenance}
    assert couples == {("value", (nu, m, l)) for nu in (1, 2) for (m, l) in ((1, 1), (1, 2), (2, 2))}
    # diagonal couples pass through, the off-diagonal couple splits in two
    assert sys.q == 8


def test_hermitize_sign_oracle():
    # mandatory: a random Hermitian X must satisfy the hermitized system exactly
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = random_hermitian(rng, 3)
        c = random_complex(rng, 3, 3)
        b = complex(np.trace(c @ x))
        sys = hermitize([RawConstraint(c, b, Provenance("value", (1, 1, 2)))])
        assert sys.q == 2
        res = sys.residuals(x)
        assert np.abs(res).max() < 1e-12 * (1 + abs(b))


def test_hermitize_keeps_both_parts_for_nonhermitian_data():
    rng = np.random.default_rng(18)
    inst = ProblemInstance(
        2, 2, [(random_complex(rng, 2, 2), random_complex(rng, 2, 2))]
    )
    sys = hermitize(assemble(inst))
    # no deduplication: every couple contributes two real constraints
    assert sys.q == 8
    couples = {t.indices for t in sys.provenance}
    assert len(couples) == 4


def test_hermitize_rejects_selfadjoint_with_complex_target():
    c = np.eye(2, dtype=complex)
    with pytest.raises(InconsistentSystemError) as err:
        hermitize([RawConstraint(c, 1.0 + 0.5j, Provenance("value", (1, 1, 1)))])
    exc = err.value
    # the carried certificate is valid: zero combination with negative target
    combo = exc.system.aggregate(exc.certificate_coefficients)
    assert np.abs(combo).max() < 1e-12
    assert exc.certificate_coefficients @ exc.system.targets < 0


# ---------------------------------------------------------------------------
# add_trace_preserving


def test_trace_preserving_scalar():
    inst = ProblemInstance(1, 1, [(np.array([[1.0]]), np.array([[1.0]]))])
    sys = add_trace_preserving(hermitize(assemble(inst)), 1, 1)
    trace_rows = [i for i, t in enumerate(sys.provenance) if t.kind == "trace"]
    assert len(trace_rows) == 1
    i = trace_rows[0]
    assert np.abs(sys.matrices[i] - np.eye(1)).max() == 0
    assert sys.targets[i] == 1.0


def test_trace_preserving_raw_structure():
    inst = ProblemInstance(2, 2, [(np.eye(2), np.eye(2))])
    sys = add_trace_preserving(hermitize(assemble(inst)), 2, 2)
    trace_rows = [i for i, t in enumerate(sys.provenance) if t.kind == "trace"]
    assert len(trace_rows) == 4  # n**2 after deduplication
    # diagonal conditions: E_ii^T kron I with target 1
    for i in trace_rows:
        tag = sys.provenance[i]
        if tag.part == "whole":
            ii = tag.indices[0] - 1
            expected = np.kron(matrix_unit(2, ii, ii), np.eye(2))
            assert np.abs(sys.matrices[i] - expected).max() == 0
            assert sys.targets[i] == 1.0
        else:
            assert sys.targets[i] == 0.0


def test_identity_choi_satisfies_trace_preserving():
    phi = kraus_to_choi(KrausSet(2, 2, [np.eye(2)])).matrix
    inst = ProblemInstance(2, 2, [(np.eye(2), np.eye(2))])
    sys = add_trace_preserving(hermitize(assemble(inst)), 2, 2)
    trace_rows = [i for i, t in enumerate(sys.provenance) if t.kind == "trace"]
    res = sys.residuals(phi)
    assert np.abs(res[trace_rows]).max() < 1e-14


# ---------------------------------------------------------------------------
# prune_dependent


def base_system(mats, targets):
    mats = np.asarray(mats, dtype=complex)
    return ConstraintSystem(mats.shape[1], mats, np.asarray(targets, dtype=float))


def test_prune_removes_duplicates():
    c = np.diag([1.0, 2.0]).astype(complex)
    sys = base_system([c, c], [1.0, 1.0])
    pruned = prune_dependent(sys)
    assert pruned.q == 1


def test_prune_flags_contradictory_duplicates():
    c = np.diag([1.0, 2.0]).astype(complex)
    sys = base_system([c, c], [1.0, 2.0])
    with pytest.raises(InconsistentSystemError) as err:
        prune_dependent(sys)
    exc = err.value
    combo = exc.system.aggregate(exc.certificate_coefficients)
    assert np.abs(combo).max() < 1e-10
    assert exc.certificate_coefficients @ exc.system.targets < 0


def test_prune_discards_consistent_combination():
    rng = np.random.default_rng(23)
    c1, c2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
    sys = base_system([c1, c2, c1 + c2], [1.0, 2.0, 3.0])
    pruned = prune_dependent(sys)
    assert pruned.q == 2


def test_prune_preserves_solution_set():
    rng = np.random.default_rng(24)
    x = random_hermitian(rng, 3)
    mats = [random_hermitian(rng, 3) for _ in range(3)]
    mats.append(0.5 * mats[0] - 2.0 * mats[2])
    targets = [np.trace(c @ x).real for c in mats]
    sys = base_system(mats, targets)
    pruned = prune_dependent(sys)
    assert pruned.q == 3
    assert np.abs(pruned.residuals(x)).max() < 1e-12
    # and any solution of the pruned system solves the full one
    y = x + 0.1 * random_hermitian(rng, 3)
    full_res = np.abs(sys.residuals(y)).max()
    kept_res = np.abs(pruned.residuals(y)).max()
    assert full_res <= 3 * kept_res + 1e-12


def planted_dependent_system(rng, p, independent, dependent):
    """Random constraints with real combinations of earlier rows mixed in.

    Targets come from a planted Hermitian X, so the system is consistent.
    Returns the system and the positions of the planted dependent rows.
    """
    mats = [random_hermitian(rng, p) for _ in range(independent)]
    positions = []
    for _ in range(dependent):
        at = int(rng.integers(1, len(mats) + 1))
        coeffs = rng.standard_normal(at) * (rng.uniform(size=at) < 0.5)
        mats.insert(at, np.tensordot(coeffs, np.array(mats[:at]), axes=1))
        positions = [i + (i >= at) for i in positions] + [at]
    x = random_hermitian(rng, p)
    return base_system(mats, [np.trace(c @ x).real for c in mats]), sorted(positions)


def reference_kept_rows(sys):
    """Rows that raise the rank of the rows kept before them (real flattening)."""
    flat = sys.matrices.reshape(sys.q, -1)
    vecs = np.concatenate([flat.real, flat.imag], axis=1)
    kept = []
    for i in range(sys.q):
        if np.linalg.matrix_rank(vecs[kept + [i]]) > len(kept):
            kept.append(i)
    return kept


def test_prune_keeps_the_rank_increasing_rows():
    rng = np.random.default_rng(25)
    for p, independent, dependent in [(2, 3, 2), (3, 6, 4), (4, 10, 6), (4, 16, 5)]:
        sys, positions = planted_dependent_system(rng, p, independent, dependent)
        kept = reference_kept_rows(sys)
        assert kept == [i for i in range(sys.q) if i not in positions]
        pruned = prune_dependent(sys)
        assert [t.indices[0] - 1 for t in pruned.provenance] == kept


def test_prune_certificate_validates_on_a_perturbed_target():
    rng = np.random.default_rng(26)
    for p, independent, dependent in [(2, 3, 2), (3, 6, 4), (4, 10, 6)]:
        sys, _ = planted_dependent_system(rng, p, independent, dependent)
        dropped = sorted(set(range(sys.q)) - set(reference_kept_rows(sys)))
        targets = sys.targets.copy()
        targets[dropped[-1]] += 1.0
        with pytest.raises(InconsistentSystemError) as err:
            prune_dependent(base_system(sys.matrices, targets))
        exc = err.value
        cert = certify.Certificate(
            exc.certificate_coefficients,
            certify.CertificateKind.EXCLUDES_PSD,
            objective=float(exc.certificate_coefficients @ exc.system.targets),
            min_eigenvalue=0.0,
        )
        assert certify.validate(cert, exc.system)


# ---------------------------------------------------------------------------
# joint_support_reduce / embed_solution


def test_reduce_full_rank_system_is_returned_uncompressed():
    rng = np.random.default_rng(32)
    sys = base_system([random_hermitian(rng, 4) for _ in range(5)], rng.standard_normal(5))
    reduced, red = joint_support_reduce(sys)
    assert np.array_equal(red.basis, np.eye(4))
    x = random_hermitian(rng, 4)
    assert np.array_equal(reduced.residuals(x), sys.residuals(x))


def test_reduce_to_first_coordinate():
    c = np.zeros((2, 2), dtype=complex)
    c[0, 0] = 1.0
    sys = base_system([c], [1.0])
    reduced, red = joint_support_reduce(sys)
    assert red.reduced_dim == 1
    assert reduced.p == 1


def test_reduce_without_kernel_is_identity():
    sys = base_system([np.eye(3)], [1.0])
    reduced, red = joint_support_reduce(sys)
    assert red.reduced_dim == 3
    assert np.abs(red.basis - np.eye(3)).max() == 0
    assert np.abs(reduced.matrices - sys.matrices).max() == 0


def test_reduce_block_system_and_embed():
    rng = np.random.default_rng(31)
    mats = []
    for _ in range(3):
        h = np.zeros((5, 5), dtype=complex)
        h[:3, :3] = random_hermitian(rng, 3)
        mats.append(h)
    x_red_feasible = random_hermitian(rng, 3)
    x_red_feasible = x_red_feasible @ x_red_feasible.conj().T + np.eye(3)
    targets = [np.trace(m[:3, :3] @ x_red_feasible).real for m in mats]
    sys = base_system(mats, targets)
    reduced, red = joint_support_reduce(sys)
    assert red.reduced_dim == 3
    # support projector leaves every constraint unchanged
    proj = red.basis @ red.basis.conj().T
    for m in mats:
        assert np.abs(proj @ m @ proj - m).max() < 1e-12
    # a feasible reduced solution embeds with identical residuals
    w = red.basis
    xr = w.conj().T @ (np.pad(x_red_feasible, ((0, 2), (0, 2)))) @ w
    full = embed_solution(xr, red)
    assert np.abs(sys.residuals(full) - reduced.residuals(xr)).max() < 1e-12


def test_embed_identity_and_projector():
    sys = base_system([np.eye(2)], [1.0])
    _, red = joint_support_reduce(sys)
    x = np.array([[1.0, 2.0], [2.0, 5.0]], dtype=complex)
    assert np.abs(embed_solution(x, red) - x).max() == 0
    c = np.zeros((3, 3), dtype=complex)
    c[0, 0] = 1.0
    c[1, 1] = 1.0
    _, red2 = joint_support_reduce(base_system([c], [1.0]))
    proj = embed_solution(np.eye(red2.reduced_dim), red2)
    assert np.abs(proj - np.diag([1.0, 1.0, 0.0])).max() < 1e-12


def test_reduce_keeps_diagonal_systems_diagonal():
    sys = base_system([np.diag([1.0, 0.0, 2.0]), np.diag([0.0, 0.0, 1.0])], [1.0, 1.0])
    reduced, red = joint_support_reduce(sys)
    assert red.reduced_dim == 2
    for m in reduced.matrices:
        assert np.abs(m - np.diag(np.diag(m))).max() == 0


# ---------------------------------------------------------------------------
# is_diagonal_instance


def test_is_diagonal_instance():
    diag_inst = ProblemInstance(2, 2, [(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))])
    assert is_diagonal_instance(diag_inst)
    assert not is_diagonal_instance(golden_instance())
    # commuting but non-diagonal data must be pre-diagonalized by the caller
    h = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert not is_diagonal_instance(ProblemInstance(2, 2, [(h, np.eye(2))]))


# ---------------------------------------------------------------------------
# equivalence with the map-level conditions


def test_system_equivalent_to_interpolation_conditions():
    rng = np.random.default_rng(41)
    n = k = 2
    for _ in range(5):
        x = random_hermitian(rng, n * k)
        a_mats = [random_hermitian(rng, n) for _ in range(2)]
        pairs = [(a, apply_choi(ChoiMatrix(n, k, x), a)) for a in a_mats]
        inst = ProblemInstance(n, k, pairs)
        sys = instance_system(inst)
        # X satisfies the hermitized system by construction
        assert np.abs(sys.residuals(x)).max() < 1e-10
        # and a perturbed Y violates it exactly when the map values move
        y = x + random_hermitian(rng, n * k, scale=0.1)
        res = np.abs(sys.residuals(y)).max()
        image_gap = max(
            np.abs(apply_choi(ChoiMatrix(n, k, y), a) - b).max() for a, b in pairs
        )
        assert (res < 1e-10) == (image_gap < 1e-10)
        assert res <= 2 * image_gap + 1e-12 and image_gap <= res + 1e-12


def test_raw_count_and_hermitized_bound():
    rng = np.random.default_rng(42)
    for _ in range(3):
        n, k, nper = 2, 3, 2
        pairs = [
            (random_hermitian(rng, n), random_hermitian(rng, k)) for _ in range(nper)
        ]
        inst = ProblemInstance(n, k, pairs)
        raw = assemble(inst)
        assert len(raw) == nper * k * k
        sys = hermitize(raw)
        assert sys.q <= nper * k * k
