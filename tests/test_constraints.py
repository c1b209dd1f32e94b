import numpy as np
import pytest

from cpinterp import certify
from cpinterp.linalg import hermitian_coordinates, hermitian_part
from cpinterp.choi import ChoiMatrix, KrausSet, apply_choi, kraus_to_choi, matrix_unit
from cpinterp.constraints import (
    DEPENDENCE_RTOL,
    STRUCTURE_RTOL,
    TARGET_GAP_RTOL,
    ConstraintSystem,
    InconsistentSystemError,
    ProblemInstance,
    Provenance,
    embed_solution,
    instance_system,
    is_diagonal_instance,
    joint_support_reduce,
    prune_dependent,
)
from cpinterp.solvers import SolveStatus, solve_diagonal
from helpers import (
    A1,
    B1,
    golden_instance,
    planted_diagonal_instance,
    planted_instance,
    random_channel_kraus,
    random_complex,
    random_hermitian,
    reference_assemble,
    reference_instance_system,
    reference_stack,
    vv_face_instance,
    with_common_kernel,
)


def find_raw(raw, nu, m, l):
    for rc in raw:
        if rc.origin.kind == "value" and rc.origin.indices == (nu, m, l):
            return rc
    raise AssertionError(f"no raw constraint ({nu},{m},{l})")


# ---------------------------------------------------------------------------
# the raw constraints of the reference build


def test_assemble_reference_entries():
    raw = reference_assemble(golden_instance())
    assert len(raw) == 2 * 4  # N * k**2
    rc = find_raw(raw, 1, 1, 1)
    expected = np.array([[2, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]])
    assert np.abs(rc.matrix - expected).max() == 0
    assert rc.target == 4.0
    rc = find_raw(raw, 1, 1, 2)
    e21 = matrix_unit(2, 1, 0)
    assert np.abs(rc.matrix - np.kron(A1.T, e21)).max() == 0
    assert rc.target == 0.0  # B1[1, 2]
    # the built system keeps the selfadjoint raw row whole
    sys = instance_system(golden_instance())
    i = sys.provenance.index(Provenance("value", (1, 1, 1)))
    assert np.abs(reference_stack(sys)[i] - expected).max() == 0
    assert sys.targets[i] == 4.0


def test_assemble_unital_condition():
    inst = ProblemInstance(3, 2, [(np.eye(3), np.eye(2))])
    raw = reference_assemble(inst)
    for rc in raw:
        _, m, l = rc.origin.indices
        assert rc.target == (1.0 if m == l else 0.0)


# ---------------------------------------------------------------------------
# Hermitian halves and the basis of Herm(k) in instance_system


def test_hermitize_passes_selfadjoint_through():
    # k = 1: the one raw row is A^T itself, here selfadjoint with a real target
    c = np.diag([1.0, 2.0]).astype(complex)
    sys = instance_system(ProblemInstance(2, 1, [(c, np.array([[3.0]]))]))
    assert sys.q == 1
    assert np.abs(reference_stack(sys)[0] - c).max() == 0
    assert sys.targets[0] == 3.0
    assert sys.provenance[0].part == "whole"


def test_hermitize_golden_couples():
    sys = instance_system(golden_instance())
    couples = {(t.kind, t.indices) for t in sys.provenance}
    assert couples == {("value", (nu, m, l)) for nu in (1, 2) for (m, l) in ((1, 1), (1, 2), (2, 2))}
    # diagonal couples pass through, the off-diagonal couple splits in two
    assert sys.q == 8


def test_hermitize_sign_oracle():
    # mandatory: a random Hermitian X must satisfy the system exactly
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = random_hermitian(rng, 3)
        a = random_complex(rng, 3, 3)
        # k = 1: the one raw row is A^T, not selfadjoint, with target tr(A^T X)
        b = complex(np.trace(a.T @ x))
        sys = instance_system(ProblemInstance(3, 1, [(a, np.array([[b]]))]))
        assert sys.q == 2
        res = sys.residuals(x)
        assert np.abs(res).max() < 1e-12 * (1 + abs(b))


def test_hermitize_keeps_both_parts_for_nonhermitian_data():
    rng = np.random.default_rng(18)
    inst = ProblemInstance(
        2, 2, [(random_complex(rng, 2, 2), random_complex(rng, 2, 2))]
    )
    sys = instance_system(inst)
    # both Hermitian halves of the pair give a row per basis element of Herm(2)
    assert [str(t) for t in sys.provenance] == [
        f"{kind}(1, {m}, {l}){part}"
        for kind in ("value", "value-i")
        for m, l, part in ((1, 1, ""), (1, 2, ".re"), (1, 2, ".im"), (2, 2, ""))
    ]


def test_hermitize_rejects_selfadjoint_with_complex_target():
    inst = ProblemInstance(2, 1, [(np.eye(2), np.array([[1.0 + 0.5j]]))])
    with pytest.raises(InconsistentSystemError) as err:
        instance_system(inst)
    exc = err.value
    # the carried certificate is valid: zero combination with negative target
    combo = exc.system.aggregate(exc.certificate_coefficients)
    assert np.abs(combo).max() < 1e-12
    assert exc.certificate_coefficients @ exc.system.targets < 0


def test_the_anti_hermitian_round_off_of_large_data_is_no_contradiction():
    # B = phi(A) is Hermitian only up to round-off, which grows with the data:
    # at scale 1e8 its anti-Hermitian part is far above an absolute 1e-12
    inst, x_true = planted_instance(np.random.default_rng(19), 3, 3, 4)
    scaled = ProblemInstance(3, 3, [(1e8 * a, 1e8 * b) for a, b in inst.pairs])
    anti = max(np.abs(b - b.conj().T).max() / 2 for _, b in scaled.pairs)
    assert 1e-12 < anti < 1e-6
    sys = instance_system(scaled)
    assert sys.q == 4 * 9
    assert {t.kind for t in sys.provenance} == {"value"}
    assert np.abs(sys.residuals(x_true)).max() < 1e-12 * np.abs(sys.targets).max()


def test_a_complex_diagonal_of_b_contradicts_on_a_value_i_row():
    rng = np.random.default_rng(20)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3) + 0.5j * np.diag([0.0, 1.0, 2.0])
    with pytest.raises(InconsistentSystemError) as err:
        instance_system(ProblemInstance(2, 3, [(a, b)]))
    exc = err.value
    # the half (A - A^*)/2i is zero, and its B-part is diag(0, 0.5, 1)
    assert exc.offending == Provenance("value-i", (1, 3, 3), "whole")
    assert exc.system.targets[exc.system.provenance.index(exc.offending)] == 1.0
    cert = certify.Certificate(exc.certificate_coefficients, certify.CertificateKind.EXCLUDES_PSD)
    assert certify.validate(cert, exc.system)


# ---------------------------------------------------------------------------
# the array-shaped build against the row-by-row reference


def assert_same_system(new, ref):
    """Equal matrices and targets bit for bit (zeros of either sign count as
    equal), and equal provenance."""
    assert new.p == ref.p
    assert (reference_stack(new) + 0.0).tobytes() == (reference_stack(ref) + 0.0).tobytes()
    assert (new.targets + 0.0).tobytes() == (ref.targets + 0.0).tobytes()
    assert new.provenance == ref.provenance


def build_cases():
    rng = np.random.default_rng(43)
    for n, k, pairs in [(1, 1, 1), (2, 2, 2), (2, 3, 3), (3, 2, 4), (3, 3, 2)]:
        yield planted_instance(rng, n, k, pairs)[0]
        yield planted_instance(rng, n, k, pairs, hermitian_data=False)[0]
        yield planted_diagonal_instance(rng, n, k, pairs)[0]
    # a pair with A = 0: every part of its rows vanishes, B = 0 keeps it consistent
    for hermitian_data in (True, False):
        inst = planted_instance(rng, 2, 3, 2, hermitian_data=hermitian_data)[0]
        yield ProblemInstance(2, 3, inst.pairs + [(np.zeros((2, 2)), np.zeros((3, 3)))])


@pytest.mark.parametrize("trace_preserving", [False, True])
def test_build_matches_the_reference(trace_preserving):
    for inst in build_cases():
        ref = reference_instance_system(inst, trace_preserving)
        assert_same_system(instance_system(inst, trace_preserving=trace_preserving), ref)


def contradiction_cases():
    rng = np.random.default_rng(44)
    # Hermitian A with a complex diagonal entry of B: selfadjoint rows, complex targets
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3) + 0.5j * np.diag([0.0, 1.0, 2.0])
    yield ProblemInstance(2, 3, [(a, b)])
    # A = 0 with B != 0: vanishing parts with nonzero targets
    inst = planted_instance(rng, 2, 2, 2, hermitian_data=False)[0]
    yield ProblemInstance(2, 2, inst.pairs + [(np.zeros((2, 2)), random_complex(rng, 2, 2))])
    yield ProblemInstance(2, 2, inst.pairs + [(np.zeros((2, 2)), np.diag([1.0, 0.0]))])


@pytest.mark.parametrize("trace_preserving", [False, True])
def test_build_contradictions_match_the_reference(trace_preserving):
    for inst in contradiction_cases():
        with pytest.raises(InconsistentSystemError) as ref:
            reference_instance_system(inst, trace_preserving)
        with pytest.raises(InconsistentSystemError) as err:
            instance_system(inst, trace_preserving=trace_preserving)
        assert str(err.value) == str(ref.value)
        assert err.value.offending == ref.value.offending
        assert_same_system(err.value.system, ref.value.system)
        assert np.array_equal(
            err.value.certificate_coefficients, ref.value.certificate_coefficients
        )


# ---------------------------------------------------------------------------
# trace preservation


def test_trace_preserving_scalar():
    inst = ProblemInstance(1, 1, [(np.array([[1.0]]), np.array([[1.0]]))])
    sys = instance_system(inst, trace_preserving=True)
    trace_rows = [i for i, t in enumerate(sys.provenance) if t.kind == "trace"]
    assert len(trace_rows) == 1
    i = trace_rows[0]
    assert np.abs(reference_stack(sys)[i] - np.eye(1)).max() == 0
    assert sys.targets[i] == 1.0


def test_trace_preserving_raw_structure():
    inst = ProblemInstance(2, 2, [(np.eye(2), np.eye(2))])
    sys = instance_system(inst, trace_preserving=True)
    trace_rows = [i for i, t in enumerate(sys.provenance) if t.kind == "trace"]
    assert len(trace_rows) == 4  # n**2 after deduplication
    # diagonal conditions: E_ii^T kron I with target 1
    for i in trace_rows:
        tag = sys.provenance[i]
        if tag.part == "whole":
            ii = tag.indices[0] - 1
            expected = np.kron(matrix_unit(2, ii, ii), np.eye(2))
            assert np.abs(reference_stack(sys)[i] - expected).max() == 0
            assert sys.targets[i] == 1.0
        else:
            assert sys.targets[i] == 0.0


def test_identity_choi_satisfies_trace_preserving():
    phi = kraus_to_choi(KrausSet(2, 2, [np.eye(2)])).matrix
    inst = ProblemInstance(2, 2, [(np.eye(2), np.eye(2))])
    sys = instance_system(inst, trace_preserving=True)
    trace_rows = [i for i, t in enumerate(sys.provenance) if t.kind == "trace"]
    res = sys.residuals(phi)
    assert np.abs(res[trace_rows]).max() < 1e-14


# ---------------------------------------------------------------------------
# prune_dependent


def base_system(mats, targets):
    mats = np.asarray(mats, dtype=complex)
    return ConstraintSystem(mats.shape[1], mats, np.asarray(targets, dtype=float))


def test_a_row_that_is_not_hermitian_raises():
    c = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match=r"value\(2\) is not Hermitian"):
        base_system([np.eye(2), c], [1.0, 1.0])
    with pytest.raises(ValueError, match="not Hermitian"):
        base_system([np.diag([1.0, 1.0 + 1e-300j])], [1.0])


def test_prune_removes_duplicates():
    c = np.diag([1.0, 2.0]).astype(complex)
    sys = base_system([c, c], [1.0, 1.0])
    pruned = prune_dependent(sys)
    assert pruned.q == 1


def test_prune_returns_a_system_that_keeps_every_row_as_it_is():
    rng = np.random.default_rng(24)
    sys = base_system([random_hermitian(rng, 3) for _ in range(4)], [1.0, 2.0, 3.0, 4.0])
    assert prune_dependent(sys) is sys


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


def real_vectors(sys):
    flat = reference_stack(sys).reshape(sys.q, -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


def reference_kept_rows(sys):
    """Rows that raise the rank of the rows before them (real flattening).

    Row i is kept when rank(rows < i + 1) > rank(rows < i).  Prefix ranks are
    found by bisection: a stretch whose rank rises by its length is all kept,
    one whose rank does not rise is all dropped.
    """
    vecs = real_vectors(sys)

    def rank(stop):
        return int(np.linalg.matrix_rank(vecs[:stop])) if stop else 0

    def kept_in(lo, hi, rank_lo, rank_hi):
        if rank_hi - rank_lo in (0, hi - lo):
            return list(range(lo, hi)) if rank_hi > rank_lo else []
        mid = (lo + hi) // 2
        rank_mid = rank(mid)
        return kept_in(lo, mid, rank_lo, rank_mid) + kept_in(mid, hi, rank_mid, rank_hi)

    return kept_in(0, sys.q, 0, rank(sys.q))


def reference_offending(sys):
    """Provenance of the first dependent row whose target misses the
    least-squares combination of the kept rows before it by more than prune's
    target cut, or None."""
    vecs = real_vectors(sys)
    kept = reference_kept_rows(sys)
    b_cut = TARGET_GAP_RTOL * (1.0 + np.max(np.abs(sys.targets)))
    for i in sorted(set(range(sys.q)) - set(kept)):
        before = [j for j in kept if j < i]
        coeffs = np.linalg.lstsq(vecs[before].T, vecs[i], rcond=None)[0]
        if abs(sys.targets[i] - coeffs @ sys.targets[before]) > b_cut:
            return sys.provenance[i]
    return None


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
            prune_dependent(base_system(reference_stack(sys), targets))
        exc = err.value
        cert = certify.Certificate(exc.certificate_coefficients, certify.CertificateKind.EXCLUDES_PSD)
        assert certify.validate(cert, exc.system)


def test_prune_past_the_rank_cap_matches_the_reference():
    # n = k = 2: the 12 Hermitian halves of 6 complex pairs and trace
    # preservation give q = 52 rows in a space of real dimension p^2 = 16,
    # more rows than R has pivots
    rng = np.random.default_rng(27)
    a_mats = [random_complex(rng, 2, 2) for _ in range(6)]
    channel = kraus_to_choi(random_channel_kraus(rng, 2, 2))
    for x, consistent in [(channel, True), (ChoiMatrix(2, 2, 2.0 * channel.matrix), False)]:
        inst = ProblemInstance(2, 2, [(a, apply_choi(x, a)) for a in a_mats])
        sys = instance_system(inst, trace_preserving=True)
        assert sys.q == 52
        kept = reference_kept_rows(sys)
        offending = reference_offending(sys)
        assert (offending is None) == consistent
        if consistent:
            assert [sys.provenance.index(t) for t in prune_dependent(sys).provenance] == kept
        else:
            assert offending.kind == "trace"
            with pytest.raises(InconsistentSystemError) as err:
                prune_dependent(sys)
            assert err.value.offending == offending


def test_prune_keeps_the_reference_rows_at_p36():
    rng = np.random.default_rng(28)
    inst, _ = planted_instance(rng, 6, 6, 12)
    (a0, b0), (a3, b3) = inst.pairs[0], inst.pairs[3]
    pairs = inst.pairs[:6] + [(a0 - 2.0 * a3, b0 - 2.0 * b3)] + inst.pairs[6:]
    sys = instance_system(ProblemInstance(6, 6, pairs))
    kept = reference_kept_rows(sys)
    assert len(kept) == 12 * 36
    assert [sys.provenance.index(t) for t in prune_dependent(sys).provenance] == kept


def test_prune_keeps_unit_rows_beside_a_large_scale_pair():
    # the consistent pair 1e6 (A1 + A2) -> 1e6 (B1 + B2) is dependent; the
    # rows before it are not, whatever their scale against it
    inst, _ = planted_instance(np.random.default_rng(5), 2, 2, 3)
    (a1, b1), (a2, b2) = inst.pairs[:2]
    sys = instance_system(
        ProblemInstance(2, 2, inst.pairs + [(1e6 * (a1 + a2), 1e6 * (b1 + b2))])
    )
    kept = [sys.provenance.index(t) for t in prune_dependent(sys).provenance]
    assert kept == reference_kept_rows(sys) == list(range(12))


@pytest.mark.parametrize("copies", [7, 9])
@pytest.mark.parametrize("target", [1.0, 0.0])
def test_prune_keeps_an_independent_row_after_exact_duplicates(copies, target):
    # an exact duplicate leaves an unpivoted QR a zero subcolumn; the row after
    # the duplicates must still be measured against the kept row alone.  With
    # either count the last row lies past R's p^2 = 4 rows.
    e00, e11 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    sys = base_system([e00] * copies + [e11], [target] * (copies + 1))
    assert [t.indices[0] - 1 for t in prune_dependent(sys).provenance] == [0, copies]


def hermitian_unit_basis(p):
    """The p^2 selfadjoint matrix units E_ii, E_ij + E_ji and i(E_ij - E_ji)."""
    basis = []
    for i in range(p):
        for j in range(i, p):
            e = matrix_unit(p, i, j)
            basis.append(e + e.T if i != j else e)
            if i != j:
                basis.append(1j * (e - e.T))
    return np.array(basis, dtype=complex)


def test_prune_matches_the_reference_on_exactly_dependent_rows():
    # integer combinations of matrix units, half of them single units:
    # dependent rows are exactly dependent, many of them depend on rows kept
    # after an earlier dropped one, and repeated units leave zero subcolumns
    rng = np.random.default_rng(29)
    p = 3
    basis = hermitian_unit_basis(p)
    for trial in range(40):
        q = int(rng.integers(4, 2 * p * p + 8))
        support = rng.choice(p * p, size=int(rng.integers(2, p * p + 1)), replace=False)
        weights = rng.integers(-1, 2, size=(q, len(support))) * (rng.uniform(size=(q, 1)) < 0.5)
        weights[np.arange(q), rng.integers(len(support), size=q)] = 1
        mats = np.tensordot(weights, basis[support], axes=1)
        x = random_hermitian(rng, p)
        sys = base_system(mats, [np.trace(c @ x).real for c in mats])
        kept = reference_kept_rows(sys)
        assert [t.indices[0] - 1 for t in prune_dependent(sys).provenance] == kept
        dropped = sorted(set(range(sys.q)) - set(kept))
        if not dropped:
            continue
        targets = sys.targets.copy()
        # two offenders where possible, so the first in order must be named
        targets[rng.choice(dropped, size=min(2, len(dropped)), replace=False)] += 1.0
        perturbed = base_system(reference_stack(sys), targets)
        with pytest.raises(InconsistentSystemError) as err:
            prune_dependent(perturbed)
        assert err.value.offending == reference_offending(perturbed)


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_prune_keeps_trace_rows_after_repeated_pairs(scale):
    # nine copies of one pair give 36 value rows of rank 4, past p^2 = 16;
    # three of the four trace-preservation rows after them are independent
    e00 = np.diag([1.0, 0.0])
    inst = ProblemInstance(2, 2, [(e00, scale * e00)] * 9, trace_preserving=True)
    sys = instance_system(inst)
    assert sys.q == 40
    offending = reference_offending(sys)
    if scale == 1.0:
        assert offending is None
        kept = [sys.provenance.index(t) for t in prune_dependent(sys).provenance]
        assert kept == reference_kept_rows(sys)
        assert sum(sys.provenance[i].kind == "trace" for i in kept) == 3
    else:
        assert offending.kind == "trace"
        with pytest.raises(InconsistentSystemError) as err:
            prune_dependent(sys)
        assert err.value.offending == offending


def test_prune_hands_over_the_factor_of_the_rows_it_keeps():
    # a consistent combination of two pairs, and rows past the rank cap
    inst, _ = planted_instance(np.random.default_rng(31), 3, 3, 4)
    (a1, b1), (a2, b2) = inst.pairs[:2]
    e00 = np.diag([1.0, 0.0])
    for inst in (ProblemInstance(3, 3, inst.pairs + [(a1 + 2 * a2, b1 + 2 * b2)]),
                 ProblemInstance(2, 2, [(e00, e00)] * 9, trace_preserving=True)):
        sys = instance_system(inst)
        pruned = prune_dependent(sys)
        assert pruned.q < sys.q
        r, norms = pruned.factor()
        assert r.shape == (pruned.q, pruned.q)
        assert np.array_equal(r, np.triu(r))
        assert np.all(np.diagonal(r) ** 2 > DEPENDENCE_RTOL)
        # R^T R is the Gram matrix of the kept rows at unit norm
        coords = pruned.coordinates()
        assert np.allclose(norms, np.linalg.norm(coords, axis=1), rtol=1e-14, atol=0.0)
        unit = coords / norms[:, None]
        assert np.abs(r.T @ r - unit @ unit.T).max() < 1e-13


def channel_instance(rng, n, inputs, with_identity):
    """A trace-preserving channel of Kraus rank 2 seen on random Hermitian inputs,
    and on I as well when ``with_identity``."""
    choi = kraus_to_choi(random_channel_kraus(rng, n, 2))
    a_mats = [random_hermitian(rng, n) for _ in range(inputs)]
    a_mats += [np.eye(n, dtype=complex)] if with_identity else []
    return ProblemInstance(n, n, [(a, apply_choi(choi, a)) for a in a_mats], trace_preserving=True)


FACTOR_CASES = {
    "hermitian": lambda rng: planted_instance(rng, 3, 3, 4)[0],
    "complex, n < k, more halves than n^2":
        lambda rng: planted_instance(rng, 2, 3, 3, hermitian_data=False)[0],
    "complex, n > k": lambda rng: planted_instance(rng, 3, 2, 4, hermitian_data=False)[0],
    "diagonal, dependent pairs": lambda rng: planted_diagonal_instance(rng, 3, 3, 6)[0],
    "channel, I in the inputs' span": lambda rng: channel_instance(rng, 3, 3, True),
    "channel, more halves than n^2": lambda rng: channel_instance(rng, 2, 5, False),
}


def assert_factor_is_the_dense_qr(sys):
    """``sys.factor()`` against the QR of the unit rows' p^2 coordinates."""
    r, norms = sys.factor()
    coords = sys.coordinates()
    dense_norms = np.linalg.norm(coords, axis=1)
    dense = np.linalg.qr((coords / dense_norms[:, None]).T, mode="r")
    assert r.shape == dense.shape == (min(sys.p**2, sys.q), sys.q)
    assert np.abs(np.abs(r) - np.abs(dense)).max() <= 1e-12
    assert np.abs(norms / dense_norms - 1.0).max() <= 1e-12


@pytest.mark.parametrize("case", FACTOR_CASES)
def test_the_built_factor_matches_the_dense_qr(case):
    # the factors built from the pairs and extended by the identity, which
    # prune and the span check read
    rng = np.random.default_rng(32)
    for _ in range(3):
        sys = instance_system(FACTOR_CASES[case](rng))
        assert_factor_is_the_dense_qr(sys)
        raw = ConstraintSystem(sys.p, reference_stack(sys), sys.targets, sys.provenance)
        pruned = prune_dependent(sys)
        assert pruned.provenance == prune_dependent(raw).provenance
        assert_factor_is_the_dense_qr(pruned.with_unit_trace())


# ---------------------------------------------------------------------------
# rotated coordinates, read off the Kronecker blocks


def kept_reference_rows(sys, inst, trace_preserving=False):
    """The reference rows (tests/helpers.py) of ``inst`` that ``sys`` keeps, by label."""
    ref = reference_instance_system(inst, trace_preserving)
    return reference_stack(ref)[[ref.provenance.index(t) for t in sys.provenance]]


def middle_pair_instance(rng):
    """Planted data with the combination of the first two pairs inserted
    third: prune drops that middle pair's rows."""
    inst = planted_instance(rng, 3, 2, 4)[0]
    (a1, b1), (a2, b2) = inst.pairs[:2]
    return ProblemInstance(3, 2, inst.pairs[:2] + [(a1 - 2 * a2, b1 - 2 * b2)] + inst.pairs[2:])


def rotation_case(case, rng):
    """A system and its rows as a stack made from the reference rows."""
    if case in ("built", "complex", "trace-preserving"):
        inst = {
            "built": lambda: planted_instance(rng, 3, 2, 4)[0],
            "complex": lambda: planted_instance(rng, 2, 3, 3, hermitian_data=False)[0],
            "trace-preserving": lambda: channel_instance(rng, 2, 3, False),
        }[case]()
        ref = reference_instance_system(inst, inst.trace_preserving)
        return instance_system(inst), reference_stack(ref)
    if case == "pruned of a middle pair":
        inst = middle_pair_instance(rng)
        sys = prune_dependent(instance_system(inst))
        assert {t.indices[0] for t in sys.provenance} == {1, 2, 4, 5}
        return sys, kept_reference_rows(sys, inst)
    if case == "pruned of a trace row":
        # a channel seen on I alone: its rows I^T kron F sum to one trace row
        inst = channel_instance(rng, 3, 0, True)
        full = instance_system(inst)
        sys = prune_dependent(full)
        dropped = set(full.provenance) - set(sys.provenance)
        assert [t.kind for t in dropped] == ["trace"]
        return sys, kept_reference_rows(sys, inst, True)
    if case == "support-reduced":
        inst = with_common_kernel(middle_pair_instance(rng))
        pruned = prune_dependent(instance_system(inst))
        sys, red = joint_support_reduce(pruned, inst)
        assert red.reduced_dim < red.full_dim
        w = red.basis
        return sys, w.conj().T @ kept_reference_rows(pruned, inst) @ w
    if case == "pruned, with unit trace":
        inst = middle_pair_instance(rng)
        pruned = prune_dependent(instance_system(inst))
        rows = kept_reference_rows(pruned, inst)
        return pruned.with_unit_trace(), np.concatenate([rows, np.eye(pruned.p)[None]])
    mats = np.array([random_hermitian(rng, 5) for _ in range(7)])
    sys = ConstraintSystem(5, mats, rng.standard_normal(7))
    if case == "raw stack, with unit trace":
        return sys.with_unit_trace(), np.concatenate([mats, np.eye(5)[None]])
    return sys, mats


ROTATION_CASES = ["built", "complex", "trace-preserving", "pruned of a middle pair",
                  "pruned of a trace row", "support-reduced", "pruned, with unit trace",
                  "raw stack", "raw stack, with unit trace"]


@pytest.mark.parametrize("case", ROTATION_CASES)
def test_rotated_coordinates_match_the_rotated_reference_rows(case):
    # the exp Hessian's U^* C U, weighted by divided differences, and the
    # barrier's K C K^*, against the p x p rotation of every reference row
    rng = np.random.default_rng(33)
    sys, rows = rotation_case(case, rng)
    assert rows.shape == (sys.q, sys.p, sys.p)
    for _ in range(2):
        u = np.linalg.qr(random_complex(rng, sys.p, sys.p))[0]
        w = rng.uniform(-1.0, 1.0, sys.p)
        phi = np.exp((w[:, None] + w[None, :]) / 2)
        z = np.eye(sys.p) - 0.4 * random_hermitian(rng, sys.p) / sys.p
        k = np.linalg.inv(np.linalg.cholesky(z))
        for got, ref in ((sys.coordinates(u, phi), hermitian_coordinates(u.conj().T @ rows @ u, phi)),
                         (sys.coordinates(k.conj().T), hermitian_coordinates(k @ rows @ k.conj().T))):
            assert got.shape == (sys.q, sys.p**2)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def reader_case(case, rng):
    """``rotation_case``, or diagonal data whose inputs carry off-diagonal
    round-off of 1e-9, with no reference rows."""
    if case != "diagonal, off-diagonal round-off":
        return rotation_case(case, rng)
    inst = planted_diagonal_instance(rng, 3, 2, 4)[0]
    pairs = []
    for a, b in inst.pairs:
        h = random_hermitian(rng, 3)
        pairs.append((a + 1e-9 * (h - np.diag(np.diag(h))), b))
    return instance_system(ProblemInstance(3, 2, pairs)), None


@pytest.mark.parametrize("case", [*ROTATION_CASES, "diagonal, off-diagonal round-off"])
def test_the_block_readers_match_the_reference_stack(case):
    # every reader of the rows works on the Kronecker blocks; the dense rows
    # that reference_stack rebuilds from them must give the same values,
    # within 1e-14 of the size of the terms each value sums (times p for a
    # sum over p^2 entries)
    rng = np.random.default_rng(35)
    sys, rows = reader_case(case, rng)
    stack = reference_stack(sys)
    assert stack.shape == (sys.q, sys.p, sys.p)
    if rows is not None:  # the helper agrees with the row-by-row reference build
        assert np.abs(stack - rows).max() <= 1e-14 * np.abs(rows).max()
    norms = np.linalg.norm(stack, axis=(1, 2))
    x = random_hermitian(rng, sys.p)
    traces = np.einsum("iab,ba->i", stack, x).real
    assert np.all(np.abs(sys.traces(x) - traces) <= 1e-14 * sys.p * norms * np.linalg.norm(x))
    assert np.array_equal(sys.residuals(x), sys.traces(x) - sys.targets)
    c = rng.standard_normal(sys.q)
    combo = np.tensordot(c, stack, axes=1)
    assert np.abs(sys.aggregate(c) - combo).max() <= 1e-14 * sys.p * (np.abs(c) @ norms)
    coords = hermitian_coordinates(stack)
    assert np.all(np.abs(sys.coordinates() - coords) <= 1e-14 * norms[:, None])
    u = np.linalg.qr(random_complex(rng, sys.p, sys.p))[0]
    w = rng.uniform(-1.0, 1.0, sys.p)
    phi = np.exp((w[:, None] + w[None, :]) / 2)
    rotated = hermitian_coordinates(u.conj().T @ stack @ u, phi)
    assert np.all(np.abs(sys.coordinates(u, phi) - rotated) <= 1e-14 * sys.p * norms[:, None])
    # the off-diagonal norm holds its own relative precision, also where it
    # is 1e-9 of the diagonal's, which a difference of squares would lose
    diagonals, off = sys.diagonals()
    assert np.array_equal(diagonals, coords[:, : sys.p])
    off_ref = np.linalg.norm(coords[:, sys.p :], axis=1)
    assert np.all(np.abs(off - off_ref) <= 1e-14 * off_ref)
    if rows is None:
        assert 0.0 < off_ref.min() and off_ref.min() <= 1e-8 * norms.max()


# ---------------------------------------------------------------------------
# joint_support_reduce / embed_solution


def scalar_instance(mats, targets):
    """The k = 1 instance whose hermitized rows are the Hermitian ``mats``,
    each with its target: the one row of the pair (A, B) is A^T."""
    mats = np.asarray(mats, dtype=complex)
    pairs = [(m.T, np.array([[t]])) for m, t in zip(mats, targets)]
    return ProblemInstance(mats.shape[1], 1, pairs)


def reduce_scalar_instance(mats, targets):
    inst = scalar_instance(mats, targets)
    sys = instance_system(inst)
    assert np.abs(reference_stack(sys) - np.asarray(mats)).max() < 1e-15
    return sys, joint_support_reduce(sys, inst)


def test_reduce_full_rank_system_is_returned_uncompressed():
    rng = np.random.default_rng(32)
    sys, (reduced, red) = reduce_scalar_instance(
        [random_hermitian(rng, 4) for _ in range(5)], rng.standard_normal(5)
    )
    assert np.array_equal(red.basis, np.eye(4))
    x = random_hermitian(rng, 4)
    assert np.array_equal(reduced.residuals(x), sys.residuals(x))


def test_reduce_to_first_coordinate():
    c = np.zeros((2, 2), dtype=complex)
    c[0, 0] = 1.0
    _, (reduced, red) = reduce_scalar_instance([c], [1.0])
    assert red.reduced_dim == 1
    assert reduced.p == 1


def test_reduce_without_kernel_is_identity():
    sys, (reduced, red) = reduce_scalar_instance([np.eye(3)], [1.0])
    assert red.reduced_dim == 3
    assert np.abs(red.basis - np.eye(3)).max() == 0
    assert np.abs(reference_stack(reduced) - reference_stack(sys)).max() == 0


@pytest.mark.parametrize("scale", [1e-10, 1e-11])
def test_reduce_of_rows_below_the_support_cut_is_identity(scale):
    # the build keeps a row above STRUCTURE_RTOL, but at SUPPORT_RTOL the
    # whole space is kernel: compressing onto it would leave a 0 x 0 system
    sys, (reduced, red) = reduce_scalar_instance([scale * np.eye(2)], [1.0])
    assert sys.q == 1
    assert np.array_equal(red.basis, np.eye(2))
    assert reduced is sys


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
    sys, (reduced, red) = reduce_scalar_instance(mats, targets)
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
    _, (_, red) = reduce_scalar_instance([np.eye(2)], [1.0])
    x = np.array([[1.0, 2.0], [2.0, 5.0]], dtype=complex)
    assert np.abs(embed_solution(x, red) - x).max() == 0
    c = np.zeros((3, 3), dtype=complex)
    c[0, 0] = 1.0
    c[1, 1] = 1.0
    _, (_, red2) = reduce_scalar_instance([c], [1.0])
    proj = embed_solution(np.eye(red2.reduced_dim), red2)
    assert np.abs(proj - np.diag([1.0, 1.0, 0.0])).max() < 1e-12


def unitary_channel_instance(seed, count=3):
    """A qubit unitary channel seen on ``count`` Hermitian inputs."""
    rng = np.random.default_rng(seed)
    choi = kraus_to_choi(random_channel_kraus(rng, 2, 1))
    inputs = [random_hermitian(rng, 2) for _ in range(count)]
    return ProblemInstance(2, 2, [(a, apply_choi(choi, a)) for a in inputs])


@pytest.mark.parametrize("make", [vv_face_instance, unitary_channel_instance],
                         ids=["vv-face", "unitary-channel"])
def test_the_reduced_system_carries_the_factor(make):
    # the compression is an isometry on the rows' support, so the pruned
    # system's R and row norms are those of the compressed rows
    for seed in range(3):
        inst = with_common_kernel(make(seed))
        pruned = prune_dependent(instance_system(inst))
        reduced, red = joint_support_reduce(pruned, inst)
        assert red.reduced_dim < red.full_dim
        r, norms = reduced.factor()
        assert r is pruned.factor()[0]
        raw = ConstraintSystem(reduced.p, reference_stack(reduced), reduced.targets,
                               reduced.provenance)
        r_qr, norms_qr = raw.factor()
        assert np.abs(r.T @ r - r_qr.T @ r_qr).max() <= 1e-12
        assert np.abs(norms / norms_qr - 1.0).max() <= 1e-12


def test_reduce_keeps_diagonal_systems_diagonal():
    _, (reduced, red) = reduce_scalar_instance(
        [np.diag([1.0, 0.0, 2.0]), np.diag([0.0, 0.0, 1.0])], [1.0, 1.0]
    )
    assert red.reduced_dim == 2
    for m in reference_stack(reduced):
        assert np.abs(m - np.diag(np.diag(m))).max() == 0


def test_reduce_intersects_the_kernels_of_the_transpose_and_the_conjugate():
    # A = x y^*: ker A^T = {v : x^T v = 0} and ker conj(A) = {v : y^T v = 0}
    # are lines, but they meet only in 0, so no row shares a kernel
    x, y = np.array([1.0, 1.0j]), np.array([1.0, 2.0])
    a = np.outer(x, y.conj())
    assert np.linalg.matrix_rank(a.T) == 1
    inst = ProblemInstance(2, 2, [(a, a)])  # the identity map interpolates it
    pruned = prune_dependent(instance_system(inst))
    reduced, red = joint_support_reduce(pruned, inst)
    assert red.reduced_dim == 4
    assert reduced is pruned


# ---------------------------------------------------------------------------
# is_diagonal_instance


def test_is_diagonal_instance():
    diag_inst = ProblemInstance(2, 2, [(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))])
    assert is_diagonal_instance(diag_inst)
    assert not is_diagonal_instance(golden_instance())
    # commuting but non-diagonal data must be pre-diagonalized by the caller
    h = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert not is_diagonal_instance(ProblemInstance(2, 2, [(h, np.eye(2))]))


def with_off_diagonal(inst, which, value):
    """``inst`` with ``value`` at (0, 1) and its conjugate at (1, 0) of the first
    pair's A (``which`` 0) or B (``which`` 1)."""
    pair = [m.copy() for m in inst.pairs[0]]
    pair[which][0, 1], pair[which][1, 0] = value, np.conj(value)
    return ProblemInstance(inst.n, inst.k, [tuple(pair), *inst.pairs[1:]])


def diagonal_solver_takes(inst):
    pruned = prune_dependent(instance_system(inst))
    return solve_diagonal(joint_support_reduce(pruned, inst)[0]).status is SolveStatus.FEASIBLE


def test_is_diagonal_instance_cuts_a_relative_to_its_scale_and_b_at_the_target_cut():
    inst, _ = planted_diagonal_instance(np.random.default_rng(6), 3, 2, 4)
    # inputs of size 1e6 with 1e-9 of off-diagonal round-off in every A
    noise = 1e-9 * (np.ones((3, 3)) - np.eye(3))
    scaled = ProblemInstance(3, 2, [(1e6 * a + noise, 1e6 * b) for a, b in inst.pairs])
    assert is_diagonal_instance(scaled)
    assert diagonal_solver_takes(scaled)
    # the off-diagonal part of A, of norm sqrt(2) |x|, against 1 + max |A|
    cut = STRUCTURE_RTOL * (1.0 + np.abs(scaled.pairs[0][0]).max())
    below = with_off_diagonal(scaled, 0, 0.99 * cut / np.sqrt(2.0))
    assert is_diagonal_instance(below)
    assert diagonal_solver_takes(below)
    assert not is_diagonal_instance(with_off_diagonal(scaled, 0, 1.01 * cut / np.sqrt(2.0)))
    # B's off-diagonal entries are the targets 2 Re B[0, 1] and -2 Im B[0, 1]
    # of strictly off-diagonal rows, which the diagonal solver drops only at
    # most STRUCTURE_RTOL, whatever the scale
    for value in (0.49e-12, 0.49e-12j):
        assert is_diagonal_instance(with_off_diagonal(scaled, 1, value))
        assert diagonal_solver_takes(with_off_diagonal(scaled, 1, value))
    for value in (0.51e-12, 0.51e-12j):
        above = with_off_diagonal(scaled, 1, value)
        assert not is_diagonal_instance(above)
        with pytest.raises(ValueError, match=r"value\(1, 1, 2\)\.(re|im) is not diagonal"):
            diagonal_solver_takes(above)


# ---------------------------------------------------------------------------
# systems derived from a checked one


def assert_exactly_hermitian(sys):
    assert np.array_equal(reference_stack(sys), reference_stack(sys).conj().transpose(0, 2, 1))


@pytest.mark.parametrize("trace_preserving", [False, True])
def test_built_systems_are_exactly_hermitian(trace_preserving):
    # the build skips the Hermitian check: its rows are Hermitian as made
    for inst in build_cases():
        assert_exactly_hermitian(instance_system(inst, trace_preserving=trace_preserving))


def test_derived_systems_are_hermitian_and_keep_their_parents_labels():
    # prune's copy, the extension by (I, 1) and the support-reduced system
    # skip the Hermitian check: they must be exactly Hermitian as made
    inst, _ = planted_diagonal_instance(np.random.default_rng(7), 2, 2, 4)
    sys = instance_system(inst)
    pruned = prune_dependent(sys)
    assert pruned.q < sys.q
    assert_exactly_hermitian(pruned)
    kept = [sys.provenance.index(t) for t in pruned.provenance]
    assert kept == sorted(kept)
    assert np.array_equal(pruned.targets, sys.targets[kept])

    extended = pruned.with_unit_trace()
    assert_exactly_hermitian(extended)
    assert extended.provenance[: pruned.q] == pruned.provenance
    assert extended.provenance[-1].kind == "unit-trace"

    # inputs with a common kernel that is no coordinate axis: the rotated
    # compression is symmetrized
    rng = np.random.default_rng(8)
    u = np.linalg.qr(random_complex(rng, 3, 3))[0]
    pairs = []
    for _ in range(3):
        a = np.zeros((3, 3), dtype=complex)
        a[:2, :2] = random_hermitian(rng, 2)
        pairs.append((u @ a @ u.conj().T, random_hermitian(rng, 2)))
    inst = ProblemInstance(3, 2, pairs)
    pruned = prune_dependent(instance_system(inst))
    reduced, red = joint_support_reduce(pruned, inst)
    assert red.reduced_dim == 4
    assert_exactly_hermitian(reduced)
    assert reduced.provenance == pruned.provenance
    assert np.array_equal(reduced.targets, pruned.targets)


# ---------------------------------------------------------------------------
# equivalence with the map-level conditions


def output_partial_trace(x, n, k):
    """``Tr_k X``: entry (i, j) is ``tr((E_ij^T kron I_k) X)``, the trace condition (i, j)."""
    return np.einsum("irjr->ij", x.reshape(n, k, n, k))


def test_system_equivalent_to_interpolation_conditions():
    # the map-level conditions, checked through apply_choi, on Hermitian and
    # complex data, with and without trace preservation
    rng = np.random.default_rng(41)
    n = k = 2
    for hermitian_data in (True, False):
        for trace_preserving in (False, True):
            for _ in range(5):
                x = random_hermitian(rng, n * k)
                if trace_preserving:
                    # shift X so that Tr_k X = I_n, i.e. the map preserves traces
                    x = x - np.kron(output_partial_trace(x, n, k) - np.eye(n), np.eye(k)) / k
                a_mats = [
                    random_hermitian(rng, n) if hermitian_data else random_complex(rng, n, n)
                    for _ in range(2)
                ]
                pairs = [(a, apply_choi(ChoiMatrix(n, k, x), a)) for a in a_mats]
                sys = instance_system(ProblemInstance(n, k, pairs, trace_preserving))
                # X satisfies the system by construction
                assert np.abs(sys.residuals(x)).max() < 1e-10
                # and a perturbed Y violates it exactly when the map values of
                # the pairs' Hermitian halves move
                y = x + random_hermitian(rng, n * k, scale=0.1)
                res = np.abs(sys.residuals(y)).max()
                halves = [
                    (hermitian_part(c * a), hermitian_part(c * b))
                    for a, b in pairs
                    for c in (1.0, -1j)
                ]
                gap = max(
                    np.abs(apply_choi(ChoiMatrix(n, k, y), a) - b).max() for a, b in halves
                )
                if trace_preserving:
                    gap = max(gap, np.abs(output_partial_trace(y, n, k) - np.eye(n)).max())
                assert (res < 1e-10) == (gap < 1e-10)
                assert res <= 2 * gap + 1e-12 and gap <= res + 1e-12


def test_raw_count_and_hermitized_bound():
    rng = np.random.default_rng(42)
    for _ in range(3):
        n, k, nper = 2, 3, 2
        pairs = [
            (random_hermitian(rng, n), random_hermitian(rng, k)) for _ in range(nper)
        ]
        inst = ProblemInstance(n, k, pairs)
        assert len(reference_assemble(inst)) == nper * k * k
        sys = instance_system(inst)
        assert sys.q <= nper * k * k
