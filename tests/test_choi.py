import numpy as np
import pytest

from cpinterp.choi import (
    ChoiMatrix,
    KrausSet,
    apply_choi,
    choi_from_unit_images,
    choi_to_kraus,
    kraus_to_choi,
    matrix_unit,
    minimal_kraus_count,
)
from helpers import (
    A1,
    A2,
    B2,
    X_REF,
    random_complex,
    random_hermitian,
    random_kraus_set,
    reference_choi_to_kraus,
)


def identity_choi(n: int) -> ChoiMatrix:
    return kraus_to_choi(KrausSet(n, n, [np.eye(n)]))


# ---------------------------------------------------------------------------
# choi_from_unit_images


def test_identity_map_choi_is_rank_one():
    images = [[matrix_unit(2, i, j) for j in range(2)] for i in range(2)]
    phi = choi_from_unit_images(2, 2, images).matrix
    w = np.array([1.0, 0.0, 0.0, 1.0])  # e1 kron e1 + e2 kron e2
    assert np.abs(phi - np.outer(w, w)).max() < 1e-15


def test_zero_map():
    images = [[np.zeros((3, 3))] * 2 for _ in range(2)]
    assert np.abs(choi_from_unit_images(2, 3, images).matrix).max() == 0.0


def test_trace_map_choi_is_identity():
    # A -> tr(A) I_2 sends E_ij to delta_ij I_2
    images = [[np.eye(2) if i == j else np.zeros((2, 2)) for j in range(2)] for i in range(2)]
    assert np.abs(choi_from_unit_images(2, 2, images).matrix - np.eye(4)).max() == 0.0


def test_shape_validation():
    with pytest.raises(ValueError):
        choi_from_unit_images(2, 2, [[np.eye(3)] * 2] * 2)


# ---------------------------------------------------------------------------
# apply_choi


def test_apply_identity_choi():
    rng = np.random.default_rng(5)
    a = random_complex(rng, 2, 2)
    out = apply_choi(identity_choi(2), a)
    assert np.abs(out - a).max() < 1e-14


def test_apply_reference_solution_entries():
    c = ChoiMatrix(2, 2, X_REF.astype(complex))
    out = apply_choi(c, A1)
    assert abs(out[0, 0] - 3.99978984) < 1e-7
    assert abs(out[0, 1] - 0.0000564069) < 1e-9


def test_apply_reference_solution_second_pair():
    c = ChoiMatrix(2, 2, X_REF.astype(complex))
    assert np.abs(apply_choi(c, A2) - B2).max() < 1e-3


def test_apply_linearity():
    rng = np.random.default_rng(6)
    c = ChoiMatrix(2, 3, (lambda m: m @ m.conj().T)(random_complex(rng, 6, 6)))
    a, b = random_complex(rng, 2, 2), random_complex(rng, 2, 2)
    lhs = apply_choi(c, 1.5 * a - 0.5 * b)
    rhs = 1.5 * apply_choi(c, a) - 0.5 * apply_choi(c, b)
    assert np.abs(lhs - rhs).max() < 1e-12 * (1 + np.abs(lhs).max())


def test_apply_preserves_positivity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_complex(rng, 6, 6)
        c = ChoiMatrix(2, 3, g @ g.conj().T)  # PSD Choi: completely positive map
        v = random_complex(rng, 2, 2)
        rho = v @ v.conj().T
        out = apply_choi(c, rho)
        assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() >= -1e-9


# ---------------------------------------------------------------------------
# choi_to_kraus / kraus_to_choi


def test_identity_choi_gives_identity_kraus():
    ks = choi_to_kraus(identity_choi(2))
    assert len(ks.elements) == 1
    assert np.abs(ks.elements[0] - np.eye(2)).max() < 1e-12


def test_identity_choi_matrix_round_trip():
    phi = ChoiMatrix(2, 2, np.eye(4, dtype=complex))
    ks = choi_to_kraus(phi)
    assert len(ks.elements) == 4
    # the reconstructed map is A -> tr(A) I
    rng = np.random.default_rng(8)
    a = random_complex(rng, 2, 2)
    out = sum(v.conj().T @ a @ v for v in ks.elements)
    assert np.abs(out - np.trace(a) * np.eye(2)).max() < 1e-12


def test_zero_choi_gives_empty_kraus():
    ks = choi_to_kraus(ChoiMatrix(2, 2, np.zeros((4, 4))))
    assert ks.elements == []
    assert np.abs(kraus_to_choi(ks).matrix).max() == 0.0


def test_choi_to_kraus_rejects_indefinite():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        choi_to_kraus(ChoiMatrix(1, 2, np.diag([1.0, -1.0])))


def test_kraus_to_choi_identity():
    phi = identity_choi(2).matrix
    w = np.array([1.0, 0.0, 0.0, 1.0])
    assert np.abs(phi - np.outer(w, w)).max() < 1e-15


def test_kraus_to_choi_pinching():
    # A -> diag(a11, a22) has elements E_11 and E_22
    ks = KrausSet(2, 2, [matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)])
    phi = kraus_to_choi(ks).matrix
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0  # (E_11 image)[0, 0]
    expected[3, 3] = 1.0  # (E_22 image)[1, 1]
    assert np.abs(phi - expected).max() < 1e-15
    rng = np.random.default_rng(9)
    a = random_complex(rng, 2, 2)
    out = apply_choi(ChoiMatrix(2, 2, phi), a)
    assert np.abs(out - np.diag(np.diag(a))).max() < 1e-14


def test_round_trip_random_sets():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        count = int(rng.integers(1, n * k + 1))
        ks = random_kraus_set(rng, n, k, count)
        phi = kraus_to_choi(ks).matrix
        ks2 = choi_to_kraus(ChoiMatrix(n, k, phi))
        phi2 = kraus_to_choi(ks2).matrix
        assert np.linalg.norm(phi2 - phi) < 1e-10


def kraus_reference_cases():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n, k = (int(v) for v in rng.integers(1, 4, size=2))
        yield "full rank", kraus_to_choi(random_kraus_set(rng, n, k, n * k))
        yield "rank deficient", kraus_to_choi(random_kraus_set(rng, n, k, max(1, n * k - 2)))
    # repeated eigenvalues: 3 (twice) and 1 (twice)
    u = np.linalg.qr(random_complex(rng, 4, 4))[0]
    yield "repeated", ChoiMatrix(2, 2, (u * [3.0, 3.0, 1.0, 1.0]) @ u.conj().T)
    yield "identity", ChoiMatrix(2, 3, np.eye(6))
    yield "zero", ChoiMatrix(2, 2, np.zeros((4, 4)))
    # a real matrix, whose eigenvectors are real, with a negative pivot
    h = random_hermitian(rng, 4).real
    yield "negative pivot", ChoiMatrix(2, 2, h @ h.T)


def test_choi_to_kraus_matches_the_per_eigenpair_reference():
    negative_pivot = False
    for name, c in kraus_reference_cases():
        ks, ref = choi_to_kraus(c), reference_choi_to_kraus(c)
        assert len(ks.elements) == len(ref.elements), name
        for v, r in zip(ks.elements, ref.elements):
            assert v.shape == r.shape == (c.n, c.k)
            assert np.abs(v - r).max() <= 1e-15 * np.abs(r).max(), name
        if name == "negative pivot":
            u = np.linalg.eigh(c.matrix)[1]
            negative_pivot = bool(np.any(u[np.argmax(np.abs(u), axis=0), range(4)] < 0))
    assert negative_pivot


def test_kraus_to_choi_matches_the_unit_image_reference():
    # block (i, j) is sum_v V^* E_ij V, assembled from the matrix-unit images;
    # the matmul sums the same products in another order
    rng = np.random.default_rng(12)
    for n, k, count in [(2, 2, 1), (3, 2, 5), (2, 3, 0), (4, 4, 16)]:
        ks = random_kraus_set(rng, n, k, count)
        images = [[sum((v.conj().T @ matrix_unit(n, i, j) @ v for v in ks.elements),
                       start=np.zeros((k, k), dtype=complex)) for j in range(n)]
                  for i in range(n)]
        ref = choi_from_unit_images(n, k, images).matrix
        assert np.abs(kraus_to_choi(ks).matrix - ref).max() <= 1e-14 * (1.0 + np.abs(ref).max())


def test_apply_matches_direct_kraus_evaluation():
    rng = np.random.default_rng(11)
    for _ in range(5):
        ks = random_kraus_set(rng, 3, 2, 4)
        c = kraus_to_choi(ks)
        a = random_complex(rng, 3, 3)
        direct = sum(v.conj().T @ a @ v for v in ks.elements)
        assert np.abs(apply_choi(c, a) - direct).max() < 1e-10


# ---------------------------------------------------------------------------
# minimal_kraus_count


def test_minimal_count_trivial():
    assert minimal_kraus_count(identity_choi(2)) == 1
    assert minimal_kraus_count(ChoiMatrix(2, 2, np.eye(4))) == 4


def test_minimal_count_matches_spectrum():
    rng = np.random.default_rng(12)
    ks = random_kraus_set(rng, 2, 2, 3)
    c = kraus_to_choi(ks)
    w = np.linalg.eigvalsh(c.matrix)
    expected = int(np.count_nonzero(w > 1e-9 * w.max()))
    assert minimal_kraus_count(c) == expected == 3
