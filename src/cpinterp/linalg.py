"""Dense complex linear algebra kernel for Hermitian matrices.

All matrices are plain ``numpy.ndarray`` objects with complex entries in
row-major order.  Hermitian inputs are symmetrized on entry, so callers may
pass matrices that are Hermitian only up to round-off.  Tolerances default to
a relative policy of ``1e-10 * (1 + Frobenius norm)``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

# exp() overflows double precision just above this exponent
EXP_ARG_LIMIT = 700.0

DEFAULT_RTOL = 1e-10


class EigDecomp(NamedTuple):
    """Hermitian eigendecomposition, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def scale_tol(a: np.ndarray, rtol: float = DEFAULT_RTOL) -> float:
    """Relative tolerance at the Frobenius scale of ``a``."""
    return rtol * (1.0 + frobenius(a))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a*) / 2."""
    return (a + a.conj().T) / 2


def is_hermitian(a: np.ndarray, rtol: float = DEFAULT_RTOL) -> bool:
    a = np.asarray(a)
    return a.shape[0] == a.shape[1] and frobenius(a - a.conj().T) <= scale_tol(a, rtol)


def kron(a, b) -> np.ndarray:
    """Kronecker product with lexicographic (row-major) pair indexing.

    ``kron(a, b)[(i, r), (j, s)] = a[i, j] * b[r, s]`` where the row index
    pairs ``(i, r)`` are flattened as ``i * rows(b) + r``.
    """
    return np.kron(np.asarray(a), np.asarray(b))


def herm_eig(h: np.ndarray) -> EigDecomp:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is symmetrized first; non-convergence of the underlying QR
    iteration surfaces as a ``numpy.linalg.LinAlgError``.
    """
    w, u = np.linalg.eigh(hermitian_part(as_complex_matrix(h)))
    return EigDecomp(w, u)


def expm_herm(h: np.ndarray) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix via eigendecomposition.

    The result is exactly Hermitian (symmetrized reconstruction) and strictly
    positive definite.  Raises ``OverflowError`` when the top of the spectrum
    exceeds the double-precision exponential range.
    """
    w, u = herm_eig(h)
    if w[-1] > EXP_ARG_LIMIT:
        raise OverflowError(
            f"eigenvalue {w[-1]:.6g} exceeds the exp() range of double precision"
        )
    return hermitian_part((u * np.exp(w)) @ u.conj().T)


def trace_pair(a: np.ndarray, b: np.ndarray) -> float:
    """Real trace pairing ``Re tr(a @ b)`` of two Hermitian matrices.

    For Hermitian arguments this is the real inner product used by the
    constraint machinery.  A significant imaginary residue means the inputs
    were not Hermitian and is rejected.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    t = complex(np.sum(a * b.T))
    imag_cap = 1e-12 * (1.0 + frobenius(a) * frobenius(b))
    if abs(t.imag) > imag_cap:
        raise ValueError(
            f"trace pairing has imaginary residue {t.imag:.3e}; inputs not Hermitian"
        )
    return t.real


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(hermitian_part(as_complex_matrix(h)))[0])


def joint_support(
    stack: np.ndarray, tol: float | None = None, diagonal: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the joint support and the common kernel of a family.

    ``stack`` is the family of p x p matrices stacked vertically, shape
    (m p, p).  Returns ``(support, kernel)``, p x r and p x (p - r) arrays
    whose columns together form a unitary.  A right singular direction of the
    stack is in the kernel when its singular value is at most ``tol``, by
    default ``scale_tol(stack)``.  The thin SVD never forms the (m p) x (m p)
    left factor.  With ``diagonal=True`` the family is known to be diagonal:
    the singular values are the column norms of the stack and both bases are
    sets of coordinate vectors.
    """
    p = stack.shape[1]
    if tol is None:
        tol = scale_tol(stack)
    if diagonal:
        sigma = np.linalg.norm(stack, axis=0)
        vh = np.eye(p, dtype=complex)
    else:
        _, sigma, vh = np.linalg.svd(stack, full_matrices=False)
    above = sigma > tol
    return vh[above].conj().T, vh[~above].conj().T


def common_nullspace(hs: Sequence[np.ndarray], tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the joint kernel of a family of Hermitian matrices.

    Returns a ``p x d`` array whose columns span the intersection of the
    kernels; ``d = 0`` (an empty basis) is allowed.  Kernel membership is
    decided by ``joint_support``'s singular-value threshold: ``tol`` if
    given, otherwise ``1e-10 * (1 + Frobenius norm of the stacked family)``.
    """
    mats = [as_complex_matrix(h) for h in hs]
    if not mats:
        raise ValueError("empty matrix family")
    p = mats[0].shape[0]
    for m in mats:
        if m.shape != (p, p):
            raise ValueError(f"dimension mismatch in family: {m.shape} vs ({p}, {p})")
    return joint_support(np.vstack(mats), tol)[1]
