"""Dense complex linear algebra kernel for Hermitian matrices.

All matrices are plain ``numpy.ndarray`` objects with complex entries in
row-major order.  Hermitian inputs are symmetrized on entry, so callers may
pass matrices that are Hermitian only up to round-off.  Tolerances are
relative, ``rtol * (1 + Frobenius norm)`` (``scale_tol``), with the cuts of
``tolerances``.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .tolerances import SUPPORT_RTOL

# exp() overflows double precision just above this exponent
EXP_ARG_LIMIT = 700.0


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


def scale_tol(a: np.ndarray, rtol: float) -> float:
    """Relative tolerance at the Frobenius scale of ``a``."""
    return rtol * (1.0 + frobenius(a))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a*) / 2."""
    return (a + a.conj().T) / 2


def herm_eig(h: np.ndarray) -> EigDecomp:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is symmetrized first; non-convergence of the underlying QR
    iteration surfaces as a ``numpy.linalg.LinAlgError``.
    """
    w, u = np.linalg.eigh(hermitian_part(as_complex_matrix(h)))
    return EigDecomp(w, u)


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(hermitian_part(as_complex_matrix(h)))[0])


def joint_support(stack: np.ndarray, diagonal: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the joint support and the common kernel of a family.

    ``stack`` is the family of p x p matrices stacked vertically, shape
    (m p, p).  Returns ``(support, kernel)``, p x r and p x (p - r) arrays
    whose columns together form a unitary.  A right singular direction of the
    stack is in the kernel when its singular value is at most
    ``scale_tol(stack, SUPPORT_RTOL)``.  The thin SVD never forms the
    (m p) x (m p) left factor.  With ``diagonal=True`` the family is known to be diagonal: the
    singular values are the column norms of the stack and both bases are
    sets of coordinate vectors.
    """
    p = stack.shape[1]
    if diagonal:
        sigma = np.linalg.norm(stack, axis=0)
        vh = np.eye(p, dtype=complex)
    else:
        _, sigma, vh = np.linalg.svd(stack, full_matrices=False)
    above = sigma > scale_tol(stack, SUPPORT_RTOL)
    return vh[above].conj().T, vh[~above].conj().T


@functools.cache
def hermitian_index(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the p^2 real coordinates of a p x p Hermitian matrix sit.

    Returns their positions in the interleaved (re, im) view of the
    flattened matrix, the flat position of each one's entry, and their
    scales: the real diagonal, then sqrt(2) times the real parts and the
    imaginary parts of the strict upper triangle.
    """
    rows, cols = np.triu_indices(p, 1)
    entry = np.concatenate([np.arange(p) * (p + 1), rows * p + cols, rows * p + cols])
    part = np.repeat([0, 0, 1], [p, len(rows), len(rows)])
    scale = np.repeat([1.0, np.sqrt(2.0)], [p, 2 * len(rows)])
    index = (2 * entry + part, entry, scale)
    for a in index:
        a.flags.writeable = False
    return index


def coordinate_scale(p: int, weights: np.ndarray | None = None) -> np.ndarray:
    """The scale of each of the p^2 Hermitian coordinates (``hermitian_index``),
    times ``sqrt(phi_ab)`` of its entry for symmetric positive ``weights`` phi."""
    _, entry, scale = hermitian_index(p)
    return scale if weights is None else scale * np.sqrt(weights.ravel()[entry])


def hermitian_coordinates(stack: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Real coordinates of a (m, p, p) stack of Hermitian matrices, shape (m, p^2).

    The dot product of rows i and j is ``tr(C_i C_j)``, the real trace
    pairing: p^2 coordinates, half those of the interleaved (re, im) view.
    Only the real diagonal and the strict upper triangle are read, so a
    matrix that is Hermitian only up to round-off counts as the Hermitian
    matrix with that upper triangle.  With symmetric positive p x p
    ``weights`` phi, each coordinate is scaled by ``sqrt(phi_ab)``, so the
    dot product becomes ``sum_ab phi_ab Re(C_i[a, b] conj(C_j[a, b]))``.
    """
    m, p = stack.shape[0], stack.shape[-1]
    where = hermitian_index(p)[0]
    scale = coordinate_scale(p, weights)
    flat = np.ascontiguousarray(stack, dtype=complex).reshape(m, p * p).view(float)
    # take, unlike fancy indexing, gives a C-contiguous result for the SYRK
    coords = np.take(flat, where, axis=1)
    coords *= scale
    return coords
