"""The Choi correspondence between linear maps M_n -> M_k and nk x nk matrices.

Convention.  The Choi matrix of a map ``phi`` is the n x n block matrix whose
``(i, j)`` block is ``phi(E_ij)``, the image of the (i, j) matrix unit of M_n.
Rows and columns are indexed by pairs ``(i, m)`` with ``i`` the input index
and ``m`` the output index, ordered lexicographically and flattened as
``i * k + m`` (0-based), so that

    choi[(i, m), (j, l)] = phi(E_ij)[m, l].

A map is completely positive exactly when its Choi matrix is positive
semidefinite, and then ``phi(A) = sum_r V_r^* A V_r`` for n x k operation
elements obtained from the eigenvectors of the Choi matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .tolerances import RANK_RTOL


@dataclass
class ChoiMatrix:
    """Choi matrix of a linear map M_n -> M_k."""

    n: int
    k: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = linalg.as_complex_matrix(self.matrix, "Choi matrix")
        p = self.n * self.k
        if self.matrix.shape != (p, p):
            raise ValueError(
                f"Choi matrix for M_{self.n} -> M_{self.k} must be {p} x {p}, "
                f"got {self.matrix.shape}"
            )

    @property
    def dim(self) -> int:
        return self.n * self.k


@dataclass
class KrausSet:
    """Operation elements V_1..V_m of a completely positive map.

    Each element is an n x k matrix; the represented map is
    ``A -> sum_i V_i^* A V_i``.  An empty set represents the zero map.
    """

    n: int
    k: int
    elements: list = field(default_factory=list)

    def __post_init__(self):
        self.elements = [
            linalg.as_complex_matrix(v, f"Kraus element {i}")
            for i, v in enumerate(self.elements)
        ]
        for i, v in enumerate(self.elements):
            if v.shape != (self.n, self.k):
                raise ValueError(
                    f"Kraus element {i} must be {self.n} x {self.k}, got {v.shape}"
                )


def matrix_unit(n: int, i: int, j: int, k: int | None = None) -> np.ndarray:
    """Matrix unit E_ij of shape n x (k or n), 0-based indices."""
    m = np.zeros((n, n if k is None else k), dtype=complex)
    m[i, j] = 1.0
    return m


def choi_from_unit_images(n: int, k: int, images: Sequence[Sequence[np.ndarray]]) -> ChoiMatrix:
    """Assemble a Choi matrix from the images of the matrix units of M_n.

    ``images[i][j]`` must be the k x k image of E_ij; it becomes block
    ``(i, j)`` of the result.
    """
    if len(images) != n or any(len(row) != n for row in images):
        raise ValueError(f"expected an {n} x {n} table of images")
    phi = np.zeros((n * k, n * k), dtype=complex)
    for i in range(n):
        for j in range(n):
            block = linalg.as_complex_matrix(images[i][j], f"image[{i}][{j}]")
            if block.shape != (k, k):
                raise ValueError(
                    f"image[{i}][{j}] must be {k} x {k}, got {block.shape}"
                )
            phi[i * k : (i + 1) * k, j * k : (j + 1) * k] = block
    return ChoiMatrix(n, k, phi)


def apply_choi(c: ChoiMatrix, a: np.ndarray) -> np.ndarray:
    """Evaluate the map represented by a Choi matrix on an n x n input.

    Entry ``(m, l)`` of the result is ``tr((a^T kron E_lm) @ choi)``, which
    reduces to ``sum_ij a[i, j] * choi[(i, m), (j, l)]``.
    """
    a = linalg.as_complex_matrix(a, "input matrix")
    if a.shape != (c.n, c.n):
        raise ValueError(f"input must be {c.n} x {c.n}, got {a.shape}")
    blocks = c.matrix.reshape(c.n, c.k, c.n, c.k)
    return np.einsum("ij,imjl->ml", a, blocks)


def kraus_to_choi(ks: KrausSet) -> ChoiMatrix:
    """Choi matrix of ``A -> sum_i V_i^* A V_i``, as one matmul.

    ``(V^* E_ij V)[m, l] = conj(V[i, m]) V[j, l]``, so with the elements
    flattened row-major into the rows of W (one row each, entry ``i k + m``
    holding ``V[i, m]``) the Choi matrix is ``W^* W``.
    """
    w = np.asarray(ks.elements, dtype=complex).reshape(len(ks.elements), ks.n * ks.k)
    return ChoiMatrix(ks.n, ks.k, w.conj().T @ w)


def _psd_spectrum(c: ChoiMatrix, tol: float | None) -> tuple[np.ndarray, np.ndarray, float]:
    """The eigenvalues (ascending) and eigenvectors of a Choi matrix, and the
    rank cut: ``tol``, or by default ``RANK_RTOL * max eigenvalue``.

    Raises ``ValueError`` when the matrix is not PSD within the cut.
    """
    w, u = linalg.herm_eig(c.matrix)
    cut = tol if tol is not None else RANK_RTOL * max(float(w[-1]), 0.0)
    if w[0] < -cut:
        raise ValueError(
            f"Choi matrix is not positive semidefinite: min eigenvalue {w[0]:.6g} "
            f"below -{cut:.3g}"
        )
    return w, u, cut


def choi_to_kraus(c: ChoiMatrix, tol: float | None = None) -> KrausSet:
    """Extract operation elements from a PSD Choi matrix.

    Each eigenpair ``(lam, u)`` with ``lam > tol`` contributes the element
    ``conj(reshape(sqrt(lam) * u, (n, k)))``, in descending eigenvalue
    order; the conjugation makes ``kraus_to_choi`` invert this exactly.
    Each eigenvector's phase is fixed, so the output is deterministic: it is
    rotated so that its largest-magnitude component (the first, on ties) is
    real positive.  All kept eigenvectors are rotated and scaled at once.
    The default threshold is ``RANK_RTOL * max eigenvalue``.

    Raises ``ValueError`` when the matrix is not PSD within ``tol``.
    """
    w, u, cut = _psd_spectrum(c, tol)
    kept = np.flatnonzero(w > cut)[::-1]  # w ascends, so this is a suffix
    vecs = u[:, kept]
    # eigenvectors have unit norm, so no pivot is zero
    pivots = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(len(kept))]
    vecs = vecs * (pivots.conj() / np.abs(pivots)) * np.sqrt(w[kept])
    return KrausSet(c.n, c.k, list(vecs.T.conj().reshape(len(kept), c.n, c.k)))


def minimal_kraus_count(c: ChoiMatrix, tol: float | None = None) -> int:
    """Minimal number of operation elements = numerical rank of the Choi matrix."""
    w, _, cut = _psd_spectrum(c, tol)
    return int(np.count_nonzero(w > cut))
