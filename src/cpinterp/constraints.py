"""Translate map-interpolation data into trace-constrained PSD feasibility.

An instance asks for a completely positive ``phi: M_n -> M_k`` with
``phi(A_nu) = B_nu``.  A CP map preserves Hermiticity, so a pair holds
exactly when its two Hermitian halves do:

    ((A + A^*)/2, (B + B^*)/2)   and   ((A - A^*)/2i, (B - B^*)/2i).

A Hermitian pair (H, G) holds exactly when, for F over a basis of Herm(k),
the Choi matrix X meets the real trace condition

    tr((H^T kron F) X) = tr(F G),

with the selfadjoint matrix ``H^T kron F``.  Trace preservation is
``tr((G kron I_k) X) = tr G`` for G over a basis of Herm(n).  The resulting
system "find X >= 0 with tr(C(i) X) = b_i" is what the solvers consume.

``instance_system`` builds that system, each row kept only as the factors
of its Kronecker product (``ConstraintSystem``), and factors the rows from
the pairs (``ConstraintSystem.factor``): at unit norm the rows ``H^T kron F``,
over an orthogonal basis of Herm(k), have the Gram matrix ``G_H kron I``, so
one QR of the halves' n^2 coordinates, and one of the trace rows' residual
in n^2 coordinates, give the triangular factor R of all q rows (block QR,
Golub & Van Loan, *Matrix Computations*, 5.2).  ``prune_dependent`` drops
the real-linearly dependent rows, reading the pivots off that R.
``joint_support_reduce`` compresses the system onto the joint support of its
rows, the complement of ``K kron C^k`` for K the common kernel of the
halves' ``H^T``.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .tolerances import DEPENDENCE_RTOL, STRUCTURE_RTOL, TARGET_GAP_RTOL


@dataclass(frozen=True)
class Provenance:
    """Where a constraint came from.

    ``kind`` is "value" for the Hermitian half ``(A + A^*)/2`` of an
    interpolation pair, "value-i" for its half ``(A - A^*)/2i`` (indices
    ``(nu, m, l)``, 1-based), "trace" for a trace-preservation condition
    (indices ``(i, j)``), or "unit-trace" for the row ``(I, 1)`` that
    ``ConstraintSystem.with_unit_trace`` appends (no indices).  ``part``
    names the basis element of Herm(k), or of Herm(n) for a trace row:
    "whole" for ``E_mm``, "re" for ``E_lm + E_ml`` and "im" for
    ``i (E_lm - E_ml)``.  The label is formatted once, when the object is
    made, and ``instance_system`` makes each layout's labels once.
    """

    kind: str
    indices: tuple
    part: str = "whole"
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base = f"{self.kind}({', '.join(str(i) for i in self.indices)})"
        object.__setattr__(self, "_text", base if self.part == "whole" else f"{base}.{self.part}")

    def __str__(self) -> str:
        return self._text


@dataclass
class ProblemInstance:
    """Interpolation data: pairs (A_nu, B_nu) and an optional channel flag.

    The pairs are checked when the instance is made and split into their
    Hermitian halves once, on first use (``_halves``); make a new instance
    to change them.
    """

    n: int
    k: int
    pairs: list
    trace_preserving: bool = False

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("dimensions must be positive")
        if not self.pairs:
            raise ValueError("at least one (A, B) pair is required")
        checked = []
        for idx, (a, b) in enumerate(self.pairs):
            a = linalg.as_complex_matrix(a, f"A[{idx}]")
            b = linalg.as_complex_matrix(b, f"B[{idx}]")
            if a.shape != (self.n, self.n):
                raise ValueError(f"A[{idx}] must be {self.n} x {self.n}, got {a.shape}")
            if b.shape != (self.k, self.k):
                raise ValueError(f"B[{idx}] must be {self.k} x {self.k}, got {b.shape}")
            checked.append((a, b))
        self.pairs = checked

    @property
    def count(self) -> int:
        return len(self.pairs)

    @functools.cached_property
    def _halves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``_hermitian_halves`` of the pairs, read-only: the build, the support
        reduction and ``is_diagonal_instance`` all read them."""
        halves = _hermitian_halves(self)
        for array in halves:
            array.flags.writeable = False
        return halves


@dataclass
class ConstraintSystem:
    """Selfadjoint constraint rows with real targets.

    A system holds its rows only as Kronecker blocks (``_Block``: the rows
    ``L kron R`` of a left and a right stack) and the index ``_kept`` of the
    blocks' rows that it keeps, which prune sets.  A raw (q, p, p) stack
    ``matrices`` must be exactly Hermitian (a ``ValueError`` otherwise) and
    becomes the one block ``(C, [[1]])``.  ``provenance`` labels the rows.
    The build from pairs and the systems derived from a checked one (prune's
    subset, ``with_unit_trace`` and ``joint_support_reduce``), all exactly
    Hermitian by construction, are made by the private ``_derived``, which
    skips the check; only this module calls it.  The package reads the rows
    through ``traces``, ``residuals``, ``aggregate``, ``coordinates``,
    ``diagonals``, ``factor`` (the triangular factor from which prune and
    the projection decide linear dependence) and ``gram_solver``.
    """

    p: int
    matrices: InitVar[np.ndarray]
    targets: np.ndarray
    provenance: list = field(default_factory=list)
    _factor: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # (v, k^2): the first v columns of factor()'s R are R_H kron I_{k^2}
    _kron: tuple = field(default=(0, 1), init=False, repr=False, compare=False)
    # the rows as Kronecker blocks, and the indices of the kept ones in order (None: all)
    _blocks: tuple = field(default=(), init=False, repr=False, compare=False)
    _kept: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self, matrices):
        matrices = np.ascontiguousarray(matrices, dtype=complex)
        self.targets = np.asarray(self.targets, dtype=float)
        q = len(self.targets)
        if matrices.shape != (q, self.p, self.p):
            raise ValueError(f"expected ({q}, {self.p}, {self.p}) matrices, got {matrices.shape}")
        if len(self.provenance) != q:
            self.provenance = [Provenance("value", (i + 1,)) for i in range(q)]
        # exact equality: a tolerance test through np.abs costs 3-4 times as much
        adjoint = matrices.transpose(0, 2, 1).conj()
        if not np.array_equal(matrices, adjoint):
            i = int(np.flatnonzero(np.any(matrices != adjoint, axis=(1, 2)))[0])
            raise ValueError(f"constraint {self.provenance[i]} is not Hermitian")
        self._blocks = (_Block(matrices, *_right_stack(1, True)),)

    @classmethod
    def _derived(
        cls, p: int, targets: np.ndarray, provenance: list, blocks: tuple,
        kept: np.ndarray | None = None, factor: tuple | None = None, kron: tuple = (0, 1),
    ) -> ConstraintSystem:
        """A system, without the Hermitian check, of the rows at ``kept`` (all
        when None) of the Kronecker ``blocks``, which are exactly Hermitian by
        construction, with float ``targets`` and one label per row."""
        system = cls.__new__(cls)
        system.p, system.targets, system.provenance = p, targets, provenance
        system._blocks, system._kept = blocks, kept
        system._factor, system._kron = factor, kron
        return system

    @property
    def q(self) -> int:
        return len(self.targets)

    @property
    def _size(self) -> int:  # the number of the blocks' rows, kept or not
        return sum(len(b.left) * len(b.right) for b in self._blocks)

    def _rows(self, values: list) -> np.ndarray:
        """The per-block ``values`` of the blocks' rows, at the kept rows."""
        values = values[0] if len(values) == 1 else np.concatenate(values)
        return values if self._kept is None else values[self._kept]

    def traces(self, x: np.ndarray) -> np.ndarray:
        """Real parts of ``tr(C(i) x)``: ``sum L[s, t] R[u, v] x[(t, v), (s, u)]``
        for the rows ``L kron R`` of a block, all of them ``L_flat Z R_flat^T``,
        (a, n^2) (n^2, k^2) (k^2, j), with x^T regrouped as Z (n^2, k^2)."""
        x = np.asarray(x, dtype=complex)
        values = []
        for left, right, _ in self._blocks:
            (a, n, _), (j, k, _) = left.shape, right.shape
            z = x.reshape(n, k, n, k).transpose(2, 0, 3, 1).reshape(n * n, k * k)
            values.append((left.reshape(a, n * n) @ z @ right.reshape(j, k * k).T).real.ravel())
        return self._rows(values)

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """Per-constraint residuals ``tr(C(i) x) - b_i`` for Hermitian x."""
        return self.traces(x) - self.targets

    def aggregate(self, coeffs: np.ndarray) -> np.ndarray:
        """Real linear combination ``sum_i coeffs[i] C(i)``: per block the
        transpose of ``traces``, ``c^T (j, a) L_flat`` as one real GEMM on L's
        interleaved parts, times ``R_flat`` (j, k^2), regrouped to (p, p)."""
        coeffs = np.asarray(coeffs, dtype=float)
        if self._kept is not None:
            coeffs = np.bincount(self._kept, coeffs, self._size)
        parts, start = [], 0
        for left, right, _ in self._blocks:
            (a, n, _), (j, k, _) = left.shape, right.shape
            c = coeffs[start : start + a * j].reshape(a, j)
            mixed = (c.T @ left.reshape(a, n * n).view(float)).view(complex)
            parts.append((mixed.T @ right.reshape(j, k * k)).reshape(n, n, k, k).transpose(
                0, 2, 1, 3).reshape(self.p, self.p))
            start += a * j
        return functools.reduce(np.add, parts)

    def diagonals(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows' diagonals (q, p) and off-diagonal norms (q,): ``L kron R``
        has the diagonal ``kron(diag L, diag R)`` and the off-diagonal norm
        ``sqrt(|off L|^2 |R|^2 + |diag L|^2 |off R|^2)``, which keeps its own
        precision where a difference of squares would cancel."""
        diagonals, norms = [], []
        for left, right, _ in self._blocks:
            (dl, dl2, ol2), (dr, dr2, or2) = _split(left), _split(right)
            (a, n), (j, k) = dl.shape, dr.shape
            diagonals.append((dl[:, None, :, None] * dr[None, :, None, :]).reshape(a * j, n * k))
            norms.append(np.sqrt(np.outer(ol2, dr2 + or2) + np.outer(dl2, or2)).ravel())
        return self._rows(diagonals), self._rows(norms)

    def coordinates(
        self, rotation: np.ndarray | None = None, weights: np.ndarray | None = None
    ) -> np.ndarray:
        """``linalg.hermitian_coordinates(U^* C(i) U, weights)``, shape (q, p^2), for
        the p x p ``rotation`` U (the identity without one).  The first p
        coordinates are the diagonal; the rest have the off-diagonal norm.

        The rotation acts on the Kronecker blocks (Van Loan, "The ubiquitous
        Kronecker product", 2000).  With V_m the n x p rows of U at output
        index m, the rotated ``L kron R`` is ``sum_{m,l} R[m, l] Y_ml`` with
        ``Y_ml = V_m^* L V_l``.  Per block that is one complex GEMM
        ``(a n x n) @ (n x k p)`` and, per L, one real product
        ``(k p x 2n) @ (2n x 2 k p)`` for all its planes' real and imaginary
        parts, formed a group of factors at a time (``_PLANE_BYTES``): about
        ``a k^2 p^2 n`` multiply-adds against the ``2 a k^2 p^3`` of rotating
        each row.  Each R reads its planes as ``_right_stack`` says, one
        ``take`` per term at the coordinates' entries (``_plane_layout``),
        with its sign and weight.
        """
        if rotation is None:
            rotation = np.eye(self.p)
        c = rotation.shape[1]
        scale = linalg.coordinate_scale(c, weights)
        sizes = [len(b.left) * len(b.right) for b in self._blocks]
        rows = np.empty((self._size, c * c))
        start = 0
        for (left, right, (m, l, imaginary, weight)), size in zip(self._blocks, sizes):
            a, n, _ = left.shape
            k = right.shape[-1]
            kc = k * c
            where, sign = _plane_layout(c, k)
            # per term and R: the offset of the plane Y_ml, plus the entries
            index = np.take(where, imaginary, axis=0)
            index += (m * 2 * kc * c + l * c)[..., None]
            factor = np.take(sign * scale, imaginary, axis=0)
            factor *= weight[..., None]
            # V^* (L V) as one real product per L: [Re V^*, Im V^*] times
            # [[Re L V, Im L V], [-Im L V, Re L V]] is [Re Y | Im Y]
            v = rotation.reshape(n, kc)
            vh = v.conj().T
            vh = np.concatenate([vh.real, vh.imag], axis=1)
            lv = (left.reshape(a * n, n) @ v).reshape(a, n, kc)
            lv2 = np.empty((a, 2 * n, 2 * kc))
            lv2[:, :n, :kc] = lv2[:, n:, kc:] = lv.real
            lv2[:, :n, kc:] = lv.imag
            np.negative(lv.imag, out=lv2[:, n:, :kc])
            out = rows[start : start + size].reshape(a, len(right), c * c)
            step = max(1, min(a, _PLANE_BYTES // (16 * kc * kc)))
            planes = np.empty((step, kc, 2 * kc))
            term = np.empty((step, len(right), c * c))
            for i in range(0, a, step):
                g = min(step, a - i)
                np.matmul(vh, lv2[i : i + g], out=planes[:g])
                flat = planes[:g].reshape(g, -1)
                part = out[i : i + g]
                # the indices are in range by construction, and "clip" spares
                # take the buffered copy it makes of ``out`` in the default mode
                np.take(flat, index[0], axis=1, out=part, mode="clip")
                part *= factor[0]
                for r in range(1, len(index)):
                    np.take(flat, index[r], axis=1, out=term[:g], mode="clip")
                    term[:g] *= factor[r]
                    part += term[:g]
            start += size
        return rows if self._kept is None else rows[self._kept]

    def factor(self) -> tuple[np.ndarray, np.ndarray]:
        """An upper triangular R, of shape (min(p^2, q), q), with ``R^T R`` the
        Gram matrix ``tr(C(a) C(b))`` of the rows at unit norm (a zero row
        stays zero), and the row norms; ``R[j, j]^2`` is row j's squared
        residual after the rows before it.  The build, ``with_unit_trace``,
        prune and ``joint_support_reduce`` hand it over; only a system made
        from a raw stack of rows takes the QR of its coordinates, once."""
        if self._factor is None:
            r = np.linalg.qr(self.coordinates().T, mode="r")
            # R's columns have the rows' norms, and scaling them is the QR of the scaled rows
            norms = np.sqrt(np.sum(r * r, axis=0))
            r /= np.where(norms == 0.0, 1.0, norms)
            self._factor = r, norms
        return self._factor

    @functools.cached_property
    def gram_solver(self) -> Callable[[np.ndarray], np.ndarray] | None:
        """The map ``g -> G^{-1} g``, with ``G = N R^T R N`` the Gram matrix
        ``tr(C(a) C(b))`` of the rows, R and N the triangular factor and the
        row norms of ``factor()``; None unless R is square with every squared
        pivot above ``DEPENDENCE_RTOL``, as for a pruned system.

        It substitutes through R by blocks, each block by a triangular solve
        (backward stable, where a product with an explicit inverse is not).
        On a system built from pairs the first v columns of R are
        ``R_H kron I_{k^2}`` (``_pair_factor``), so they cost two solves with
        the h x h ``R_H`` on k^2 columns; the rest, the trace rows and the
        unit trace column, at most n^2 + 1 columns, form R's last block
        column.  A system made from a raw stack of rows has no such block.
        """
        r, norms = self.factor()
        if r.shape != (self.q, self.q) or not np.all(np.diagonal(r) ** 2 > DEPENDENCE_RTOL):
            return None
        v, k2 = self._kron
        h = v // k2
        r_h, b, d = r[:v:k2, :v:k2], r[:v, v:], r[v:, v:]

        def solve(g: np.ndarray) -> np.ndarray:
            # z = R^{-T} N^{-1} g, then y = R^{-1} z, R = [[R_H kron I, B], [0, D]]
            z = g / norms
            z1 = np.linalg.solve(r_h.T, z[:v].reshape(h, k2)).ravel()
            y2 = z[v:]
            if len(d):
                y2 = np.linalg.solve(d, np.linalg.solve(d.T, y2 - b.T @ z1))
                z1 = z1 - b @ y2
            y1 = np.linalg.solve(r_h, z1.reshape(h, k2)).ravel()
            return np.concatenate([y1, y2]) / norms

        return solve

    @functools.cached_property
    def _unit_fit(self) -> tuple[np.ndarray, float]:
        """The fit ``sum y_i C(i)`` of ``I / sqrt p`` by the rows (``G y`` is
        its pairings ``tr C(i) / sqrt p``), read-only, and the norm of its
        residual, the identity's pivot after the rows, taken directly, where
        ``sqrt(1 - |R N y|^2)`` would cancel when I is nearly in the span.  A
        ``ValueError`` unless ``gram_solver`` is defined, as for a pruned
        system."""
        solve = self.gram_solver
        if solve is None:
            raise ValueError("the identity fit needs a pruned system")
        unit = np.eye(self.p) / np.sqrt(self.p)
        y = solve(self.traces(unit))
        y.flags.writeable = False
        return y, float(np.linalg.norm(unit - self.aggregate(y)))

    def with_unit_trace(self) -> ConstraintSystem:
        """The rows at target 0, then ``(I, 1)``: its PSD solutions are the
        X with ``tr X = 1`` and every ``tr(C(i) X) = 0``.  ``self`` must be
        pruned (``_unit_fit``).  The unit identity's column joins R's last
        block column: its coordinates along the unit rows are ``R N y`` for
        the fit y, and its pivot is the fit's residual norm.  The block
        ``([I_n], [I_k])`` joins the blocks, with n and k those of the first.
        """
        q, p = self.q, self.p
        r, norms = self.factor()
        y, pivot = self._unit_fit
        ext = np.zeros((min(p * p, q + 1), q + 1))
        ext[:q, :q], ext[:q, q] = r, r @ (norms * y)
        ext[q:, q] = pivot
        n, k = self._blocks[0].left.shape[-1], self._blocks[0].right.shape[-1]
        unit = _Block(np.eye(n, dtype=complex)[None], *_right_stack(k, True))
        kept = None if self._kept is None else np.append(self._kept, self._size)
        return ConstraintSystem._derived(
            p, np.append(np.zeros(q), 1.0), [*self.provenance, _UNIT_TRACE],
            (*self._blocks, unit), kept, (ext, np.append(norms, np.sqrt(p))), self._kron,
        )


_UNIT_TRACE = Provenance("unit-trace", ())

# ``ConstraintSystem.coordinates`` forms the planes of a block's left factors in
# groups of at most this many bytes (at least one factor's planes): at p = 16 a
# product for all of them (393 KB) is mapped and faulted in afresh on every
# call inside a solve, while groups this small are reused from the heap; at
# p = 100 it bounds the temporaries by one factor's planes.
_PLANE_BYTES = 1 << 17


class _Block(NamedTuple):
    """The rows ``kron(L, R)`` for L in ``left`` (a, n, n), then R in ``right``
    (j, k, k), and ``right``'s reading (``_right_stack``): an instance's
    value rows are ``(H^T, basis of Herm(k))``, its trace rows
    ``(basis of Herm(n), [I_k])``, the unit-trace row ``([I_n], [I_k])``, and
    a raw stack of rows C is ``(C, [[1]])``."""

    left: np.ndarray
    right: np.ndarray
    reading: tuple


@functools.cache
def _right_stack(k: int, identity: bool) -> tuple[np.ndarray, tuple]:
    """``[I_k]``, or the basis of Herm(k) (``_hermitian_basis``), read-only,
    and its reading: the arrays ``(m, l, imaginary, w)``, of shape
    (terms, j), whose column gives each R as the sum of its terms
    ``w E_ml``, or ``w i E_ml`` where ``imaginary``, padded with ``w = 0``.
    Every entry of these stacks is real or imaginary, so each gives one
    term: ``E_mm`` has one, ``E_lm + E_ml`` and ``i (E_lm - E_ml)`` two,
    and ``I_k`` has k."""
    right = np.eye(k, dtype=complex)[None] if identity else _hermitian_basis(k)[0]
    j, m, l = np.nonzero(right)
    entry = right[j, m, l]
    counts = np.bincount(j)
    term = np.arange(len(j)) - np.repeat(np.cumsum(counts) - counts, counts)
    table = np.zeros((4, np.max(counts), len(right)))
    table[:, term, j] = m, l, entry.imag != 0, entry.real + entry.imag
    reading = (*table[:3].astype(np.intp), table[3])
    for a in (right, *reading):
        a.flags.writeable = False
    return right, reading


@functools.cache
def _plane_layout(p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Where ``ConstraintSystem.coordinates`` reads the p^2 Hermitian coordinates
    (``linalg.hermitian_index``) of a plane, and with which sign, read-only.

    A plane is a p x p block of the real parts of a (k p x k p) product, whose
    imaginary parts follow in the same row, k p further: entry (a, b) sits
    at ``a 2 k p + b`` from the plane's start.  Row 0 is for the plane
    itself.  Row 1 is for i times the plane, whose real part is minus the
    plane's imaginary part and whose imaginary part is the plane's real
    part."""
    where, entry, _ = linalg.hermitian_index(p)
    rows, cols = divmod(entry, p)
    imag = where - 2 * entry  # 1 for the coordinates of imaginary parts
    base = rows * 2 * k * p + cols
    layout = np.stack([base + imag * k * p, base + (1 - imag) * k * p]), np.stack(
        [np.ones(p * p), np.where(imag == 1, 1.0, -1.0)]
    )
    for a in layout:
        a.flags.writeable = False
    return layout


@dataclass
class SupportReduction:
    """Compression onto the joint support of the constraint matrices.

    ``basis`` is a p x p' matrix with orthonormal columns spanning the
    orthogonal complement of the common kernel.
    """

    basis: np.ndarray

    @property
    def full_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def reduced_dim(self) -> int:
        return self.basis.shape[1]


class InconsistentSystemError(Exception):
    """The linear constraints alone are contradictory (no Hermitian solution).

    Carries a system that exhibits the contradiction and certificate
    coefficients x over that system with ``sum x_i C(i) = 0`` and
    ``sum x_i b_i < 0`` - a valid PSD-excluding certificate.
    """

    def __init__(self, message: str, system: "ConstraintSystem",
                 certificate_coefficients: np.ndarray, offending: Provenance):
        super().__init__(message)
        self.system = system
        self.certificate_coefficients = certificate_coefficients
        self.offending = offending


@functools.cache
def _hermitian_basis(k: int) -> tuple[np.ndarray, tuple]:
    """A basis F of Herm(k), read-only, with the label ``((m, l), part)`` of each element.

    For each m <= l, in row-major order and 1-based in the labels: ``E_mm``
    ("whole") when m = l, else ``E_lm + E_ml`` ("re"), then
    ``i (E_lm - E_ml)`` ("im"), with E_lm the (l, m) matrix unit.  The
    elements are orthogonal in the trace pairing, of norm 1 ("whole") or
    sqrt 2.
    """
    matrices, labels = [], []
    for m in range(k):
        for l in range(m, k):
            for part in ("whole",) if m == l else ("re", "im"):
                f = np.zeros((k, k), dtype=complex)
                f[l, m], f[m, l] = (1j, -1j) if part == "im" else (1.0, 1.0)
                matrices.append(f)
                labels.append(((m + 1, l + 1), part))
    matrices = np.array(matrices)
    matrices.flags.writeable = False
    return matrices, tuple(labels)


@functools.cache
def _unit_basis(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis of Herm(k) at unit norm, as the columns of its Hermitian
    coordinates (an orthogonal k^2 x k^2 matrix), and the elements' norms."""
    coords = linalg.hermitian_coordinates(_hermitian_basis(k)[0])
    norms = np.linalg.norm(coords, axis=1)
    unit = coords.T / norms
    unit.flags.writeable = norms.flags.writeable = False
    return unit, norms


@functools.cache
def _pairing_index(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where ``_pairings`` reads each element of Herm(k)'s basis, read-only: its
    0-based entry (m, l), whether it is "im", and the factor of the entry's
    real part."""
    labels = _hermitian_basis(k)[1]
    m, l = np.array([idx for idx, _ in labels]).T - 1
    index = m, l, np.array([part == "im" for _, part in labels]), np.where(m == l, 1.0, 2.0)
    for a in index:
        a.flags.writeable = False
    return index


def _pairings(g: np.ndarray) -> np.ndarray:
    """``tr(F G)`` for G in the stack ``g`` of Hermitian matrices, then F over
    the basis of Herm(k) (``_hermitian_basis``), k being G's size.

    That is ``G[m, m]``, ``2 Re G[m, l]`` or ``-2 Im G[m, l]``, read off the
    entry, so that it is exact.
    """
    m, l, im, factor = _pairing_index(g.shape[-1])
    values = g[:, m, l]
    return np.where(im, -2.0 * values.imag, factor * values.real)


def _pair_factor(
    halves: np.ndarray, k: int, trace_preserving: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``factor()`` of the rows ``instance_system`` builds from the stack
    ``halves`` (h, n, n) of the kept halves' ``H^T``, without their stack.

    ``kron`` maps Herm(n) x Herm(k) isometrically onto Herm(p), so in
    product coordinates the unit row of ``H^T kron F_j`` is ``h kron e_j``,
    with h the unit coordinates of ``H^T`` and e_j those of the orthonormal
    ``F_j / |F_j|``, and its norm is ``|H| |F_j|``.  With the QR
    ``Hhat = Q_H R_H`` of the unit halves as columns (n^2 x h), the value
    rows' R is ``R_H kron I_{k^2}``.  The unit trace row of ``G_t kron I_k``
    is ``g_t kron u``, with u the coordinates of ``I_k / sqrt k``; its
    coordinates along the value rows' ``Q_H kron I`` are
    ``(Q_H^T Ghat) kron u``, and its residual ``(Q_perp^T Ghat) kron u``, in
    the complement ``Q_perp`` of ``Q_H``, is factored by a QR of
    ``Q_perp^T Ghat``, at most n^2 x n^2.  R is padded with zero rows to
    (min(p^2, q), q), the shape of the QR of the (p^2, q) coordinates.
    """
    h, n, _ = halves.shape
    n2, k2 = n * n, k * k
    coords = linalg.hermitian_coordinates(halves)
    h_norms = np.sqrt(np.sum(coords * coords, axis=1))
    f_unit, f_norms = _unit_basis(k)
    norms = (h_norms[:, None] * f_norms).ravel()
    if trace_preserving:
        q_h, r_h = np.linalg.qr(coords.T / h_norms, mode="complete")
    else:
        r_h = np.linalg.qr(coords.T / h_norms, mode="r")
    m = min(n2, h)  # the rows of R_H
    value = np.zeros((m, k2, h, k2))
    j = np.arange(k2)
    value[:, j, :, j] = r_h[:m]
    value = value.reshape(m * k2, h * k2)
    if not trace_preserving:
        return value, norms
    g_unit, g_norms = _unit_basis(n)
    u = f_unit.T @ linalg.hermitian_coordinates(np.eye(k)[None])[0] / np.sqrt(k)
    residual = np.linalg.qr(q_h[:, m:].T @ g_unit, mode="r")
    q = h * k2 + n2
    r = np.zeros((min(n2 * k2, q), q))
    r[: m * k2, : h * k2] = value
    r[: m * k2, h * k2 :] = np.kron(q_h[:, :m].T @ g_unit, u[:, None])
    r[m * k2 : m * k2 + len(residual), h * k2 :] = residual
    return r, np.concatenate([norms, g_norms * np.sqrt(k)])


_HALVES = ("value", "value-i")


def _hermitian_halves(
    inst: ProblemInstance,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Hermitian halves of every pair, and which of them count.

    Pair nu gives two halves, in order: ``((A + A^*)/2, (B + B^*)/2)``,
    named "value", and ``((A - A^*)/2i, (B - B^*)/2i)``, named "value-i".
    A half whose A-part has norm at most ``STRUCTURE_RTOL * (1 + max_nu
    ||A_nu||)`` is zero and gives no rows; it contradicts the data when its
    B-part's norm is above ``STRUCTURE_RTOL * (1 + ||B_nu||)``.  Returns the
    A-parts and the B-parts, of shapes (2 pairs, n, n) and (2 pairs, k, k),
    and the masks of the halves that are kept and of those that contradict.
    """
    a = np.array([a for a, _ in inst.pairs])
    b = np.array([b for _, b in inst.pairs])

    def split(m):
        adj = m.conj().transpose(0, 2, 1)
        return np.stack([(m + adj) / 2, -0.5j * (m - adj)], axis=1).reshape(-1, *m.shape[1:])

    ha, hb = split(a), split(b)
    norm_a, norm_b = np.linalg.norm(a, axis=(1, 2)), np.linalg.norm(b, axis=(1, 2))
    kept = np.linalg.norm(ha, axis=(1, 2)) > STRUCTURE_RTOL * (1.0 + np.max(norm_a))
    bad = ~kept & (
        np.linalg.norm(hb, axis=(1, 2)) > STRUCTURE_RTOL * (1.0 + np.repeat(norm_b, 2))
    )
    return ha, hb, kept, bad


def _contradiction(system: ConstraintSystem, first: int) -> InconsistentSystemError:
    """The error for the vanishing row ``first`` of ``system``, whose target is not zero."""
    coeffs = np.zeros(system.q)
    coeffs[first] = -np.sign(system.targets[first])
    return InconsistentSystemError(
        f"constraint {system.provenance[first]} is contradictory: "
        f"tr(0 @ X) = {system.targets[first]:.6g} has no solution",
        system,
        coeffs,
        system.provenance[first],
    )


def prune_dependent(sys: ConstraintSystem) -> ConstraintSystem:
    """Keep a maximal real-linearly-independent subset, in order.

    Row i is read as the real vector of C(i)'s p^2 Hermitian coordinates
    (``linalg.hermitian_coordinates``), whose dot products are the trace
    pairings, scaled with its target to unit norm, so that no row's scale
    decides another's fate.  A row is dropped when the squared norm of its
    residual after projecting out the kept rows before it is at most
    ``DEPENDENCE_RTOL``: it is then a real combination of those rows.

    The pivots come from ``sys.factor()``: an upper triangular R whose
    ``R^T R`` is the unit rows' Gram matrix, built by ``instance_system``
    from the pairs, extended by ``with_unit_trace``, or, for a raw stack of
    rows, the QR of the rows as columns.  Like an unpivoted QR, R measures
    each column against all earlier columns, dropped ones included, so its
    diagonal is exact only up to the first dropped row.
    Prune therefore works in rounds.  In a round, ``|R[j, j]|`` gives the
    pivots up to the first row j whose pivot is below the cut.  The rows
    before j are kept and span R's first j coordinates, so ``||R[j:, c]||``
    is the residual of every later column c against them.  Each column whose
    residual is below the cut is dropped in this round: a residual only
    shrinks as more rows are kept.  The block ``R[j:, rest]`` of the other
    columns is factored again for the next round.  Past R's last row the
    kept rows span every row, and all remaining rows are dropped.  Rows with
    no dependence cost no factorization here.

    A dropped row's target must match its combination of the rows kept
    before its round, whose coefficients c solve the triangular
    ``R[:j, :j]``.  At the first dropped row, in order, whose scaled target
    misses its combination's by more than ``TARGET_GAP_RTOL * (1 + max|b|)
    * (1 + ||c||_1)``, with b the scaled targets, the whole system is
    contradictory, and an ``InconsistentSystemError`` with a certificate in
    the unscaled rows is raised.  A system of no constraints, and one that
    keeps every row, is returned as it is; a pruned copy holds ``sys``'s
    blocks, the index of the rows it keeps, and their factor, the R of the
    last round.  Rows depend on earlier pairs' rows only half by half, and
    the QR of ``R_H kron I`` is ``QR(R_H) kron I``, so the kept value rows'
    block of that R keeps its Kronecker form (``gram_solver``).
    """
    if sys.q == 0:
        return sys
    # r factors the rows in ``cols`` (as columns); its first ``start`` are kept
    r, norms = sys.factor()
    if np.max(norms) == 0.0:
        raise ValueError("cannot prune a system of zero constraints")
    scale = np.where(norms == 0.0, 1.0, norms)
    targets = sys.targets / scale
    b_cut = TARGET_GAP_RTOL * (1.0 + float(np.max(np.abs(targets))))
    cols = np.arange(sys.q)
    start = 0
    offending = None  # (row, gap, certificate) of the first contradicted row
    while start < len(cols):
        pivots = np.diagonal(r)[start:] ** 2
        j = start + int(np.argmax(np.append(pivots, 0.0) <= DEPENDENCE_RTOL))
        if j == len(cols) or (offending is not None and offending[0] < cols[j]):
            break
        residual2 = np.sum(r[j:, j:] ** 2, axis=0)
        dropped = j + np.flatnonzero(residual2 <= DEPENDENCE_RTOL)
        rest = j + np.flatnonzero(residual2 > DEPENDENCE_RTOL)
        kept = cols[:j]
        coeffs = np.linalg.solve(r[:j, :j], r[:j, dropped])
        gaps = targets[cols[dropped]] - targets[kept] @ coeffs
        over = np.flatnonzero(np.abs(gaps) > b_cut * (1.0 + np.sum(np.abs(coeffs), axis=0)))
        if over.size and (offending is None or cols[dropped[over[0]]] < offending[0]):
            o, d = over[0], cols[dropped[over[0]]]
            cert = np.zeros(sys.q)
            cert[kept] = coeffs[:, o]
            cert[d] = -1.0
            # back to the unscaled rows, with -1 on the dropped one
            cert *= scale[d] / scale
            gap = float(gaps[o] * scale[d])
            offending = (d, gap, -cert if gap < 0 else cert)
        trailing = np.linalg.qr(r[j:, rest], mode="r")
        nxt = np.zeros((j + len(trailing), j + len(rest)))
        nxt[:j, :j] = r[:j, :j]
        nxt[:j, j:] = r[:j, rest]
        nxt[j:, j:] = trailing
        r, cols, start = nxt, np.concatenate([kept, cols[rest]]), j

    if offending is not None:
        i, gap, cert = offending
        raise InconsistentSystemError(
            f"constraint {sys.provenance[i]} contradicts a combination of "
            f"earlier constraints (target gap {gap:.6g})",
            sys,
            cert,
            sys.provenance[i],
        )
    if len(cols) == sys.q:
        return sys
    v, k2 = sys._kron
    return ConstraintSystem._derived(
        sys.p, sys.targets[cols], [sys.provenance[i] for i in cols.tolist()], sys._blocks,
        cols if sys._kept is None else sys._kept[cols],
        (r, norms[cols]), (int(np.count_nonzero(cols < v)), k2),
    )


@functools.cache
def _split_masks(m: int) -> np.ndarray:
    """Columns that pick an m x m matrix's real diagonal and off-diagonal parts."""
    diagonal = np.eye(m, dtype=bool).ravel()
    masks = np.zeros((m * m, 2, 2))
    masks[diagonal, 0, 0], masks[~diagonal, :, 1] = 1.0, 1.0
    masks.flags.writeable = False
    return masks.reshape(2 * m * m, 2)


def _split(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The real diagonals of a stack of Hermitian matrices, and the squared norms
    of the diagonals and of the off-diagonal parts, each summed over its own entries."""
    m = stack.shape[-1]
    flat = np.ascontiguousarray(stack).reshape(len(stack), m * m)
    norms = np.square(flat.view(float)) @ _split_masks(m)
    return flat[:, :: m + 1].real, norms[:, 0], norms[:, 1]


def _diagonal_halves(h: np.ndarray) -> np.ndarray:
    """Whether each matrix of the stack ``h`` is diagonal: its off-diagonal
    part has norm at most ``STRUCTURE_RTOL * (1 + max |H|)``."""
    off = np.sqrt(_split(h)[2])
    return off <= STRUCTURE_RTOL * (1.0 + np.max(np.abs(h), axis=(1, 2), initial=0.0))


def joint_support_reduce(
    sys: ConstraintSystem, inst: ProblemInstance
) -> tuple[ConstraintSystem, SupportReduction]:
    """Compress a system built from ``inst`` onto the joint support of its rows.

    Every value row of ``instance_system(inst)`` is ``H^T kron F``, with H
    the A-part of a kept Hermitian half, and every trace row is
    ``G kron I_k``.  So the common kernel K of the halves' ``H^T`` gives the
    common kernel ``K kron C^k`` of the value rows (``conj(H)`` is ``H^T``),
    and trace rows leave none; prune keeps a subset, for which the same
    holds.  With W_n an orthonormal basis of K's complement
    (``linalg.joint_support`` on the stacked ``H^T``) and
    ``W = W_n kron I_k``, every row has C(i) = P C(i) P for P = W W^*, so the
    compressed rows ``W^* C(i) W = (W_n^* L W_n) kron F``, compressed in
    their left factors, have the same feasible targets and the same
    pairings ``tr(C(a) C(b))``, and carry ``sys``'s ``factor()``.  When
    every H is diagonal (``_diagonal_halves``), W_n is a set of coordinate
    vectors, so a diagonal system stays diagonal.

    ``sys`` itself is returned, with the identity basis, when the kernel is
    trivial, when ``sys`` has trace rows, and when it has no rows at all:
    compressing a system of no constraints onto its empty support would
    leave only X = 0, while every positive X solves it.  So it is, too, when
    the support is empty: rows that the build keeps (``STRUCTURE_RTOL``) can
    lie in the kernel at the support cut (``SUPPORT_RTOL``), and skipping the
    reduction never changes feasibility.
    """
    identity = sys, SupportReduction(basis=np.eye(sys.p, dtype=complex))
    # trace rows come last, and prune keeps the order
    if sys.q == 0 or sys.provenance[-1].kind == "trace":
        return identity
    ha, _, kept, _ = inst._halves
    h = ha[kept]
    diagonal = bool(np.all(_diagonal_halves(h)))
    w_n, _ = linalg.joint_support(h.transpose(0, 2, 1).reshape(-1, inst.n), diagonal=diagonal)
    if w_n.shape[1] in (0, inst.n):
        return identity

    def compress(stack, w):
        c = w.conj().T @ stack @ w
        return (c + np.conj(np.swapaxes(c, 1, 2))) / 2

    # a left factor of size n m is compressed by W_n kron I_m
    blocks = tuple(
        b._replace(left=compress(b.left, np.kron(w_n, np.eye(b.left.shape[-1] // inst.n))))
        for b in sys._blocks
    )
    w = np.kron(w_n, np.eye(inst.k))
    return (
        ConstraintSystem._derived(w.shape[1], sys.targets.copy(), list(sys.provenance),
                                  blocks, sys._kept, sys.factor(), sys._kron),
        SupportReduction(basis=w),
    )


def embed_solution(xred: np.ndarray, red: SupportReduction) -> np.ndarray:
    """Lift a solution of the compressed system back to full dimension."""
    xred = linalg.as_complex_matrix(xred, "reduced solution")
    if xred.shape != (red.reduced_dim, red.reduced_dim):
        raise ValueError(
            f"reduced solution must be {red.reduced_dim} x {red.reduced_dim}, "
            f"got {xred.shape}"
        )
    return red.basis @ xred @ red.basis.conj().T


def is_diagonal_instance(inst: ProblemInstance) -> bool:
    """True when ``solve_diagonal`` takes every row that the instance gives.

    The rows of a kept Hermitian half (H, G) (``_hermitian_halves``) are
    ``H^T kron F``.  For a diagonal F the row's off-diagonal part is H's, so
    H must be diagonal: its off-diagonal part must have norm at most
    ``STRUCTURE_RTOL * (1 + max |H|)``, which is at most the cut at which
    ``solve_diagonal`` keeps the row, since a row's norm is at least its
    own H's largest entry.  For an off-diagonal F the row has a zero diagonal, and
    ``solve_diagonal`` drops it only when its target ``tr(F G)``
    (``_pairings``: ``2 Re G[m, l]`` or ``-2 Im G[m, l]``) is at most
    ``STRUCTURE_RTOL``: that is the rule for G's off-diagonal entries.
    Trace rows always qualify.
    """
    ha, hb, kept, _ = inst._halves
    if not np.all(_diagonal_halves(ha[kept])):
        return False
    m, l, _, _ = _pairing_index(inst.k)
    targets = _pairings(hb[kept])[:, m != l]
    return float(np.max(np.abs(targets), initial=0.0)) <= STRUCTURE_RTOL


@functools.lru_cache(maxsize=32)
def _value_provenance(k: int, halves: tuple) -> tuple:
    """The labels of the value rows of the Hermitian halves ``halves``
    (indices into the pairs' halves, in row order), by pair, then F."""
    labels = _hermitian_basis(k)[1]
    return tuple(
        Provenance(_HALVES[h % 2], (h // 2 + 1, *idx), part) for h in halves for idx, part in labels
    )


@functools.lru_cache(maxsize=32)
def _trace_provenance(n: int) -> tuple:
    """The labels of the trace rows of inputs of size n."""
    return tuple(Provenance("trace", idx, part) for idx, part in _hermitian_basis(n)[1])


def instance_system(
    inst: ProblemInstance, trace_preserving: bool | None = None
) -> ConstraintSystem:
    """Build the system of an instance, optionally with channel constraints.

    Each kept Hermitian half (H, G) of a pair (``_hermitian_halves``) gives
    the rows ``H^T kron F`` with targets ``tr(F G)``, for F over the basis of
    Herm(k) (``_hermitian_basis``), ordered by pair, then half, then F.
    Then, when ``trace_preserving`` (by default the instance's flag) asks
    for them, come the rows ``G kron I_k`` with targets ``tr G``, for G over
    the same basis of Herm(n).  When a half contradicts the data, an
    ``InconsistentSystemError`` is raised on the value rows followed by the
    zero rows of every contradicting half, with their targets ``tr(F G)``;
    it names the first contradicting half's row of largest ``|tr(F G)|``.

    The system skips ``ConstraintSystem``'s Hermitian check (``_derived``):
    the halves are exactly Hermitian, since ``(A + A^*)/2`` and
    ``-i (A - A^*)/2`` are computed entry by entry from the same two numbers,
    and so is every basis element; an IEEE complex product keeps conjugate
    symmetry exactly, so each entry of ``L kron R`` is the conjugate of its
    transposed entry.
    """
    ha, hb, kept, bad = inst._halves
    halves = np.concatenate([np.flatnonzero(kept), np.flatnonzero(bad)])
    # a contradicting half's rows are zero, with its own targets
    left = np.ascontiguousarray(np.where(kept[:, None, None], ha, 0.0)[halves].transpose(0, 2, 1))
    blocks = [_Block(left, *_right_stack(inst.k, False))]
    targets = [_pairings(hb[halves]).ravel()]
    provenance = list(_value_provenance(inst.k, tuple(halves.tolist())))
    tp = not bad.any() and (inst.trace_preserving if trace_preserving is None
                            else trace_preserving)
    if tp:
        blocks.append(_Block(_hermitian_basis(inst.n)[0], *_right_stack(inst.k, True)))
        targets.append(_pairings(np.eye(inst.n)[None])[0])
        provenance += _trace_provenance(inst.n)
    system = ConstraintSystem._derived(inst.n * inst.k, np.concatenate(targets), provenance,
                                       tuple(blocks))
    if bad.any():
        k2 = inst.k**2
        first = int(np.count_nonzero(kept)) * k2
        raise _contradiction(
            system, first + int(np.argmax(np.abs(system.targets[first : first + k2])))
        )
    if system.q:
        system._factor = _pair_factor(left, inst.k, tp)
        system._kron = (len(left) * inst.k**2, inst.k**2)
    return system
