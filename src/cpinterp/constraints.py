"""Translate map-interpolation data into trace-constrained PSD feasibility.

An instance asks for a completely positive ``phi: M_n -> M_k`` with
``phi(A_nu) = B_nu``.  Equating entries of each image gives one linear trace
condition per output entry on the Choi matrix X:

    tr((A_nu^T kron E_lm) X) = B_nu[m, l],

with E_lm the (l, m) matrix unit of M_k.  For Hermitian X, a raw equation
``tr(C X) = b`` whose C is not selfadjoint is the pair of real equations
``tr((C + C^*) X) = 2 Re b`` and ``tr(i(C - C^*) X) = -2 Im b`` with
selfadjoint matrices.  The resulting system "find X >= 0 with
tr(C(i) X) = b_i" is what the solvers consume.

``instance_system`` builds that system: every raw matrix is a Kronecker
product of an n x n and a k x k matrix, so each hermitization decision is
made on the n x n data, and each output row is written once into one stack.
``prune_dependent`` then drops the real-linearly dependent rows, reading the
pivots off Householder QR: one factorization when no row is dependent, and
one of a shrinking trailing block per round of dropped rows.
``joint_support_reduce`` compresses the system onto the joint support of its
rows, which it reads off the n x n inputs: the rows share the kernel
``K kron C^k``, with K the common kernel of the ``A_nu^T`` and ``conj(A_nu)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import linalg
from .tolerances import DEPENDENCE_RTOL, STRUCTURE_RTOL, TARGET_GAP_FACTOR


@dataclass(frozen=True)
class Provenance:
    """Where a constraint came from.

    ``kind`` is "value" for an interpolation pair (indices ``(nu, m, l)``,
    1-based) or "trace" for a trace-preservation condition (indices
    ``(i, j)``).  ``part`` is "whole" for a raw or already-selfadjoint
    constraint, "re"/"im" for the two hermitized parts.
    """

    kind: str
    indices: tuple
    part: str = "whole"

    def __str__(self) -> str:
        base = f"{self.kind}({', '.join(str(i) for i in self.indices)})"
        return base if self.part == "whole" else f"{base}.{self.part}"


@dataclass
class ProblemInstance:
    """Interpolation data: pairs (A_nu, B_nu) and an optional channel flag."""

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


@dataclass
class ConstraintSystem:
    """Selfadjoint constraint matrices with real targets.

    ``matrices`` has shape (q, p, p) and is stored C-contiguous, so ``flat``
    is a (q, p*p) view of the same memory: row i is C(i) read row by row.
    The trace pairings ``tr(C(i) X)`` and the combinations
    ``sum_i x_i C(i)`` are single complex GEMV calls on ``flat``.  Every
    C(i) must be exactly Hermitian (a ``ValueError`` otherwise), since the
    Gram matrix, prune and the Newton Hessians read C(i) through its p^2
    real Hermitian coordinates (``linalg.hermitian_coordinates``): its
    diagonal and upper triangle.  ``targets`` has shape (q,).
    ``provenance`` tracks the origin of every row for reporting.
    """

    p: int
    matrices: np.ndarray
    targets: np.ndarray
    provenance: list = field(default_factory=list)

    def __post_init__(self):
        self.matrices = np.ascontiguousarray(self.matrices, dtype=complex)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.matrices.shape != (len(self.targets), self.p, self.p):
            raise ValueError(
                f"expected ({len(self.targets)}, {self.p}, {self.p}) matrices, "
                f"got {self.matrices.shape}"
            )
        if len(self.provenance) != len(self.targets):
            self.provenance = [
                Provenance("value", (i + 1,)) for i in range(len(self.targets))
            ]
        # exact equality: a tolerance test through np.abs costs 3-4 times as much
        adjoint = self.matrices.transpose(0, 2, 1).conj()
        if not np.array_equal(self.matrices, adjoint):
            i = int(np.flatnonzero(np.any(self.matrices != adjoint, axis=(1, 2)))[0])
            raise ValueError(f"constraint {self.provenance[i]} is not Hermitian")

    @property
    def q(self) -> int:
        return len(self.targets)

    @property
    def flat(self) -> np.ndarray:
        """The (q, p*p) view of ``matrices``."""
        return self.matrices.reshape(self.q, self.p * self.p)

    def traces(self, x: np.ndarray) -> np.ndarray:
        """Real parts of ``tr(C(i) x)`` for every row, as one GEMV."""
        return (self.flat @ np.asarray(x, dtype=complex).T.ravel()).real

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """Per-constraint residuals ``tr(C(i) x) - b_i`` for Hermitian x."""
        return self.traces(x) - self.targets

    def aggregate(self, coeffs: np.ndarray) -> np.ndarray:
        """Real linear combination ``sum_i coeffs[i] C(i)``."""
        return (np.asarray(coeffs, dtype=float) @ self.flat).reshape(self.p, self.p)

    def gram(self) -> np.ndarray:
        """Real Gram matrix ``tr(C(a) C(b))`` of the constraints.

        One SYRK of the rows' Hermitian coordinates, exactly symmetric.
        """
        coords = linalg.hermitian_coordinates(self.matrices)
        return coords @ coords.T


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


_WHOLE, _RE, _IM = 0, 1, 2
_PART_NAMES = ("whole", "re", "im")


def _plan_rows(
    origins: list, targets: np.ndarray, selfadjoint: np.ndarray, norms: np.ndarray,
    raw_scale: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Decide which hermitized rows a list of kept raw constraints gives.

    ``origins`` holds each raw row's provenance kind and indices, ``norms``
    its ``||C||``, ``||C + C^*||`` and ``||C - C^*||`` as columns.  A
    selfadjoint row gives its "whole" row, after the check that its target
    is real; any other row gives "re", then "im".  A row whose matrix
    vanishes (norm at most ``STRUCTURE_RTOL * (1 + raw_scale)``) is dropped,
    and contradicts the system unless its target is zero.

    Returns the raw row and the part of every output row, then the targets
    and provenance of the output rows followed by those of the
    contradictions, each in raw-row order.
    """
    t = np.asarray(targets, dtype=complex)
    sa = np.asarray(selfadjoint)[:, None]
    # two slots per raw row: (target check, whole) if selfadjoint, else (re, im)
    part = np.where(sa, [_IM, _WHOLE], [_RE, _IM])
    value = np.where(
        sa,
        np.stack([-2.0 * t.imag, t.real], axis=1),
        np.stack([2.0 * t.real, -2.0 * t.imag], axis=1),
    )
    norm = np.where(sa, np.stack([np.zeros(len(t)), norms[:, 0]], axis=1), norms[:, 1:])
    emit = norm > STRUCTURE_RTOL * (1.0 + raw_scale)
    # tr(0 X) = b is contradictory unless b = 0
    bad = ~emit & (np.abs(value) > STRUCTURE_RTOL)
    bad[:, 0] = np.where(
        sa[:, 0], np.abs(t.imag) > STRUCTURE_RTOL * (1.0 + np.abs(t)), bad[:, 0]
    )
    kept = np.flatnonzero(emit)
    order = np.concatenate([kept, np.flatnonzero(bad)])
    parts = part.ravel()
    provenance = [
        Provenance(*origins[s // 2], _PART_NAMES[parts[s]]) for s in order.tolist()
    ]
    return kept // 2, parts[kept], value.ravel()[order], provenance


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


class _PairRows:
    """Hermitized rows of the raw constraints of stacked pairs ``(A_nu, B_nu)``.

    The raw rows are ``C(nu, m, l) = A_nu^T kron E_lm`` with targets
    ``B_nu[m, l]``, ordered by nu, then m, then l, each kept "whole" when C
    is selfadjoint and split into "re" and "im" rows as in the module
    docstring otherwise (``_plan_rows``).  When every A_nu and B_nu is
    Hermitian, ``C(nu, l, m)`` is the adjoint of ``C(nu, m, l)`` with the
    conjugate target, and only the rows with m <= l are kept.  Since
    ``C(nu, m, l)^* = conj(A_nu) kron E_ml``, the norms these decisions rest
    on follow from the n x n data: ``||C|| = ||A_nu||``; for m = l,
    ``||C +- C^*|| = ||A_nu^T +- conj(A_nu)||`` and C is selfadjoint when
    A_nu is Hermitian; for m != l the two terms do not overlap, so both
    norms are ``sqrt(2) ||A_nu||``.

    Every output row is an n x n block at position (l, m), plus for m != l
    one at (m, l); ``write`` puts them in place.  ``origin(nu, m, l)`` gives
    the provenance kind and indices of a raw row (1-based).  With
    ``swapped`` the tensor factors trade places, so the blocks are the
    right-hand factor.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, origin, swapped: bool = False):
        self.block, self.unit, self.swapped = a.shape[1], b.shape[1], swapped
        at, ac = a.transpose(0, 2, 1), a.conj()
        herm, anti = at + ac, at - ac
        norm_a = np.linalg.norm(a, axis=(1, 2))
        norm_herm, norm_anti = (np.linalg.norm(h, axis=(1, 2)) for h in (herm, anti))
        hermitian = norm_anti <= STRUCTURE_RTOL * (1.0 + norm_a)
        paired = bool(np.all(hermitian)) and bool(np.all(
            np.abs(b.transpose(0, 2, 1) - b.conj()) <= STRUCTURE_RTOL * (1.0 + np.abs(b))
        ))
        k = self.unit
        m, l = np.triu_indices(k) if paired else np.indices((k, k)).reshape(2, -1)
        nu = np.repeat(np.arange(len(a)), len(m))
        m, l = np.tile(m, len(a)), np.tile(l, len(a))
        diag = m == l
        off = np.sqrt(2.0) * norm_a[nu]
        norms = np.stack(
            [norm_a[nu], np.where(diag, norm_herm[nu], off), np.where(diag, norm_anti[nu], off)],
            axis=1,
        )
        selfadjoint = np.where(diag, hermitian[nu], off <= STRUCTURE_RTOL * (1.0 + norm_a[nu]))
        origins = [
            origin(*idx) for idx in zip((nu + 1).tolist(), (m + 1).tolist(), (l + 1).tolist())
        ]
        rows, self.parts, self.targets, self.provenance = _plan_rows(
            origins, b[nu, m, l], selfadjoint, norms, float(np.max(norm_a))
        )
        self.nu, self.m, self.l = nu[rows], m[rows], l[rows]
        # block at (l, m) by part, for m = l and then for m != l; block at (m, l)
        self.first = np.stack([herm / 2, herm, 1j * anti, at / 2, at, 1j * at], axis=1)
        self.second = np.stack([ac / 2, ac, -1j * ac], axis=1)

    def write(self, out: np.ndarray) -> None:
        """Write the output rows into the zeroed ``(rows, p, p)`` stack ``out``."""
        if self.swapped:
            out5 = out.reshape(-1, self.unit, self.block, self.unit, self.block)
            out5 = out5.transpose(0, 2, 1, 4, 3)
        else:
            out5 = out.reshape(-1, self.block, self.unit, self.block, self.unit)
        r = np.arange(len(self.parts))
        off = self.m != self.l
        out5[r, :, self.l, :, self.m] = self.first[self.nu, self.parts + 3 * off]
        out5[r[off], :, self.m[off], :, self.l[off]] = self.second[
            self.nu[off], self.parts[off]
        ]


def _trace_rows(n: int, k: int) -> _PairRows:
    """Hermitized rows of ``tr((E_ij^T kron I_k) X) = tr(phi(E_ij)) = delta_ij``.

    ``E_ji kron I_k`` is ``I_k kron E_ji`` with the tensor factors swapped,
    so these are the rows of the pair ``(I_k, I_n)``, swapped.
    """
    return _PairRows(
        np.eye(k, dtype=complex)[None],
        np.eye(n, dtype=complex)[None],
        lambda nu, i, j: ("trace", (i, j)),
        swapped=True,
    )


def _stacked(p: int, blocks: list) -> ConstraintSystem:
    """One system of the blocks' rows, each written once into a zeroed stack."""
    matrices = np.zeros((sum(len(b.provenance) for b in blocks), p, p), dtype=complex)
    start = 0
    for b in blocks:
        b.write(matrices[start : start + len(b.parts)])
        start += len(b.provenance)
    return ConstraintSystem(
        p,
        matrices,
        np.concatenate([b.targets for b in blocks]),
        [t for b in blocks for t in b.provenance],
    )


def prune_dependent(sys: ConstraintSystem) -> ConstraintSystem:
    """Keep a maximal real-linearly-independent subset, in order.

    Row i is read as the real vector of C(i)'s p^2 Hermitian coordinates
    (``linalg.hermitian_coordinates``), whose dot products are the trace
    pairings, scaled with its target to unit norm, so that no row's scale
    decides another's fate.  A row is dropped when the squared norm of its
    residual after projecting out the kept rows before it is at most
    ``DEPENDENCE_RTOL``: it is then a real combination of those rows.

    The pivots come from Householder QR of the rows taken as columns.  An
    unpivoted QR measures each column against all earlier columns, dropped
    ones included, so its diagonal is exact only up to the first dropped row.
    Prune therefore works in rounds.  In a round, ``|R[j, j]|`` gives the
    pivots up to the first row j whose pivot is below the cut.  The rows
    before j are kept and span R's first j coordinates, so ``||R[j:, c]||``
    is the residual of every later column c against them.  Each column whose
    residual is below the cut is dropped in this round: a residual only
    shrinks as more rows are kept.  The block ``R[j:, rest]`` of the other
    columns is factored again for the next round.  Past R's last row the
    kept rows span every row, and all remaining rows are dropped.  Rows with
    no dependence cost one QR.

    A dropped row's target must match its combination of the rows kept
    before its round, whose coefficients c solve the triangular
    ``R[:j, :j]``.  At the first dropped row, in order, whose scaled target
    misses its combination's by more than ``TARGET_GAP_FACTOR *
    DEPENDENCE_RTOL * (1 + max|b|) * (1 + ||c||_1)``, with b the scaled
    targets, the whole system is contradictory, and an
    ``InconsistentSystemError`` with a certificate in the unscaled rows is
    raised.  A system of no constraints (every pair of an instance is zero),
    and one that keeps every row, is returned as it is.
    """
    if sys.q == 0:
        return sys
    # r factors the rows in ``cols`` (as columns); its first ``start`` are kept
    r = np.linalg.qr(linalg.hermitian_coordinates(sys.matrices).T, mode="r")
    # R's columns have the rows' norms, and scaling them is the QR of the scaled rows
    scale = np.sqrt(np.sum(r * r, axis=0))
    if np.max(scale) == 0.0:
        raise ValueError("cannot prune a system of zero constraints")
    scale[scale == 0.0] = 1.0  # a zero row stays zero and is dropped
    r /= scale
    targets = sys.targets / scale
    b_cut = TARGET_GAP_FACTOR * DEPENDENCE_RTOL * (1.0 + float(np.max(np.abs(targets))))
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
    return ConstraintSystem(
        sys.p,
        sys.matrices[cols],
        sys.targets[cols],
        [sys.provenance[i] for i in cols],
    )


def joint_support_reduce(
    sys: ConstraintSystem, inst: ProblemInstance
) -> tuple[ConstraintSystem, SupportReduction]:
    """Compress a system built from ``inst`` onto the joint support of its rows.

    Every row of ``instance_system(inst)`` is ``A_nu^T kron F`` or
    ``conj(A_nu) kron F`` (a hermitized part of one), with F a k x k matrix,
    or a trace row ``E_ji kron I_k``.  So the common kernel K of every
    ``A_nu^T`` and ``conj(A_nu)`` gives the common kernel ``K kron C^k`` of
    the value rows, and trace rows leave none.  Prune drops only
    combinations of kept rows, so the same holds for ``sys`` when it is a
    pruned copy.  With W_n an orthonormal basis of K's complement
    (``linalg.joint_support`` on the stacked ``A_nu^T`` and ``conj(A_nu)``)
    and ``W = W_n kron I_k``, every row satisfies C(i) = P C(i) P for the
    projector P = W W^*, so ``tr(C(i) W X' W^*) = tr(W^* C(i) W X')`` and the
    compressed system ``(W^* C(i) W, b_i)`` has the same feasible targets.
    When every A_nu is diagonal, W_n is a set of coordinate vectors, so a
    diagonal system stays diagonal.

    ``sys`` itself is returned, with the identity basis, when the kernel is
    trivial, when ``sys`` has trace rows, and when it has no rows at all:
    compressing a system of no constraints onto its empty support would
    leave only X = 0, while every positive X solves it.
    """
    identity = sys, SupportReduction(basis=np.eye(sys.p, dtype=complex))
    if sys.q == 0 or any(t.kind == "trace" for t in sys.provenance):
        return identity
    a = np.array([a for a, _ in inst.pairs])
    off = a - np.diagonal(a, axis1=1, axis2=2)[:, :, None] * np.eye(inst.n)
    diagonal = np.max(np.abs(off)) <= STRUCTURE_RTOL * (1.0 + np.max(np.abs(a)))
    stack = np.concatenate([a.transpose(0, 2, 1), a.conj()]).reshape(-1, inst.n)
    w, _ = linalg.joint_support(stack, diagonal=bool(diagonal))
    if w.shape[1] == inst.n:
        return identity
    w = np.kron(w, np.eye(inst.k))
    reduced = w.conj().T @ sys.matrices @ w
    reduced = (reduced + np.conj(np.swapaxes(reduced, 1, 2))) / 2
    return (
        ConstraintSystem(w.shape[1], reduced, sys.targets.copy(), list(sys.provenance)),
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
    """True when every A_nu and B_nu is diagonal within ``STRUCTURE_RTOL``."""
    for a, b in inst.pairs:
        for m in (a, b):
            off = m - np.diag(np.diag(m))
            if np.max(np.abs(off)) > STRUCTURE_RTOL:
                return False
    return True


def instance_system(
    inst: ProblemInstance, trace_preserving: bool | None = None
) -> ConstraintSystem:
    """Build the hermitized system of an instance, optionally with channel constraints.

    The rows are those of every pair (``_PairRows``), then the
    trace-preservation rows when ``trace_preserving`` (by default the
    instance's flag) asks for them.  Contradictory rows raise
    ``InconsistentSystemError``.
    """
    value = _PairRows(
        np.array([a for a, _ in inst.pairs]),
        np.array([b for _, b in inst.pairs]),
        lambda nu, m, l: ("value", (nu, m, l)),
    )
    p = inst.n * inst.k
    if len(value.provenance) > len(value.parts):
        raise _contradiction(_stacked(p, [value]), len(value.parts))
    tp = inst.trace_preserving if trace_preserving is None else trace_preserving
    return _stacked(p, [value, _trace_rows(inst.n, inst.k)] if tp else [value])
