"""Translate map-interpolation data into trace-constrained PSD feasibility.

An instance asks for a completely positive ``phi: M_n -> M_k`` with
``phi(A_nu) = B_nu``.  Equating entries of each image gives one linear trace
condition per output entry on the Choi matrix X:

    tr((A_nu^T kron E_lm) X) = B_nu[m, l],

with E_lm the (l, m) matrix unit of M_k.  These raw constraint matrices are
generally not selfadjoint; ``hermitize`` rewrites each complex equation as up
to two real equations with selfadjoint matrices ``C + C^*`` and
``i(C - C^*)``.  The resulting system "find X >= 0 with tr(C(i) X) = b_i" is
what the solvers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import linalg

# pivot threshold for real-linear dependence, relative to the largest pivot
DEPENDENCE_RTOL = 1e-10

# exact-structure detection (Hermitian data, diagonal matrices)
STRUCTURE_RTOL = 1e-12


@dataclass(frozen=True)
class Provenance:
    """Where a constraint came from.

    ``kind`` is "value" for an interpolation pair (indices ``(nu, m, l)``,
    1-based) or "trace" for a trace-preservation condition (indices
    ``(i, j)``).  ``part`` is "whole" for a raw or already-selfadjoint
    constraint, "re"/"im" for the two hermitized components.
    """

    kind: str
    indices: tuple
    part: str = "whole"

    def __str__(self) -> str:
        base = f"{self.kind}({', '.join(str(i) for i in self.indices)})"
        return base if self.part == "whole" else f"{base}.{self.part}"


@dataclass
class RawConstraint:
    """One complex trace equation ``tr(matrix @ X) = target``."""

    matrix: np.ndarray
    target: complex
    origin: Provenance


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
    The trace pairings ``tr(C(i) X)``, the combinations ``sum_i x_i C(i)``
    and the Gram matrix are then single GEMV/GEMM calls on ``flat``.
    ``targets`` has shape (q,).  ``provenance`` tracks the origin of every
    row for reporting.
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
        """Real Gram matrix of the constraints in the trace inner product.

        ``tr(C(a) C(b))`` equals the Frobenius product of C(a) and C(b)
        because every C(b) is selfadjoint.
        """
        flat = self.flat
        return (flat @ flat.conj().T).real


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


def assemble(inst: ProblemInstance) -> list[RawConstraint]:
    """Raw constraint list: one complex equation per pair and output entry.

    ``C(nu, m, l) = A_nu^T kron E_lm`` with target ``B_nu[m, l]``; the count
    is ``count * k**2``.  Indices in the provenance are 1-based.
    """
    raw = []
    for nu, (a, b) in enumerate(inst.pairs, start=1):
        at = a.T
        for m in range(inst.k):
            for l in range(inst.k):
                unit_lm = np.zeros((inst.k, inst.k), dtype=complex)
                unit_lm[l, m] = 1.0
                raw.append(
                    RawConstraint(
                        matrix=linalg.kron(at, unit_lm),
                        target=complex(b[m, l]),
                        origin=Provenance("value", (nu, m + 1, l + 1)),
                    )
                )
    return raw


def _conjugate_partner(origin: Provenance) -> tuple | None:
    """Provenance indices of the raw constraint conjugate to this one."""
    if origin.kind == "value":
        nu, m, l = origin.indices
        return (nu, l, m)
    if origin.kind == "trace":
        i, j = origin.indices
        return (j, i)
    return None


def _adjoint_paired(raw: Sequence[RawConstraint]) -> bool:
    """True when every raw constraint's conjugate partner is its exact adjoint.

    For "value" constraints this holds exactly when all A_nu and B_nu are
    selfadjoint, in which case the (m, l) and (l, m) equations carry the same
    information for Hermitian X and only one of each pair need be kept.
    """
    by_indices = {(rc.origin.kind, rc.origin.indices): rc for rc in raw}
    for rc in raw:
        partner_idx = _conjugate_partner(rc.origin)
        partner = by_indices.get((rc.origin.kind, partner_idx))
        if partner is None:
            return False
        scale = linalg.scale_tol(rc.matrix, STRUCTURE_RTOL)
        if linalg.frobenius(partner.matrix - rc.matrix.conj().T) > scale:
            return False
        if abs(partner.target - np.conj(rc.target)) > STRUCTURE_RTOL * (
            1.0 + abs(rc.target)
        ):
            return False
    return True


def hermitize(raw: Sequence[RawConstraint]) -> ConstraintSystem:
    """Rewrite complex trace equations as real equations with selfadjoint matrices.

    Each raw ``(C, b)`` becomes ``(C + C^*, 2 Re b)`` and ``(i(C - C^*), -2 Im b)``;
    constraints that are already selfadjoint with real targets pass through
    unchanged.  When the data is conjugate-paired (all A_nu, B_nu selfadjoint),
    only the couples with m <= l are kept, the rest being redundant for
    Hermitian X.

    Raises ``InconsistentSystemError`` when a selfadjoint constraint carries a
    non-real target (no Hermitian X can satisfy it).
    """
    raw = list(raw)
    if not raw:
        raise ValueError("empty constraint list")
    p = raw[0].matrix.shape[0]

    kept = []
    if _adjoint_paired(raw):
        seen = set()
        for rc in raw:
            key = (rc.origin.kind, rc.origin.indices)
            if key in seen:
                continue
            seen.add(key)
            seen.add((rc.origin.kind, _conjugate_partner(rc.origin)))
            kept.append(rc)
    else:
        kept = raw

    matrices, targets, provenance = [], [], []
    contradictions = []
    raw_scale = max(linalg.frobenius(rc.matrix) for rc in kept)

    def emit(h: np.ndarray, b: float, origin: Provenance, part: str):
        if linalg.frobenius(h) <= STRUCTURE_RTOL * (1.0 + raw_scale):
            # vanishing selfadjoint part: tr(0 X) = b is contradictory unless b = 0
            if abs(b) > 1e-12:
                contradictions.append((h, b, replace(origin, part=part)))
            return
        matrices.append(linalg.hermitian_part(h))
        targets.append(b)
        provenance.append(replace(origin, part=part))

    for rc in kept:
        c = rc.matrix
        adj = c.conj().T
        if linalg.frobenius(c - adj) <= linalg.scale_tol(c, STRUCTURE_RTOL):
            # already selfadjoint: pass through, but the target must be real
            if abs(rc.target.imag) > STRUCTURE_RTOL * (1.0 + abs(rc.target)):
                contradictions.append(
                    (np.zeros_like(c), -2.0 * rc.target.imag, replace(rc.origin, part="im"))
                )
            emit(c, rc.target.real, rc.origin, "whole")
        else:
            emit(c + adj, 2.0 * rc.target.real, rc.origin, "re")
            emit(1j * (c - adj), -2.0 * rc.target.imag, rc.origin, "im")

    if contradictions:
        # append the vanishing rows so a coordinate certificate can point at them
        for h, b, origin in contradictions:
            matrices.append(np.zeros((p, p), dtype=complex))
            targets.append(b)
            provenance.append(origin)
        system = ConstraintSystem(p, np.array(matrices), np.array(targets), provenance)
        first = len(matrices) - len(contradictions)
        coeffs = np.zeros(system.q)
        coeffs[first] = -np.sign(targets[first])
        raise InconsistentSystemError(
            f"constraint {provenance[first]} is contradictory: "
            f"tr(0 @ X) = {targets[first]:.6g} has no solution",
            system,
            coeffs,
            provenance[first],
        )

    return ConstraintSystem(p, np.array(matrices), np.array(targets), provenance)


def trace_preserving_raw(n: int, k: int) -> list[RawConstraint]:
    """Raw constraints encoding ``tr(phi(E_ij)) = delta_ij``.

    Summing the Choi trace formula over the output diagonal gives
    ``tr((E_ij^T kron I_k) X) = delta_ij``.
    """
    raw = []
    eye_k = np.eye(k, dtype=complex)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1.0
            raw.append(
                RawConstraint(
                    matrix=linalg.kron(unit.T, eye_k),
                    target=1.0 + 0j if i == j else 0j,
                    origin=Provenance("trace", (i + 1, j + 1)),
                )
            )
    return raw


def add_trace_preserving(sys: ConstraintSystem, n: int, k: int) -> ConstraintSystem:
    """Append hermitized trace-preservation constraints to a system."""
    if sys.p != n * k:
        raise ValueError(f"system dimension {sys.p} does not match n*k = {n * k}")
    tp = hermitize(trace_preserving_raw(n, k))
    return ConstraintSystem(
        sys.p,
        np.concatenate([sys.matrices, tp.matrices]),
        np.concatenate([sys.targets, tp.targets]),
        list(sys.provenance) + list(tp.provenance),
    )


def prune_dependent(sys: ConstraintSystem, tol: float = DEPENDENCE_RTOL) -> ConstraintSystem:
    """Keep a maximal real-linearly-independent subset, in order.

    Dependence is decided by Gram-Schmidt pivots: a constraint whose residual
    norm squared falls below ``tol * max pivot`` is a real combination of the
    retained ones.  Its target must match that combination; otherwise the
    whole system is contradictory and an ``InconsistentSystemError`` with a
    certificate is raised.

    The orthonormalized kept rows fill one preallocated array, so each of the
    two Gram-Schmidt passes is a pair of GEMVs.  The loop also records the
    triangular factor ``T`` with ``vecs[kept] = T @ ortho``; a dependent row
    ``h @ ortho`` then has the coefficients ``solve(T^T, h)`` on the kept rows.
    """
    # real vectors whose dot products are the trace pairings of the C(i)
    vecs = np.concatenate([sys.flat.real, sys.flat.imag], axis=1)
    norms2 = np.sum(vecs * vecs, axis=1)
    if sys.q == 0 or np.max(norms2) == 0.0:
        raise ValueError("cannot prune a system of zero constraints")
    pivot_cut = tol * float(np.max(norms2))
    b_cut = 100.0 * tol * (1.0 + float(np.max(np.abs(sys.targets))))

    rank_cap = min(vecs.shape)
    ortho = np.empty((rank_cap, vecs.shape[1]))
    tri = np.zeros((rank_cap, rank_cap))
    kept_idx: list[int] = []
    for i in range(sys.q):
        r = len(kept_idx)
        basis = ortho[:r]
        h = basis @ vecs[i]
        v = vecs[i] - h @ basis
        # second pass stabilizes near-dependent rows
        h2 = basis @ v
        v -= h2 @ basis
        h += h2
        pivot = float(v @ v)
        if pivot > pivot_cut:
            kept_idx.append(i)
            ortho[r] = v / np.sqrt(pivot)
            tri[r, :r] = h
            tri[r, r] = np.sqrt(pivot)
            continue
        # dependent: recover coefficients on the kept rows and check the target
        coeffs = np.linalg.solve(tri[:r, :r].T, h)
        predicted = float(coeffs @ sys.targets[kept_idx])
        gap = sys.targets[i] - predicted
        if abs(gap) > b_cut:
            cert = np.zeros(sys.q)
            cert[kept_idx] = coeffs
            cert[i] = -1.0
            if gap < 0:
                cert = -cert
            raise InconsistentSystemError(
                f"constraint {sys.provenance[i]} contradicts a combination of "
                f"earlier constraints (target gap {gap:.6g})",
                sys,
                cert,
                sys.provenance[i],
            )

    return ConstraintSystem(
        sys.p,
        sys.matrices[kept_idx],
        sys.targets[kept_idx],
        [sys.provenance[i] for i in kept_idx],
    )


def _all_diagonal(matrices: np.ndarray) -> bool:
    off = matrices - np.diagonal(matrices, axis1=1, axis2=2)[:, :, None] * np.eye(
        matrices.shape[1]
    )
    return float(np.max(np.abs(off))) <= STRUCTURE_RTOL * (
        1.0 + float(np.max(np.abs(matrices)))
    )


def joint_support_reduce(
    sys: ConstraintSystem, tol: float | None = None
) -> tuple[ConstraintSystem, SupportReduction]:
    """Compress the system onto the joint support of its constraint matrices.

    With K the common kernel and W an orthonormal basis of its complement
    (``linalg.joint_support``), every C(i) satisfies C(i) = P C(i) P for the
    projector P = W W^*, so ``tr(C(i) W X' W^*) = tr(W^* C(i) W X')`` and the
    compressed system ``(W^* C(i) W, b_i)`` has the same feasible targets.
    For all-diagonal systems the basis is the coordinate one, preserving
    diagonality.  When the kernel is trivial the basis is the identity and
    ``sys`` itself is returned, uncompressed.
    """
    w, _ = linalg.joint_support(
        sys.matrices.reshape(-1, sys.p), tol, diagonal=_all_diagonal(sys.matrices)
    )
    if w.shape[1] == sys.p:
        return sys, SupportReduction(basis=np.eye(sys.p, dtype=complex))
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


def is_diagonal_instance(inst: ProblemInstance, tol: float = STRUCTURE_RTOL) -> bool:
    """True when every A_nu and B_nu is diagonal within ``tol``."""
    for a, b in inst.pairs:
        for m in (a, b):
            off = m - np.diag(np.diag(m))
            if np.max(np.abs(off)) > tol:
                return False
    return True


def instance_system(
    inst: ProblemInstance, trace_preserving: bool | None = None
) -> ConstraintSystem:
    """Assemble and hermitize an instance, optionally appending channel constraints."""
    sys = hermitize(assemble(inst))
    tp = inst.trace_preserving if trace_preserving is None else trace_preserving
    if tp:
        sys = add_trace_preserving(sys, inst.n, inst.k)
    return sys
