"""Shared fixtures: the golden 2x2 instance, oracles, reference implementations
and planted generators."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

from cpinterp import linalg
from cpinterp.choi import ChoiMatrix, KrausSet, _psd_spectrum, apply_choi, kraus_to_choi
from cpinterp.constraints import (
    STRUCTURE_RTOL,
    ConstraintSystem,
    InconsistentSystemError,
    ProblemInstance,
    Provenance,
    instance_system,
    prune_dependent,
)

# Golden 2x2 interpolation instance and the reference solution of its
# exponential-potential minimization (frozen to the published precision).
A1 = np.array([[2.0, 1.0], [1.0, 0.0]])
A2 = np.array([[1.0, 1.0], [1.0, 2.0]])
B1 = np.array([[4.0, 0.0], [0.0, 0.0]])
B2 = np.array([[3.5, 1.5], [1.5, 2.5]])

X_REF = np.array(
    [
        [1.549937761, -0.1694804138, 0.4499571618, 0.4047411695],
        [-0.1694804138, 0.1534277390, -0.06572393508, -0.1533566973],
        [0.4499571618, -0.06572393508, 0.5249880063, 0.6652436210],
        [0.4047411695, -0.1533566973, 0.6652436210, 1.326699194],
    ]
)


def golden_instance() -> ProblemInstance:
    return ProblemInstance(2, 2, [(A1, B1), (A2, B2)])


def golden_system(pruned: bool = True):
    sys = instance_system(golden_instance())
    return prune_dependent(sys) if pruned else sys


def random_hermitian(rng: np.random.Generator, p: int, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return scale * (m + m.conj().T) / 2


def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def planted_instance(
    rng: np.random.Generator,
    n: int,
    k: int,
    num_pairs: int,
    hermitian_data: bool = True,
    exponent_scale: float = 0.7,
) -> tuple[ProblemInstance, np.ndarray]:
    """Instance with a known strictly positive Choi solution.

    X_true = exp(random Hermitian); B_nu is the image of A_nu under the map
    with that Choi matrix, so X_true satisfies every assembled constraint.
    """
    p = n * k
    y = random_hermitian(rng, p, scale=exponent_scale / np.sqrt(p))
    w, u = np.linalg.eigh(y)
    x_true = (u * np.exp(w)) @ u.conj().T
    pairs = []
    for _ in range(num_pairs):
        a = (
            random_hermitian(rng, n)
            if hermitian_data
            else random_complex(rng, n, n)
        )
        b = apply_choi(ChoiMatrix(n, k, x_true), a)
        pairs.append((a, b))
    return ProblemInstance(n, k, pairs), x_true


def norm_cap_instance() -> ProblemInstance:
    """Planted data plus the pair (I, -I), on which CG's iterates outgrow the
    norm cap (``DIVERGENCE_THRESHOLD``) before any evaluated point passes the
    recession test."""
    inst, _ = planted_instance(np.random.default_rng(45), 3, 3, 3)
    eye = np.eye(3, dtype=complex)
    return ProblemInstance(3, 3, inst.pairs + [(eye, -eye)])


def planted_diagonal_instance(
    rng: np.random.Generator, n: int, k: int, num_pairs: int
) -> tuple[ProblemInstance, np.ndarray]:
    """Diagonal instance with a known positive diagonal solution."""
    p = n * k
    x_true = np.diag(np.exp(rng.uniform(-1.0, 1.0, size=p))).astype(complex)
    pairs = []
    for _ in range(num_pairs):
        a = np.diag(rng.uniform(-2.0, 2.0, size=n)).astype(complex)
        b = apply_choi(ChoiMatrix(n, k, x_true), a)
        pairs.append((a, b))
    return ProblemInstance(n, k, pairs), x_true


def random_kraus_set(
    rng: np.random.Generator, n: int, k: int, count: int
) -> KrausSet:
    return KrausSet(n, k, [random_complex(rng, n, k) / np.sqrt(n * k) for _ in range(count)])


def random_channel_kraus(rng: np.random.Generator, n: int, count: int) -> KrausSet:
    """Kraus set normalized so the represented map is trace preserving."""
    vs = [random_complex(rng, n, n) for _ in range(count)]
    s = sum(v @ v.conj().T for v in vs)
    w, u = np.linalg.eigh(s)
    s_inv_half = (u * (1.0 / np.sqrt(w))) @ u.conj().T
    return KrausSet(n, n, [s_inv_half @ v for v in vs])


def with_common_kernel(inst: ProblemInstance) -> ProblemInstance:
    """``inst`` on its inputs padded by a zero last row and column, without
    trace preservation: the rows gain the common kernel ``e_{n+1} kron C^k``,
    which ``joint_support_reduce`` compresses away."""
    pairs = [(np.pad(a, ((0, 1), (0, 1))), b) for a, b in inst.pairs]
    return ProblemInstance(inst.n + 1, inst.k, pairs)


def vv_face_instance(seed: int, n: int = 3, k: int = 2) -> ProblemInstance:
    """A feasible instance with no strictly positive solution.

    Two Kraus maps both kill a vector v, and the inputs A1 and A2 = vv* - A1
    sum to vv*, so the outputs of the first two pairs sum to zero; a third
    pair is generic.  A PD-excluding certificate is equal on the rows of
    pairs 1 and 2 and zero on those of pair 3.
    """
    rng = np.random.default_rng(seed)
    v = random_complex(rng, n, 1)
    vv = v @ v.conj().T
    kill_v = np.eye(n) - vv / np.trace(vv).real
    kraus = [random_complex(rng, k, n) @ kill_v / n for _ in range(2)]
    a1, a3 = random_hermitian(rng, n), random_hermitian(rng, n)
    return ProblemInstance(
        n, k, [(a, sum(m @ a @ m.conj().T for m in kraus)) for a in (a1, vv - a1, a3)]
    )


# ---------------------------------------------------------------------------
# Reference rows: the dense (q, p, p) stack of a system, as the package once
# stored it.  The block readers of cpinterp.constraints must agree with it.


def reference_stack(sys: ConstraintSystem) -> np.ndarray:
    """The rows of ``sys`` as a (q, p, p) stack: ``kron(L, R)`` for L, then R,
    in each of its Kronecker blocks (for a built system, L runs over the
    halves' ``H^T``), written by one outer product and one transposing copy
    per block, then the rows that ``sys`` keeps.  No method of ``sys`` is
    called."""
    rows = []
    for left, right, _ in sys._blocks:
        (a, n, _), (j, k, _) = left.shape, right.shape
        outer = np.multiply.outer(left.ravel(), right.ravel()).reshape(a, n, n, j, k, k)
        rows.append(outer.transpose(0, 3, 1, 4, 2, 5).reshape(a * j, n * k, n * k))
    stack = np.concatenate(rows)
    return stack if sys._kept is None else stack[sys._kept]


# ---------------------------------------------------------------------------
# Reference build: the Hermitian halves of every pair, one kron and one
# RawConstraint per output entry of a half, and a row-by-row hermitization.
# The array-shaped build in cpinterp.constraints must give the same rows.


@dataclass
class RawConstraint:
    """One complex trace equation ``tr(matrix @ X) = target``."""

    matrix: np.ndarray
    target: complex
    origin: Provenance


@dataclass
class Half:
    """One Hermitian half ``(a, b)`` of pair ``nu``: "value" or "value-i"."""

    kind: str
    nu: int
    a: np.ndarray
    b: np.ndarray


def reference_halves(inst: ProblemInstance) -> tuple[list[Half], list[Half]]:
    """The kept and the contradicting Hermitian halves of the pairs, in order.

    ``(A - A^*)/2i`` is the Hermitian part of ``-iA``.  A half is zero when
    its A-part's norm is at most ``STRUCTURE_RTOL (1 + max ||A||)``, and a
    zero half contradicts when its B-part's norm is above
    ``STRUCTURE_RTOL (1 + ||B||)``.
    """
    a_scale = max(linalg.frobenius(a) for a, _ in inst.pairs)
    kept, bad = [], []
    for nu, (a, b) in enumerate(inst.pairs, start=1):
        for kind, h, g in (
            ("value", linalg.hermitian_part(a), linalg.hermitian_part(b)),
            ("value-i", linalg.hermitian_part(-1j * a), linalg.hermitian_part(-1j * b)),
        ):
            if linalg.frobenius(h) > STRUCTURE_RTOL * (1.0 + a_scale):
                kept.append(Half(kind, nu, h, g))
            elif linalg.frobenius(g) > linalg.scale_tol(b, STRUCTURE_RTOL):
                bad.append(Half(kind, nu, h, g))
    return kept, bad


def reference_assemble(inst: ProblemInstance) -> list[RawConstraint]:
    """``A^T kron E_lm`` with target ``B[m, l]`` for every kept half (A, B)."""
    raw = []
    for half in reference_halves(inst)[0]:
        at = half.a.T
        for m in range(inst.k):
            for l in range(inst.k):
                unit_lm = np.zeros((inst.k, inst.k), dtype=complex)
                unit_lm[l, m] = 1.0
                raw.append(
                    RawConstraint(
                        matrix=np.kron(at, unit_lm),
                        target=complex(half.b[m, l]),
                        origin=Provenance(half.kind, (half.nu, m + 1, l + 1)),
                    )
                )
    return raw


def reference_trace_preserving_raw(n: int, k: int) -> list[RawConstraint]:
    raw = []
    eye_k = np.eye(k, dtype=complex)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1.0
            raw.append(
                RawConstraint(
                    matrix=np.kron(unit.T, eye_k),
                    target=1.0 + 0j if i == j else 0j,
                    origin=Provenance("trace", (i + 1, j + 1)),
                )
            )
    return raw


def _conjugate_partner(origin: Provenance) -> tuple:
    if origin.kind == "trace":
        i, j = origin.indices
        return (j, i)
    nu, m, l = origin.indices
    return (nu, l, m)


def reference_hermitize(raw: Sequence[RawConstraint]) -> ConstraintSystem:
    """One row per adjoint pair of raw rows of Hermitian pairs.

    The raw row of a diagonal entry, ``H^T kron E_mm`` or ``E_ii kron I_k``,
    is selfadjoint and gives itself ("whole") with target ``Re b``.  Any
    other raw row C and its adjoint, the raw row of the transposed entry
    with the conjugate target, give ``C + C^*`` ("re") and ``i (C - C^*)``
    ("im"), with targets ``2 Re b`` and ``-2 Im b``.
    """
    raw = list(raw)
    by_indices = {(rc.origin.kind, rc.origin.indices): rc for rc in raw}
    matrices, targets, provenance = [], [], []
    for rc in raw:
        *_, row, col = rc.origin.indices
        partner = by_indices[(rc.origin.kind, _conjugate_partner(rc.origin))]
        assert np.array_equal(partner.matrix, rc.matrix.conj().T)
        assert partner.target == np.conj(rc.target)
        c, b = rc.matrix, rc.target
        if row == col:
            rows = [(c, b.real, "whole")]
        elif row < col:
            adj = c.conj().T
            rows = [(c + adj, 2.0 * b.real, "re"), (1j * (c - adj), -2.0 * b.imag, "im")]
        else:
            continue
        for h, target, part in rows:
            matrices.append(h)
            targets.append(target)
            provenance.append(replace(rc.origin, part=part))
    return ConstraintSystem(raw[0].matrix.shape[0], np.array(matrices), np.array(targets),
                            provenance)


def reference_instance_system(inst: ProblemInstance, trace_preserving: bool = False):
    sys = reference_hermitize(reference_assemble(inst))
    bad = reference_halves(inst)[1]
    if bad:
        # the zero rows of every contradicting half, with the targets its rows
        # would have; the first such half's largest target is the contradiction
        zero = reference_hermitize(
            RawConstraint(np.zeros((sys.p, sys.p), dtype=complex), complex(half.b[m, l]),
                          Provenance(half.kind, (half.nu, m + 1, l + 1)))
            for half in bad for m in range(inst.k) for l in range(inst.k)
        )
        first = sys.q + int(np.argmax(np.abs(zero.targets[: zero.q // len(bad)])))
        system = ConstraintSystem(
            sys.p,
            np.concatenate([reference_stack(sys), reference_stack(zero)]),
            np.concatenate([sys.targets, zero.targets]),
            list(sys.provenance) + list(zero.provenance),
        )
        coeffs = np.zeros(system.q)
        coeffs[first] = -np.sign(system.targets[first])
        raise InconsistentSystemError(
            f"constraint {system.provenance[first]} is contradictory: "
            f"tr(0 @ X) = {system.targets[first]:.6g} has no solution",
            system,
            coeffs,
            system.provenance[first],
        )
    if trace_preserving:
        tp = reference_hermitize(reference_trace_preserving_raw(inst.n, inst.k))
        sys = ConstraintSystem(
            sys.p,
            np.concatenate([reference_stack(sys), reference_stack(tp)]),
            np.concatenate([sys.targets, tp.targets]),
            list(sys.provenance) + list(tp.provenance),
        )
    return sys


# ---------------------------------------------------------------------------
# Reference Kraus extraction: one eigenpair at a time, as choi_to_kraus did
# before it handled all kept eigenvectors at once.


def reference_choi_to_kraus(c: ChoiMatrix, tol: float | None = None) -> KrausSet:
    """``conj(reshape(sqrt(lam) * u, (n, k)))`` per eigenpair above the cut, in
    descending order, with u rotated so its largest component is real positive."""
    w, u, cut = _psd_spectrum(c, tol)
    elements = []
    for r in range(len(w) - 1, -1, -1):
        if w[r] <= cut:
            break
        vec = u[:, r]
        pivot = vec[np.argmax(np.abs(vec))]
        if abs(pivot) != 0.0:
            vec = vec * (pivot.conjugate() / abs(pivot))
        elements.append((vec * np.sqrt(w[r])).conj().reshape(c.n, c.k))
    return KrausSet(c.n, c.k, elements)


# ---------------------------------------------------------------------------
# Reference report writer: one recursive call per value, each float
# formatted alone.  The row-wise writer in cpinterp.reports must print the
# same bytes and raise the same errors.


def _reference_format_float(x: float) -> str:
    if x != x:
        raise ValueError("cannot serialize NaN in a report")
    if x in (float("inf"), float("-inf")):
        raise ValueError("cannot serialize infinity in a report")
    text = format(x, ".17g")
    # make sure the token reads back as a float, not an int
    if "e" not in text and "." not in text:
        text += ".0"
    return text


def reference_dumps_canonical(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON with all floats at 17 significant digits."""
    if isinstance(obj, np.ndarray):  # written as the nested lists it holds
        obj = obj.tolist()
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _reference_format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [reference_dumps_canonical(v, indent + 1) for v in obj]
        if all(not isinstance(v, (list, tuple, dict)) for v in obj):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {reference_dumps_canonical(value, indent + 1)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
