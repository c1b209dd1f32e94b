"""Seeded instance generators for the benchmark workloads.

The recipes follow the planted generators of the test suite but live here on
purpose: an edit to the tests must not silently change a workload.  Only
numpy is used, and instances are written as plain JSON files in the format
the command line reads, so the program under test receives nothing but
those files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Largest condition number of the diagonal inputs that constrain the pruned
# system of a diagonal instance; see planted_diagonal.
MAX_DIAGONAL_COND = 100.0


@dataclass
class Planted:
    """One generated instance with the answer the benchmark expects."""

    n: int
    k: int
    pairs: list  # (A, B) pairs of complex arrays
    trace_preserving: bool
    expect: str  # "feasible" or "certified-infeasible"


def random_hermitian(rng: np.random.Generator, p: int, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return scale * (m + m.conj().T) / 2


def choi_image(x: np.ndarray, n: int, k: int, a: np.ndarray) -> np.ndarray:
    """phi(A) for the map whose Choi matrix has block (i, j) = phi(E_ij)."""
    return np.einsum("ij,imjl->ml", a, x.reshape(n, k, n, k))


def planted_exp(rng: np.random.Generator, n: int = 4, k: int = 4, pairs: int = 6) -> Planted:
    """Hermitian data with the strictly positive solution X = exp(random Hermitian)."""
    p = n * k
    w, u = np.linalg.eigh(random_hermitian(rng, p, scale=0.7 / np.sqrt(p)))
    x = (u * np.exp(w)) @ u.conj().T
    data = []
    for _ in range(pairs):
        a = random_hermitian(rng, n)
        data.append((a, choi_image(x, n, k, a)))
    return Planted(n, k, data, False, "feasible")


def planted_diagonal(rng: np.random.Generator, n: int = 4, k: int = 4, pairs: int = 6) -> Planted:
    """Well-conditioned diagonal data with a positive diagonal solution.

    The diagonals of the first ``n`` inputs are redrawn until their ``n x n``
    matrix has condition number at most ``MAX_DIAGONAL_COND``.  Pruning keeps
    those inputs, so this bounds the conditioning of every pruned system.
    About one draw in twenty is redrawn.  The test suite's recipe has no such
    filter; on its rare ill-conditioned draws (about one in a thousand) the
    program fails, as README.md records.
    """
    x = np.diag(np.exp(rng.uniform(-1.0, 1.0, size=n * k))).astype(complex)
    while True:
        diagonals = rng.uniform(-2.0, 2.0, size=(pairs, n))
        if np.linalg.cond(diagonals[:n]) <= MAX_DIAGONAL_COND:
            break
    data = []
    for d in diagonals:
        a = np.diag(d).astype(complex)
        data.append((a, choi_image(x, n, k, a)))
    return Planted(n, k, data, False, "feasible")


def planted_infeasible(rng: np.random.Generator, n: int = 3, pairs: int = 3) -> Planted:
    """Planted feasible data plus the pair (I, -I), which no positive map meets."""
    inst = planted_exp(rng, n, n, pairs)
    eye = np.eye(n, dtype=complex)
    inst.pairs.append((eye, -eye))
    inst.expect = "certified-infeasible"
    return inst


def generate(workload: str, rng: np.random.Generator) -> Planted:
    if workload == "feasible-exp":
        return planted_exp(rng)
    if workload == "diagonal-auto":
        return planted_diagonal(rng)
    if workload == "infeasible-certify":
        return planted_infeasible(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def write_instance(inst: Planted, path: Path) -> None:
    doc = {
        "n": inst.n,
        "k": inst.k,
        "trace_preserving": inst.trace_preserving,
        "pairs": [{"A": _matrix_json(a), "B": _matrix_json(b)} for a, b in inst.pairs],
    }
    path.write_text(json.dumps(doc))
