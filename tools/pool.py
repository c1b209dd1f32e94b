"""Parity pool: run ``solve`` and ``certify`` on a fixed set of seeded
instances and write one canonical JSON line per run, so that two checkouts
can be compared run by run.

Usage (from the root of a checkout):

    python3 tools/pool.py run --out head.jsonl
    python3 tools/pool.py run --src ../parent --out parent.jsonl
    python3 tools/pool.py diff parent.jsonl head.jsonl

``run`` imports cpinterp from ``<src>/src`` (by default this checkout) and
calls ``cli.run_solve`` and ``cli.run_certify`` in process.  Each line holds
the run's name (recipe, seed, command), the status, the exit code, the
certificate's kind and source, the span check's source and answer,
``reduced_dim``, the number of rows that ``prune_dependent`` keeps of
``instance_system``'s, the CG and Newton step counts, the solver's message,
whether ``cli.run_verify`` passes every check on the report, the Choi
matrix rounded to 1e-9, and the SHA-256 of the canonical report without its
``timing`` block, which pins the report byte for byte.  A run that raises
records the exception instead.  ``diff`` names every run whose lines
differ, or that only one file has, and exits 1 if there is any.

The recipes live here, apart from the tests and the benchmark, so that an
edit to either does not change the pool.  Only numpy draws the data.
"""

from __future__ import annotations

import os

# One BLAS thread: the pool runs beside other work, and its lines must not
# depend on how a threaded BLAS splits a sum.  Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden" / "qubit_pair.json"
DEFAULT_COUNT = 67  # seeds per counted recipe, vv face 66 among them


def random_hermitian(rng, p: int, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return scale * (m + m.conj().T) / 2


def random_complex(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def choi_image(x: np.ndarray, n: int, k: int, a: np.ndarray) -> np.ndarray:
    """phi(A) for the map whose Choi matrix has block (i, j) = phi(E_ij)."""
    return np.einsum("ij,imjl->ml", a, x.reshape(n, k, n, k))


def planted(rng, n: int, k: int, pairs: int, hermitian: bool = True):
    """Data with the strictly positive solution X = exp(random Hermitian)."""
    p = n * k
    w, u = np.linalg.eigh(random_hermitian(rng, p, scale=0.7 / np.sqrt(p)))
    x = (u * np.exp(w)) @ u.conj().T
    inputs = [random_hermitian(rng, n) if hermitian else random_complex(rng, n, n)
              for _ in range(pairs)]
    return n, k, [(a, choi_image(x, n, k, a)) for a in inputs], False


def planted_diagonal(rng, n: int, k: int, pairs: int, max_cond: float = np.inf):
    """Diagonal data with a positive diagonal solution; the first n inputs'
    diagonals are redrawn until their condition number is at most ``max_cond``."""
    x = np.diag(np.exp(rng.uniform(-1.0, 1.0, size=n * k))).astype(complex)
    while True:
        diagonals = rng.uniform(-2.0, 2.0, size=(pairs, n))
        if np.linalg.cond(diagonals[:n]) <= max_cond:
            break
    inputs = [np.diag(d).astype(complex) for d in diagonals]
    return n, k, [(a, choi_image(x, n, k, a)) for a in inputs], False


def with_negative_identity(instance):
    """Add the pair (I, -I), which no positive map meets."""
    n, k, pairs, tp = instance
    return n, k, pairs + [(np.eye(n), -np.eye(k))], tp


def with_contradiction(instance, rng, zero_input: bool):
    """Add a pair that contradicts the data: the first input with a changed
    output (prune finds it), or a zero input with a nonzero output (the
    build finds it)."""
    n, k, pairs, tp = instance
    a, b = pairs[0]
    if zero_input:
        a, b = np.zeros_like(a), np.zeros_like(b)
    return n, k, pairs + [(a, b + random_hermitian(rng, k))], tp


def unitary_channel(rng, count: int):
    """A qubit unitary channel seen on ``count`` Hermitian inputs: feasible,
    with a rank-one Choi matrix and no strictly positive solution."""
    u, _ = np.linalg.qr(random_complex(rng, 2, 2))
    inputs = [random_hermitian(rng, 2) for _ in range(count)]
    return 2, 2, [(a, u @ a @ u.conj().T) for a in inputs], True


def vv_face(rng, n: int = 3, k: int = 2):
    """Two Kraus maps that kill a vector v, on inputs A1 and vv* - A1 and a
    generic A3: feasible, with no strictly positive solution."""
    v = random_complex(rng, n, 1)
    vv = v @ v.conj().T
    kill_v = np.eye(n) - vv / np.trace(vv).real
    kraus = [random_complex(rng, k, n) @ kill_v / n for _ in range(2)]
    a1, a3 = random_hermitian(rng, n), random_hermitian(rng, n)
    return n, k, [(a, sum(m @ a @ m.conj().T for m in kraus)) for a in (a1, vv - a1, a3)], False


def qubit_channel(rng, rank: int, inputs: list):
    """A trace-preserving map of M_2 with ``rank`` Kraus elements, the
    2 x 2 blocks of a random isometry, seen on ``inputs``."""
    q, _ = np.linalg.qr(random_complex(rng, 2 * rank, 2))
    kraus = q.reshape(rank, 2, 2)
    return 2, 2, [(a, sum(m @ a @ m.conj().T for m in kraus)) for a in inputs], True


def golden(_seed=None, scale: float = 1.0):
    """The golden instance, its second pair scaled by ``scale``."""
    doc = json.loads(GOLDEN.read_text())
    pairs = [(np.array(p["A"], dtype=complex), np.array(p["B"], dtype=complex))
             for p in doc["pairs"]]
    pairs[1] = (scale * pairs[1][0], scale * pairs[1][1])
    return doc["n"], doc["k"], pairs, doc["trace_preserving"]


# Draws (seed -> index) of 4 x 4 diagonal data with 6 pairs whose input
# diagonals have condition numbers 6e5, 2.8e4 and 1.3e4.
ILL_CONDITIONED = {580057656: 7, 203: 57, 303: 102}


def ill_conditioned_diagonal(seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(ILL_CONDITIONED[seed] + 1):
        instance = planted_diagonal(rng, 4, 4, 6)
    return instance


def drawn(make):
    """A recipe of a seed, from one of a seeded generator."""
    return lambda seed: make(np.random.default_rng(seed))


# recipe -> (instance from a seed, seeds; None for range(count)).  The first
# three are the benchmark's workloads.
RECIPES = {
    "bench-exp": (drawn(lambda rng: planted(rng, 4, 4, 6)), None),
    "bench-diagonal": (drawn(lambda rng: planted_diagonal(rng, 4, 4, 6, max_cond=100.0)), None),
    "bench-infeasible": (drawn(lambda rng: with_negative_identity(planted(rng, 3, 3, 3))), None),
    "hermitian": (drawn(lambda rng: planted(rng, 3, 2, 3)), None),
    "complex": (drawn(lambda rng: planted(rng, 2, 3, 3, hermitian=False)), None),
    "diagonal": (drawn(lambda rng: planted_diagonal(rng, 3, 3, 5)), None),
    "complex-infeasible": (
        drawn(lambda rng: with_negative_identity(planted(rng, 3, 3, 2, hermitian=False))), None
    ),
    "contradictory": (
        drawn(lambda rng: with_contradiction(planted(rng, 2, 3, 2), rng, zero_input=False)), None
    ),
    "zero-input": (
        drawn(lambda rng: with_contradiction(planted(rng, 2, 3, 2), rng, zero_input=True)), None
    ),
    "unitary-2": (drawn(lambda rng: unitary_channel(rng, 2)), None),
    "unitary-3": (drawn(lambda rng: unitary_channel(rng, 3)), None),
    "vv-face": (drawn(vv_face), None),
    "golden": (golden, [None]),
    # pinned by 4 inputs: feasible, with no strictly positive solution
    "channel-rank-2": (
        drawn(lambda rng: qubit_channel(rng, 2, [random_hermitian(rng, 2) for _ in range(4)])),
        None,
    ),
    # the seed is the exponent of the scale
    "golden-scaled": (lambda seed: golden(scale=10.0**seed), range(9)),
    "diagonal-ill": (ill_conditioned_diagonal, list(ILL_CONDITIONED)),
    # 10 Hermitian halves against n^2 = 9
    "complex-n3-k2": (drawn(lambda rng: planted(rng, 3, 2, 5, hermitian=False)), None),
    "channel-identity": (
        drawn(lambda rng: qubit_channel(
            rng, 3, [np.eye(2), random_hermitian(rng, 2), random_hermitian(rng, 2)])),
        None,
    ),
}


def pool(count: int, recipes: list[str]):
    """(name, instance tuple) of every instance, in a fixed order."""
    for recipe in recipes:
        make, seeds = RECIPES[recipe]
        for seed in range(count) if seeds is None else seeds:
            yield (recipe if seed is None else f"{recipe}/{seed}"), make(seed)


def _line(name: str, report: dict, code: int, dumps) -> dict:
    cert = report.get("certificate")
    span = report.get("span_check")
    solver = report["solver"]
    choi = report.get("choi")
    untimed = {key: value for key, value in report.items() if key != "timing"}
    return {
        "run": name,
        "status": report["status"],
        "exit": code,
        "certificate": None if cert is None else [cert["kind"], cert["source"]],
        "span_check": None if span is None else [span["source"],
                                                 span["contains_positive_definite"]],
        "reduced_dim": report.get("support", {}).get("reduced_dim"),
        "cg_iterations": solver["cg_iterations"],
        "newton_steps": solver["newton_steps"],
        "message": solver["message"],
        "choi": None if choi is None else (np.round(np.array(choi), 9) + 0.0).tolist(),
        "report_sha256": hashlib.sha256(dumps(untimed).encode()).hexdigest(),
    }


def run(src: Path, count: int, recipes: list[str], out) -> int:
    """Write the pool's lines for the checkout at ``src``; returns the run count."""
    sys.path.insert(0, str(src / "src"))
    from cpinterp import cli, reports
    from cpinterp.constraints import (
        InconsistentSystemError, ProblemInstance, instance_system, prune_dependent,
    )

    runs = 0
    with tempfile.TemporaryDirectory() as folder:
        instance_path, report_path = Path(folder, "instance.json"), Path(folder, "report.json")
        for name, (n, k, pairs, tp) in pool(count, recipes):
            inst = ProblemInstance(n, k, pairs, trace_preserving=tp)
            reports.write_instance(inst, instance_path)
            for command, solve in (("solve", cli.run_solve), ("certify", cli.run_certify)):
                label = f"{name}/{command}"
                try:
                    report, code = solve(inst, cli.SolveOptions())
                    line = _line(label, report, code, reports.dumps_canonical)
                    try:
                        line["pruned_rows"] = prune_dependent(instance_system(inst, tp)).q
                    except InconsistentSystemError:
                        line["pruned_rows"] = None
                    report_path.write_text(reports.dumps_canonical(report))
                    checks = cli.run_verify(report_path, instance_path)
                    line["verified"] = all(ok for _, ok, _ in checks)
                except Exception as exc:  # a run that raises is a result of the pool
                    line = {"run": label, "error": f"{type(exc).__name__}: {exc}"}
                out.write(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n")
                runs += 1
    return runs


def _read(path: Path) -> dict:
    lines = [json.loads(text) for text in path.read_text().splitlines() if text]
    return {line["run"]: line for line in lines}


def diff(before: Path, after: Path, out) -> int:
    """Name every run whose lines differ; returns the number of such runs."""
    old, new = _read(before), _read(after)
    differing = 0
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            out.write(f"{name}: only in {before if name in old else after}\n")
            differing += 1
            continue
        keys = sorted(key for key in old[name].keys() | new[name].keys()
                      if old[name].get(key) != new[name].get(key))
        if keys:
            out.write(f"{name}: {', '.join(keys)}\n")
            differing += 1
    out.write(f"{len(old.keys() | new.keys())} runs, {differing} differ\n")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="write one line per run")
    p_run.add_argument("--src", type=Path, default=ROOT, help="checkout to run (default: this one)")
    p_run.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
    p_diff = sub.add_parser("diff", help="name the runs whose lines differ")
    p_diff.add_argument("before", type=Path)
    p_diff.add_argument("after", type=Path)
    args = parser.parse_args(argv)

    if args.command == "diff":
        return 1 if diff(args.before, args.after, sys.stdout) else 0
    if args.out is None:
        run(args.src.resolve(), DEFAULT_COUNT, list(RECIPES), sys.stdout)
    else:
        with args.out.open("w") as out:
            run(args.src.resolve(), DEFAULT_COUNT, list(RECIPES), out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
