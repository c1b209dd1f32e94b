"""Size ladder: time every stage of the pipeline on planted instances of
growing size, one subprocess per rung, and write one JSON line per rung.

Usage (from the root of a checkout):

    python3 tools/ladder.py                       # rungs p = 16, 36, 64, 100
    python3 tools/ladder.py --rungs 16,36         # the small rungs
    python3 tools/ladder.py --rungs 144           # the large rung, on request
    python3 tools/ladder.py --src ../parent       # another checkout

Rung p has ``n = k = sqrt p`` and ``2 n`` Hermitian inputs (``pool.planted``,
seed 5), so that q = 2 n p rows, all independent.  Each rung runs in a fresh
process (``--rung``), which imports cpinterp from ``<src>/src`` with one BLAS
thread, so that ``ru_maxrss`` is the rung's own peak.  It takes the stages
of ``pipeline.run`` one by one (build, prune, support reduction, the exp
solve, the projection of the embedded solution, and the Kraus elements) and
reports the wall seconds of each, the process's peak RSS in MB, q, the rows
prune keeps, ``reduced_dim``, the solve's status and its CG and Newton steps.
The step counts are deterministic; the times are of one run.
"""

from __future__ import annotations

import os

# One BLAS thread, as in tools/pool.py and the benchmark.  Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_RUNGS = (16, 36, 64, 100)
SEED = 5


def rung(src: Path, p: int) -> dict:
    """Run the rung of size p on the checkout at ``src``, in this process."""
    sys.path.insert(0, str(src / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from pool import planted
    from cpinterp.choi import ChoiMatrix, choi_to_kraus
    from cpinterp.constraints import (
        ProblemInstance, embed_solution, instance_system, joint_support_reduce, prune_dependent,
    )
    from cpinterp.solvers import project_affine, solve_exp

    n = math.isqrt(p)
    if n * n != p:
        raise ValueError(f"a rung's size must be a square, got {p}")
    n, k, pairs, tp = planted(np.random.default_rng(SEED), n, n, 2 * n)
    inst = ProblemInstance(n, k, pairs, trace_preserving=tp)
    seconds = {}

    def stage(name, call, *args):
        started = time.perf_counter()
        value = call(*args)
        seconds[name] = round(time.perf_counter() - started, 6)
        return value

    built = stage("build", instance_system, inst)
    pruned = stage("prune", prune_dependent, built)
    reduced, reduction = stage("support", joint_support_reduce, pruned, inst)
    outcome = stage("solve", solve_exp, reduced)
    choi = stage("projection", lambda: project_affine(
        embed_solution(outcome.solution, reduction), pruned))
    stage("kraus", choi_to_kraus, ChoiMatrix(n, k, choi))
    return {
        "p": p,
        "q": built.q,
        "pruned_rows": pruned.q,
        "reduced_dim": reduction.reduced_dim,
        "status": outcome.status.value,
        "cg_steps": outcome.cg_iterations,
        "newton_steps": outcome.newton_steps,
        "seconds": seconds,
        # kilobytes on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def ladder(src: Path, rungs, out) -> list[dict]:
    """Run each rung in its own process and write its line to ``out``."""
    lines = []
    for p in rungs:
        done = subprocess.run(
            [sys.executable, __file__, "--src", str(src), "--rung", str(p)],
            check=True, capture_output=True, text=True,
        )
        line = json.loads(done.stdout.splitlines()[-1])
        out.write(json.dumps(line, sort_keys=True) + "\n")
        out.flush()
        lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="checkout to run (default: this one)")
    parser.add_argument("--rungs", default=",".join(map(str, DEFAULT_RUNGS)),
                        help="comma-separated sizes p, each a square (default: %(default)s)")
    parser.add_argument("--rung", type=int, default=None,
                        help="run the one rung p in this process (what each subprocess does)")
    args = parser.parse_args(argv)
    if args.rung is not None:
        print(json.dumps(rung(args.src.resolve(), args.rung), sort_keys=True))
    else:
        ladder(args.src.resolve(), [int(p) for p in args.rungs.split(",")], sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
