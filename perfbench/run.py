"""Benchmark of the cpinterp command line on planted instances.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload feasible-exp --seed 1 --seconds 30 --trace 0

Set-up imports cpinterp from ``src/`` of the checkout, generates the
workload's instances from ``--seed`` and writes them as instance files, then
makes one untimed warm-up call; it is repeated and its median reported.  The
measured loop is closed, with one client in one process: each timed
operation is one in-process ``cpinterp.cli.main([command, instance, "--out",
report])`` call, and the next call starts only after the previous one has
returned.  Every report is checked outside the timed span (see checker.py),
and each call's time is scaled by a reference kernel run right after it
(see reference.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
instance once untraced and once with the layer wrappers of tracer.py
installed, and prints the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it restate the
metrics with their context and record the environment.
"""

from __future__ import annotations

import os

# One process, one BLAS thread: the load never uses more threads than cores,
# and small kernels do not pay for thread hand-offs.  Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checker  # noqa: E402
import instances  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# workload -> (subcommand, instances generated per set-up)
WORKLOADS = {
    "feasible-exp": ("solve", 128),
    "diagonal-auto": ("solve", 128),
    "infeasible-certify": ("certify", 32),
}
SETUP_REPEATS = 5
# Untimed calls after set-up: the first second of calls in a process runs
# slower (clock ramp-up, first-touch pages), which would skew short runs.
SETTLE_SECONDS = 1.0
CG_CAP = 10000  # the CLI's default --max-iters; instance files set no solver section
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS or MKL, asked through its own API."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "blas" in line.lower() or "mkl" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "MKL_Get_Max_Threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python_threads": threading.active_count(),
        "load": "closed loop, 1 client, 1 process",
    }


def set_up(workload: str, seed: int, work: Path):
    """Import cpinterp afresh, write the instance files, make one warm-up call."""
    start = time.perf_counter()
    for name in [m for m in sys.modules if m == "cpinterp" or m.startswith("cpinterp.")]:
        del sys.modules[name]
    cli = importlib.import_module("cpinterp.cli")
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(WORKLOADS[workload][1]):
        inst = instances.generate(workload, rng)
        path = work / f"instance-{i}.json"
        instances.write_instance(inst, path)
        pool.append((inst, path))
    command = WORKLOADS[workload][0]
    cli.main([command, str(pool[0][1]), "--out", str(work / "warm-up.json")])
    return cli, pool, time.perf_counter() - start


def settle(cli, command: str, pool, work: Path) -> None:
    deadline = time.perf_counter() + SETTLE_SECONDS
    i = 0
    while time.perf_counter() < deadline:
        cli.main([command, str(pool[i % len(pool)][1]), "--out", str(work / "warm-up.json")])
        i += 1


def tail(samples: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it.

    Nearest-rank percentiles, never below the median.  A run with fewer than
    2 * TAIL_BEYOND samples has no such percentile above the median; it
    reports the median, and the count beyond it shows the shortfall.  (The
    maximum would be the alternative, but its value jumps when the sample
    count crosses that threshold.)
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 50, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1], n - rank
    median = statistics.median(ordered)
    return 50, median, sum(v > median for v in ordered)


class Runner:
    """Makes the CLI calls and counts their failures."""

    def __init__(self, cli, command: str, work: Path):
        self.cli = cli
        self.command = command
        self.report = work / "report.json"
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, inst, path: Path, spans=None) -> float | None:
        """One timed CLI call; returns its seconds, or None when it failed."""
        self.report.unlink(missing_ok=True)
        argv = [self.command, str(path), "--out", str(self.report)]
        self.attempted += 1
        try:
            if spans is None:
                start = time.perf_counter()
                code = self.cli.main(argv)
                seconds = time.perf_counter() - start
            else:
                code, seconds = spans.call(self.cli.main, argv)
        except Exception as exc:  # a crash of the program is a failed instance
            self.failures.append(f"{path.name}: {type(exc).__name__}: {exc}")
            return None
        reason = checker.judge(inst, code, self.report, path)
        if reason is not None:
            self.failures.append(f"{path.name}: {reason}")
            return None
        return seconds

    def read_report(self) -> dict:
        return json.loads(self.report.read_text())


def measure_end_to_end(runner: Runner, pool, seconds: float) -> tuple[dict, float]:
    """Timed calls for ``seconds``; returns the metrics and the median speed factor.

    The reference kernel runs right after each call, outside its timed span,
    and the call's time is scaled by ``reference.NOMINAL_S / kernel time``.
    Pairing each call with the kernel run next to it follows speed changes
    within a run, not only between runs.
    """
    raw, scaled, factors = [], [], []
    data = reference.make_data()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        inst, path = pool[i % len(pool)]
        i += 1
        dt = runner.call(inst, path)
        factor = reference.NOMINAL_S / reference.run(data)
        factors.append(factor)
        if dt is not None:
            raw.append(dt)
            scaled.append(dt * factor)
    if not scaled:
        raise SystemExit("no instance completed; failures: " + "; ".join(runner.failures[:5]))
    pct, tail_value, beyond = tail(scaled)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "latency_p50_s": (statistics.median(scaled), "s",
                          f"median of {len(scaled)} calls; raw {statistics.median(raw):.6g} s"),
        "latency_tail_s": (tail_value, "s",
                           f"p{pct} of {len(scaled)} calls, {beyond} beyond it; "
                           f"raw p{pct} {tail(raw)[1]:.6g} s"),
        "throughput_inst_per_s": (len(scaled) / sum(scaled), "1/s",
                                  "completed instances per second of CLI calls; "
                                  f"raw {len(raw) / sum(raw):.6g}"),
        "pass_frac": ((runner.attempted - len(runner.failures)) / runner.attempted, "frac",
                      f"fail_frac = {len(runner.failures)}/{runner.attempted} = "
                      f"{len(runner.failures) / runner.attempted:.4g}"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB", "peak resident set of this process"),
    }, statistics.median(factors)


def measure_layers(runner: Runner, pool, seconds: float) -> tuple[dict, list]:
    """Each instance untraced and traced, alternating which goes first."""
    spans = tracer.Tracer()
    plain, traced, reports = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        inst, path = pool[i % len(pool)]
        pair = {}
        for traced_call in ((False, True) if i % 2 == 0 else (True, False)):
            pair[traced_call] = runner.call(inst, path, spans if traced_call else None)
            if traced_call and pair[True] is not None:
                reports.append(runner.read_report())
        i += 1
        if pair[False] is not None and pair[True] is not None:
            plain.append(pair[False])
            traced.append(pair[True])
    count = spans.calls[tracer.ROOT]
    if not reports or count == 0:
        raise SystemExit("no traced instance completed; failures: "
                         + "; ".join(runner.failures[:5]))

    metrics = {}
    absent = []
    for name, _, _ in tracer.SPANS:
        if name in spans.absent:
            absent.append(name)
            continue
        metrics[f"{name}_s"] = (spans.total[name] / count, "s", "inclusive, per instance")
        metrics[f"{name}_calls"] = (spans.calls[name] / count, "count", "per instance")
    pipeline = [n for n in ("cli.run_solve", "cli.run_certify") if n not in spans.absent]
    if pipeline:
        metrics["cli.pipeline_s"] = (sum(spans.self_time[n] for n in pipeline) / count, "s",
                                     "self time of " + " and ".join(pipeline))
    root_seconds = spans.total[tracer.ROOT]
    for layer in tracer.LAYERS:
        own = sum(t for n, t in spans.self_time.items()
                  if n.split(".")[0] == layer or (layer == "cli" and n == tracer.ROOT))
        metrics[f"{layer}.self_s"] = (own / count, "s", "self time, per instance")
        metrics[f"{layer}.share"] = (own / root_seconds, "frac", "of the traced CLI call")

    for key, label in (("constraints.build", "q_built"), ("constraints.prune", "q_pruned")):
        values = [v for v in spans.observed[key, "q"] if v is not None]
        if key in spans.absent or not values:
            absent.append(f"constraints.{label}")
        else:
            metrics[f"constraints.{label}"] = (statistics.fmean(values), "count",
                                               "constraints, mean per call")
    dims = [r["support"]["reduced_dim"] for r in reports if r.get("support")]
    metrics["constraints.reduced_dim"] = (
        statistics.fmean(dims) if dims else 0.0, "count",
        f"mean over {len(dims)} reports with a support block (0 when none has one)")
    iters = [r["solver"]["iterations"] for r in reports]
    metrics["solvers.iterations"] = (statistics.fmean(iters), "count",
                                     "report 'iterations': CG and Newton steps summed")
    metrics["solvers.cap_hit_frac"] = (sum(v >= CG_CAP for v in iters) / len(iters), "frac",
                                       f"reports with iterations >= the {CG_CAP} CG cap")
    found = spans.observed["certify.search", "found"]
    metrics["certify.found_frac"] = (sum(found) / len(found) if found else 0.0, "frac",
                                     f"certificates over {len(found)} searches (0 when none ran)")

    overhead = statistics.median(t - p for p, t in zip(plain, traced))
    untraced = statistics.median(plain)
    metrics["trace.untraced_s"] = (untraced, "s", f"median of {len(plain)} untraced calls")
    metrics["trace.traced_s"] = (statistics.median(traced), "s",
                                 f"median of {len(traced)} traced calls")
    metrics["trace.overhead_s"] = (overhead, "s", "median of traced minus untraced, per instance")
    metrics["trace.overhead_frac"] = (overhead / untraced, "frac", "overhead over untraced")
    return metrics, absent


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cpinterp" / "__init__.py").is_file():
        sys.stderr.write(f"error: no cpinterp sources under {SRC}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # Each set-up is scaled by the reference kernel run right after it,
        # like each timed call (see reference.py).
        kernel_data = reference.make_data()
        setups = []
        for _ in range(SETUP_REPEATS):
            cli, pool, seconds = set_up(args.workload, args.seed, work)
            setups.append((seconds, reference.NOMINAL_S / reference.run(kernel_data)))
        if Path(cli.__file__).resolve().parent != (SRC / "cpinterp").resolve():
            sys.stderr.write(f"error: cpinterp was imported from {cli.__file__}\n")
            return 2
        command = WORKLOADS[args.workload][0]
        settle(cli, command, pool, work)
        runner = Runner(cli, command, work)
        if args.trace:
            metrics, absent = measure_layers(runner, pool, args.seconds)
            metrics_note = "times are raw wall seconds"
        else:
            metrics, factor = measure_end_to_end(runner, pool, args.seconds)
            metrics["setup_s"] = (statistics.median(t * f for t, f in setups), "s",
                                  f"median of {SETUP_REPEATS} set-ups: import, "
                                  f"{len(pool)} instance files, one warm-up call; "
                                  f"raw {statistics.median(t for t, _ in setups):.6g} s")
            metrics_note = (f"times scaled call by call by the machine-speed factor "
                            f"(median {factor:.4f})")
            absent = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(environment()))
    print(metrics_note)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit:6s} {note}")
    for name in absent:
        print(f"{name:34s} absent (not in this version of the program)")
    for reason in runner.failures[:10]:
        print(f"failure: {reason}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
