"""Layer spans recorded from outside the program.

Each traced function is wrapped at every module attribute that holds it, so
a call reaches the wrapper whichever module the pipeline calls it through
(``solve_exp`` is reached as ``cpinterp.cli.solve_exp`` and as
``cpinterp.certify.solve_exp``).  Spans nest on a stack: when a span closes,
its duration is added to its parent's child time, so a layer's self time is
its spans' duration minus the time covered by the spans they caused.  Spans
are aggregated as they close rather than stored one by one, because the
kernel spans number in the tens of thousands per instance.

A function listed here that the program no longer has is reported as
absent instead of failing the run, so the trace survives refactors.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (span name, module that defines the function, attribute name).  The layer
# of a span is the part of its name before the dot.
SPANS = [
    ("reports.parse", "cpinterp.reports", "parse_instance"),
    ("reports.dump", "cpinterp.reports", "dumps_canonical"),
    ("cli.run_solve", "cpinterp.cli", "run_solve"),
    ("cli.run_certify", "cpinterp.cli", "run_certify"),
    ("constraints.build", "cpinterp.constraints", "instance_system"),
    ("constraints.prune", "cpinterp.constraints", "prune_dependent"),
    ("constraints.support_reduce", "cpinterp.constraints", "joint_support_reduce"),
    ("solvers.exp", "cpinterp.solvers", "solve_exp"),
    ("solvers.diagonal", "cpinterp.solvers", "solve_diagonal"),
    ("solvers.project", "cpinterp.solvers", "project_affine"),
    ("solvers.verify", "cpinterp.solvers", "verify"),
    ("certify.feasibility", "cpinterp.certify", "feasibility_report"),
    ("certify.search", "cpinterp.certify", "search_certificate"),
    ("certify.span_check", "cpinterp.certify", "span_contains_positive"),
    ("choi.kraus", "cpinterp.choi", "choi_to_kraus"),
    ("kernel.eigh", "numpy.linalg", "eigh"),
    ("kernel.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("kernel.svd", "numpy.linalg", "svd"),
    ("kernel.einsum", "numpy", "einsum"),
]

ROOT = "cli.main"  # the span the harness opens around each CLI call
LAYERS = ["reports", "cli", "constraints", "solvers", "certify", "choi", "kernel"]


def _observe_q(result):
    return {"q": getattr(result, "q", None)}


def _observe_found(result):
    return {"found": result is not None}


# Values read from a traced function's return value.
OBSERVERS = {
    "constraints.build": _observe_q,
    "constraints.prune": _observe_q,
    "certify.search": _observe_found,
}


class Tracer:
    """Aggregated spans of the calls made while the wrappers are installed."""

    def __init__(self):
        self.total = defaultdict(float)  # inclusive seconds per span name
        self.self_time = defaultdict(float)  # seconds not covered by child spans
        self.calls = defaultdict(int)
        self.observed = defaultdict(list)  # (name, key) -> values
        self._stack: list[list] = []  # [name, child seconds]
        self._patches: list[tuple] = []
        self.absent: list[str] = []

    def span(self, name, fn, *args, **kwargs):
        for frame in self._stack:
            if frame[0] == name:  # recursion folds into the outer span
                return fn(*args, **kwargs)
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += duration
            self.total[name] += duration
            self.self_time[name] += duration - frame[1]
            self.calls[name] += 1
        observer = OBSERVERS.get(name)
        if observer is not None:
            for key, value in observer(result).items():
                self.observed[name, key].append(value)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function at each module attribute that holds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cpinterp" or key.startswith("cpinterp."))]
        self.absent = []
        for name, home, attr in SPANS:
            try:
                fn = getattr(importlib.import_module(home), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for module in {id(m): m for m in [importlib.import_module(home), *modules]}.values():
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches = []

    def call(self, fn, *args):
        """Run ``fn`` as the root span with the wrappers installed.

        Returns the result and the root span's duration, which leaves out the
        time spent installing and removing the wrappers.
        """
        self.install()
        try:
            before = self.total[ROOT]
            result = self.span(ROOT, fn, *args)
            return result, self.total[ROOT] - before
        finally:
            self.uninstall()
