"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared virtual machine the speed of a core drifts by tens of percent
over minutes, with no steal time to show it, so raw wall times of runs made
a few minutes apart disagree by more than any useful bound.  The benchmark
runs this kernel right after each CLI call, outside the call's timed span,
and scales the call's time by ``NOMINAL_S / kernel time``: a time is
reported in seconds of a machine on which the kernel takes ``NOMINAL_S``.
The kernel mixes what cpinterp spends its time on (interpreter work, small
LAPACK calls, a constraint-stack contraction, a tall SVD, a pass over memory
beyond the caches), so what slows the program down slows it down too.  It
allocates nothing large while timed, so its time does not depend on how
much memory the preceding call freed.  It is the benchmark's own code, and
no change to cpinterp changes it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.004  # the kernel's median time on a quiet 2-vCPU Xeon virtual machine


def make_data() -> dict:
    rng = np.random.default_rng(20140131)
    m = rng.standard_normal((96, 16, 16)) + 1j * rng.standard_normal((96, 16, 16))
    mats = (m + np.conj(np.swapaxes(m, 1, 2))) / 2
    return {
        "mats": mats,
        "stack": mats.reshape(-1, 16),  # tall stack, as in support reduction
        "block": rng.standard_normal(1_000_000),  # 8 MB, beyond the core's caches
        "into": np.empty(1_000_000),  # preallocated: no page faults in the timed pass
    }


def run(data: dict) -> float:
    """Seconds taken by one pass of the kernel."""
    mats = data["mats"]
    start = time.perf_counter()
    total = 0.0
    for i in range(10000):
        total += i * 1e-12
    for m in mats[:24]:
        total += float(np.linalg.eigh(m)[0][0])
    total += float(np.einsum("qij,ji->q", mats, mats[0]).real.sum())
    total += float(np.linalg.svd(data["stack"], compute_uv=False)[0])
    np.copyto(data["into"], data["block"])
    total += float(data["into"][-1])
    seconds = time.perf_counter() - start
    if not np.isfinite(total):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return seconds
