"""Independent check of one CLI call, run outside the timed span.

A feasible report is checked with plain numpy against the instance the
benchmark generated, so the check does not rest on the code under test.  A
certified-infeasible report is handed to ``cpinterp verify``, whose
certificate validation is exact.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from pathlib import Path

import numpy as np

from instances import Planted, choi_image

EXPECTED_EXIT = {"feasible": 0, "certified-infeasible": 2}
TOL = 1e-8


def _matrix(doc, p: int) -> np.ndarray:
    m = np.array(doc, dtype=float)
    if m.shape != (p, p, 2):
        raise ValueError(f"expected a {p} x {p} matrix of [re, im] pairs, got shape {m.shape}")
    return m[..., 0] + 1j * m[..., 1]


def check_choi(inst: Planted, x: np.ndarray) -> str | None:
    """Why ``x`` is not a Choi matrix solving ``inst``, or None if it is."""
    scale = TOL * (1.0 + np.linalg.norm(x))
    herm_gap = np.linalg.norm(x - x.conj().T)
    if herm_gap > scale:
        return f"Choi matrix is not Hermitian (gap {herm_gap:.3g})"
    mineig = np.linalg.eigvalsh((x + x.conj().T) / 2)[0]
    if mineig < -scale:
        return f"Choi matrix is not PSD (min eigenvalue {mineig:.3g})"
    for nu, (a, b) in enumerate(inst.pairs):
        gap = np.abs(choi_image(x, inst.n, inst.k, a) - b).max()
        if gap > TOL:
            return f"phi(A_{nu + 1}) misses B_{nu + 1} by {gap:.3g}"
    if inst.trace_preserving:
        traces = np.einsum("imjm->ij", x.reshape(inst.n, inst.k, inst.n, inst.k))
        gap = np.abs(traces - np.eye(inst.n)).max()
        if gap > TOL:
            return f"map is not trace preserving (gap {gap:.3g})"
    return None


def _verify_certificate(report_path: Path, instance_path: Path) -> str | None:
    cli = importlib.import_module("cpinterp.cli")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", str(report_path), str(instance_path)])
    if code != 0:
        return "cpinterp verify rejects the certificate: " + out.getvalue().strip()
    return None


def judge(inst: Planted, code: int, report_path: Path, instance_path: Path) -> str | None:
    """Why a CLI call on ``inst`` failed, or None when its answer is right.

    A wrong exit code, a wrong verdict, or a report that fails the
    independent check each count as a failure.
    """
    expected = EXPECTED_EXIT[inst.expect]
    if code != expected:
        return f"exit code {code}, expected {expected}"
    try:
        report = json.loads(report_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return f"unreadable report: {exc}"
    status = report.get("status")
    if status != inst.expect:
        return f"verdict {status!r}, expected {inst.expect!r}"
    if inst.expect == "feasible":
        try:
            x = _matrix(report.get("choi"), inst.n * inst.k)
        except (TypeError, ValueError) as exc:
            return f"unreadable Choi matrix: {exc}"
        return check_choi(inst, x)
    return _verify_certificate(report_path, instance_path)
