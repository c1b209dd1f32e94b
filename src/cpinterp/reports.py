"""Instance and report files.

Instances are JSON documents; complex scalars are written as two-element
``[re, im]`` arrays (bare reals are accepted on input), matrices row-major.
Reports are emitted through a canonical writer that prints every float with
17 significant digits, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

import numpy as np

from .constraints import ProblemInstance


class InstanceFormatError(ValueError):
    """Malformed instance or report file; the message names the location."""


def _as_complex(value: Any, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        z = complex(value)
    elif (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        z = complex(value[0], value[1])
    else:
        raise InstanceFormatError(
            f"{where}: expected a number or a [re, im] pair, got {value!r}"
        )
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise InstanceFormatError(f"{where}: non-finite entry {value!r}")
    return z


def matrix_from_json(obj: Any, rows: int, cols: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != rows:
        raise InstanceFormatError(f"{where}: expected {rows} rows")
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise InstanceFormatError(
                f"{where} row {i + 1}: expected {cols} entries, "
                f"got {len(row) if isinstance(row, list) else type(row).__name__}"
            )
        for j, entry in enumerate(row):
            out[i, j] = _as_complex(entry, f"{where}[{i + 1}][{j + 1}]")
    return out


def matrix_to_jsonable(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def load_json(path: str | Path) -> Any:
    """Read and decode a JSON file; failures become ``InstanceFormatError``."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path} is not valid JSON: {exc}") from exc


def parse_instance(path: str | Path) -> ProblemInstance:
    """Read and validate an instance file."""
    return instance_from_jsonable(load_json(path))


def instance_from_jsonable(doc: Any) -> ProblemInstance:
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    for key in ("n", "k", "pairs"):
        if key not in doc:
            raise InstanceFormatError(f"missing required field {key!r}")
    n, k = doc["n"], doc["k"]
    if not isinstance(n, int) or not isinstance(k, int) or n < 1 or k < 1:
        raise InstanceFormatError("'n' and 'k' must be positive integers")
    pairs_doc = doc["pairs"]
    if not isinstance(pairs_doc, list) or not pairs_doc:
        raise InstanceFormatError("'pairs' must be a non-empty list")
    pairs = []
    for idx, item in enumerate(pairs_doc, start=1):
        if not isinstance(item, dict) or "A" not in item or "B" not in item:
            raise InstanceFormatError(f"pairs[{idx}]: expected an object with 'A' and 'B'")
        a = matrix_from_json(item["A"], n, n, f"pairs[{idx}].A")
        b = matrix_from_json(item["B"], k, k, f"pairs[{idx}].B")
        pairs.append((a, b))
    tp = doc.get("trace_preserving", False)
    if not isinstance(tp, bool):
        raise InstanceFormatError("'trace_preserving' must be a boolean")
    return ProblemInstance(n=n, k=k, pairs=pairs, trace_preserving=tp)


def checked_tol(value: Any, where: str) -> float:
    """A tolerance as a float, rejecting non-numbers and non-positive or
    non-finite values (with tol = inf every solve "converges" at once)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceFormatError(f"{where} must be a number")
    # NaN fails both comparisons; an int past the float range fails the second
    if not 0 < value <= sys.float_info.max:
        raise InstanceFormatError(f"{where} must be positive and finite")
    return float(value)


def solver_options_from_jsonable(doc: Any) -> dict:
    """Extract the optional per-file solver section (method, tol, caps, seed)."""
    if not isinstance(doc, dict):
        return {}
    solver = doc.get("solver", {})
    if not isinstance(solver, dict):
        raise InstanceFormatError("'solver' must be an object")
    out = {}
    if "method" in solver:
        if solver["method"] not in ("exp", "barrier", "auto"):
            raise InstanceFormatError("solver.method must be one of exp, barrier, auto")
        out["method"] = solver["method"]
    if "tol" in solver:
        out["tol"] = checked_tol(solver["tol"], "solver.tol")
    for key in ("max_iters", "seed"):
        if key in solver:
            if not isinstance(solver[key], int):
                raise InstanceFormatError(f"solver.{key} must be an integer")
            out[key] = solver[key]
    return out


def instance_to_jsonable(inst: ProblemInstance) -> dict:
    return {
        "n": inst.n,
        "k": inst.k,
        "trace_preserving": inst.trace_preserving,
        "pairs": [
            {"A": matrix_to_jsonable(a), "B": matrix_to_jsonable(b)}
            for a, b in inst.pairs
        ],
    }


def write_instance(inst: ProblemInstance, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(instance_to_jsonable(inst)) + "\n")


def _format_float(x: float) -> str:
    if x != x:
        raise ValueError("cannot serialize NaN in a report")
    if x in (float("inf"), float("-inf")):
        raise ValueError("cannot serialize infinity in a report")
    text = format(x, ".17g")
    # make sure the token reads back as a float, not an int
    if "e" not in text and "." not in text:
        text += ".0"
    return text


def dumps_canonical(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON with all floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps_canonical(v, indent + 1) for v in obj]
        if all(not isinstance(v, (list, tuple, dict)) for v in obj):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {dumps_canonical(value, indent + 1)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def read_report(path: str | Path) -> dict:
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise InstanceFormatError("report document must be a JSON object")
    return doc


def report_matrix(doc: dict, key: str, rows: int, cols: int) -> np.ndarray:
    if key not in doc or doc[key] is None:
        raise InstanceFormatError(f"report has no {key!r} payload")
    return matrix_from_json(doc[key], rows, cols, key)
