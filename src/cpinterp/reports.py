"""Instance and report files.

Instances are JSON documents; complex scalars are written as two-element
``[re, im]`` arrays (bare reals are accepted on input), matrices row-major.
Reports are emitted through a canonical writer that prints every float with
17 significant digits, so identical runs produce byte-identical files.

Both directions work on whole blocks rather than single scalars.  The float
blocks of a report (the Choi matrix and the stacked Kraus elements as
``[re, im]`` pairs on a last axis, the targets, the residuals, the
certificate's coefficients) reach the writer as float64 ndarrays; a
rectangular nested list of floats is read into one.  Each block is written
in one ``%`` pass through a template cached per shape and indent, with one
slot per value.  A value takes ``%.17g``, except an integral value below
1e17, which takes ``%.1f`` (as ``%#.1f``, the same five characters as
``%.17g``).  Both print the same bytes as ``%.17g`` plus ``.0``, the token
a report holds for such a value: below 1e17 an integer has at most 17
digits, so ``%.17g`` prints all of them in fixed notation, and ``%.1f``
prints the same exact digits and then ``.0`` (``-0.0`` included).  From
1e17 on, ``%.17g`` switches to an exponent, and a value that is not
integral always prints a point.  One ``np.isfinite`` check per block
refuses NaN and infinities.  A list of strings is written with one join;
only dicts, other lists and the scalars in them are written item by item.
The reader fills a matrix row from its ``[re, im]`` pairs, or its bare
reals, at once; entry-by-entry checks run only on a row that fails, to name
its first bad entry.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

import numpy as np

from .constraints import ProblemInstance

# the exact types of JSON numbers; bool, a subclass of int, is not one
_REAL_TYPES = frozenset((int, float))

class InstanceFormatError(ValueError):
    """Malformed instance or report file; the message names the location."""


def _as_complex(value: Any, where: str, row: int, col: int) -> complex:
    """One entry read alone; errors name it as ``where[row + 1][col + 1]``."""

    def error(reason: str) -> InstanceFormatError:
        return InstanceFormatError(f"{where}[{row + 1}][{col + 1}]: {reason}")

    if isinstance(value, (int, float)) and not isinstance(value, bool):
        parts = (value, 0)
    elif (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        parts = value
    else:
        raise error(f"expected a number or a [re, im] pair, got {value!r}")
    try:
        z = complex(parts[0], parts[1])
    except OverflowError:  # an int past the float range
        raise error("entry is outside the float range") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise error(f"non-finite entry {value!r}")
    return z


def _all_finite(values: list) -> bool:
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an int past the float range
        return False


def is_integer(value: Any) -> bool:
    """True for an int that is not a bool (``isinstance(True, int)`` holds)."""
    return isinstance(value, int) and not isinstance(value, bool)


def matrix_from_json(obj: Any, rows: int, cols: int, where: str) -> np.ndarray:
    """A rows x cols complex matrix from nested lists of numbers and ``[re, im]`` pairs.

    A row made only of pairs, or only of bare reals, all finite JSON numbers,
    is filled in one assignment.  Any other row is read entry by entry, which
    accepts mixed rows and raises ``InstanceFormatError`` at the first bad
    entry, naming it ``where[r][c]`` (1-based).
    """
    if not isinstance(obj, list) or len(obj) != rows:
        raise InstanceFormatError(f"{where}: expected {rows} rows")
    out = np.zeros((rows, cols), dtype=complex)
    parts = out.view(float)  # row i: the real and imaginary part of each entry in turn
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise InstanceFormatError(
                f"{where} row {i + 1}: expected {cols} entries, "
                f"got {len(row) if isinstance(row, list) else type(row).__name__}"
            )
        if set(map(type, row)) == {list} and set(map(len, row)) == {2}:
            values, target = list(chain.from_iterable(row)), parts
        else:
            values, target = row, out
        if not (set(map(type, values)) <= _REAL_TYPES and _all_finite(values)):
            values = [_as_complex(v, where, i, j) for j, v in enumerate(row)]
            target = out
        target[i] = values
    return out


def complex_parts(m: np.ndarray) -> np.ndarray:
    """A complex array of any shape as float64 ``[re, im]`` pairs on a new last axis."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1)


def matrix_to_jsonable(m: np.ndarray) -> list:
    """Nested lists of ``[re, im]`` pairs of Python floats."""
    return complex_parts(m).tolist()


def load_json(path: str | Path) -> Any:
    """Read and decode a JSON file; failures become ``InstanceFormatError``.

    The file is read as bytes, so ``json.loads`` detects UTF-8 (with or
    without a byte-order mark), UTF-16 or UTF-32 (RFC 8259 section 8.1)
    whatever the locale's encoding.
    """
    try:
        return json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    for key in ("n", "k"):
        if not is_integer(doc[key]) or doc[key] < 1:
            raise InstanceFormatError(f"{key!r} must be a positive integer")
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
    """Extract the optional per-file solver section (tol, max_iters); other
    keys are ignored.  ``method`` is checked, not returned: "exp" and "auto"
    both name the one solve path, and any other value is refused."""
    if not isinstance(doc, dict):
        return {}
    solver = doc.get("solver", {})
    if not isinstance(solver, dict):
        raise InstanceFormatError("'solver' must be an object")
    out = {}
    if solver.get("method", "auto") not in ("exp", "auto"):
        raise InstanceFormatError(
            "solver.method must be exp or auto; the log-det barrier is the library "
            "function cpinterp.solve_barrier"
        )
    if "tol" in solver:
        out["tol"] = checked_tol(solver["tol"], "solver.tol")
    if "max_iters" in solver:
        if not is_integer(solver["max_iters"]):
            raise InstanceFormatError("solver.max_iters must be an integer")
        if solver["max_iters"] < 1:
            raise InstanceFormatError("solver.max_iters must be at least 1")
        out["max_iters"] = solver["max_iters"]
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


def _float_token(text: str) -> str:
    """A ``%.17g`` token as a report holds it.

    Only a token with neither ``.`` nor ``e`` can be NaN or infinite, and
    those are refused; the others are integral and gain ``.0`` so they read
    back as floats.
    """
    if "." in text or "e" in text:
        return text
    if text[-1] in "nf":  # nan, inf, -inf
        kind = "NaN" if text == "nan" else "infinity"
        raise ValueError(f"cannot serialize {kind} in a report")
    return text + ".0"


def _float_array(obj: list | tuple) -> tuple[tuple, list] | None:
    """Shape and row-major values of a rectangular nested list of floats.

    None unless every leaf is exactly a ``float``; an empty dimension leaves
    no leaves, so it gives None too.
    """
    shape = [len(obj)]
    level = obj
    while True:
        kinds = set(map(type, level))
        if kinds == {float}:
            return tuple(shape), level
        if not kinds <= {list, tuple}:
            return None
        lengths = set(map(len, level))
        if len(lengths) != 1:
            return None
        shape.append(lengths.pop())
        level = list(chain.from_iterable(level))


@functools.lru_cache(maxsize=256)
def _layout(shape: tuple, indent: int) -> str:
    """Canonical text of an array of ``shape`` at ``indent``, a ``%s`` per value."""
    if len(shape) == 1:
        return "[" + ", ".join(["%s"] * shape[0]) + "]"
    row = "  " * (indent + 1) + _layout(shape[1:], indent + 1)
    return "[\n" + ",\n".join([row] * shape[0]) + "\n" + "  " * indent + "]"


# The two slots of a float: "%#.1f" prints as "%.1f" (its "#" only keeps a
# point that precision 1 always prints) and has the length of "%.17g".
_G_SLOT, _F_SLOT = "%.17g", "%#.1f"
_F_BYTES = np.frombuffer(_F_SLOT.encode(), dtype=np.uint8)


@functools.lru_cache(maxsize=256)
def _template(shape: tuple, indent: int) -> tuple[str, np.ndarray, np.ndarray]:
    """``_layout(shape, indent)`` with a ``%.17g`` slot per value: as text, as
    bytes, and the byte offsets of each value's slot (one row per value)."""
    text = _layout(shape, indent) % ((_G_SLOT,) * math.prod(shape))
    chars = np.frombuffer(text.encode(), dtype=np.uint8)
    starts = np.flatnonzero(chars == ord("%"))
    return text, chars, starts[:, None] + np.arange(len(_G_SLOT))


def _dump_floats(shape: tuple, flat: np.ndarray, values: list, indent: int) -> str:
    """A block of floats, ``flat`` and ``values`` row-major, in one ``%`` pass.

    An integral value below 1e17 takes the ``%#.1f`` slot and any other the
    ``%.17g`` one (see the module docstring).
    """
    finite = np.isfinite(flat)
    if not finite.all():
        first = values[int(np.argmin(finite))]
        kind = "NaN" if first != first else "infinity"
        raise ValueError(f"cannot serialize {kind} in a report")
    text, chars, slots = _template(shape, indent)
    short = (flat == np.trunc(flat)) & (np.abs(flat) < 1e17)
    if short.any():
        chars = chars.copy()
        chars[slots[short]] = _F_BYTES
        text = chars.tobytes().decode("ascii")
    return text % tuple(values)


def _dump_ndarray(block: np.ndarray, indent: int) -> str:
    """A float64 array in one pass; any other array as its ``tolist()``."""
    if block.dtype != np.float64 or block.size == 0 or block.ndim == 0:
        return _dump(block.tolist(), indent)
    flat = block.ravel()
    return _dump_floats(block.shape, flat, flat.tolist(), indent)


def _dump_list(obj: list | tuple, indent: int) -> str:
    if not obj:
        return "[]"
    kinds = set(map(type, obj))
    if kinds == {str}:
        return "[" + ", ".join(map(encode_basestring_ascii, obj)) + "]"
    array = _float_array(obj)
    if array is not None:
        shape, values = array
        return _dump_floats(shape, np.array(values), values, indent)
    items = [_dump(v, indent + 1) for v in obj]
    if not any(isinstance(v, (list, tuple, dict)) for v in obj):
        return "[" + ", ".join(items) + "]"
    inner = "  " * (indent + 1)
    return "[\n" + ",\n".join([inner + s for s in items]) + "\n" + "  " * indent + "]"


def _dump_dict(obj: dict, indent: int) -> str:
    if not obj:
        return "{}"
    inner = "  " * (indent + 1)
    parts = [
        f"{inner}{encode_basestring_ascii(str(key))}: {_dump(value, indent + 1)}"
        for key, value in obj.items()
    ]
    return "{\n" + ",\n".join(parts) + "\n" + "  " * indent + "}"


# writer of each JSON type; a subclass (numpy float64, OrderedDict) is
# written as the first of these it is an instance of, so bool comes before int
_WRITERS = {
    type(None): lambda obj, indent: "null",
    bool: lambda obj, indent: "true" if obj else "false",
    int: lambda obj, indent: str(obj),
    float: lambda obj, indent: _float_token("%.17g" % obj),
    str: lambda obj, indent: encode_basestring_ascii(obj),
    list: _dump_list,
    tuple: _dump_list,
    dict: _dump_dict,
    np.ndarray: _dump_ndarray,
}


def _dump(obj: Any, indent: int) -> str:
    writer = _WRITERS.get(type(obj))
    if writer is None:
        base = next((t for t in _WRITERS if isinstance(obj, t)), None)
        if base is None:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
        writer = _WRITERS[base]
    return writer(obj, indent)


def dumps_canonical(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON with all floats at 17 significant digits.

    Dicts and lists of containers take one line per item, indented two
    spaces per level; a list of scalars takes one line.  A float is printed
    as ``%.17g`` with ``.0`` added when that reads as an int.  An ndarray
    is written as its ``tolist()`` would be.  NaN and infinities raise
    ``ValueError``; types other than JSON's and ndarray (and their
    subclasses) raise ``TypeError``.
    """
    return _dump(obj, indent)


def read_report(path: str | Path) -> tuple[dict, int, int]:
    """A report document and its ``problem``'s n and k, which must be positive integers."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise InstanceFormatError("report document must be a JSON object")
    problem = doc.get("problem")
    n, k = (problem.get("n"), problem.get("k")) if isinstance(problem, dict) else (None, None)
    if not all(is_integer(v) and v >= 1 for v in (n, k)):
        raise InstanceFormatError("report lacks problem dimensions")
    return doc, n, k


def report_kraus(doc: dict, n: int, k: int) -> list[np.ndarray]:
    """A report's Kraus elements, each n x k."""
    elements = doc.get("kraus")
    if not isinstance(elements, list):
        raise InstanceFormatError("report carries no Kraus elements")
    return [matrix_from_json(v, n, k, f"kraus[{i}]") for i, v in enumerate(elements)]


def report_matrix(doc: dict, key: str, rows: int, cols: int) -> np.ndarray:
    if key not in doc or doc[key] is None:
        raise InstanceFormatError(f"report has no {key!r} payload")
    return matrix_from_json(doc[key], rows, cols, key)
