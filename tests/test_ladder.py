"""Smoke test of the size ladder (``tools/ladder.py``), so that the tool cannot rot.

It runs the smallest rung twice, each in its own process, and requires the
same deterministic counts from both.
"""

import importlib.util
import io
import json
from pathlib import Path

ROOT = Path(__file__).parent.parent


def load_ladder():
    spec = importlib.util.spec_from_file_location("size_ladder", ROOT / "tools" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_smallest_rung_runs_twice_with_equal_counts():
    out = io.StringIO()
    first, again = load_ladder().ladder(ROOT, [16, 16], out)
    assert [json.loads(text) for text in out.getvalue().splitlines()] == [first, again]
    counts = ("p", "q", "pruned_rows", "reduced_dim", "status", "cg_steps", "newton_steps")
    assert [first[key] for key in counts] == [again[key] for key in counts]
    assert (first["p"], first["q"], first["pruned_rows"], first["reduced_dim"]) == (16, 128, 128, 16)
    assert first["status"] == "feasible"
    assert set(first["seconds"]) == {"build", "prune", "support", "solve", "projection", "kraus"}
    assert first["peak_rss_mb"] > 0
