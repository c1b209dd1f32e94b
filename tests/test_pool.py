"""Smoke test of the parity pool (``tools/pool.py``), so that the tool cannot rot.

It runs a handful of lines of this checkout twice and diffs them: the two
runs must not differ (the determinism gate), and a changed line must show.
"""

import importlib.util
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def load_pool():
    spec = importlib.util.spec_from_file_location("parity_pool", ROOT / "tools" / "pool.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pool_writes_one_line_per_run_and_diffs_them(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the run puts <src>/src first
    pool = load_pool()
    out, again = tmp_path / "head.jsonl", tmp_path / "again.jsonl"
    for path in (out, again):
        with path.open("w") as stream:
            assert pool.run(ROOT, 1, ["golden", "bench-infeasible", "zero-input"], stream) == 6
    assert pool.diff(out, again, io.StringIO()) == 0
    lines = [json.loads(text) for text in out.read_text().splitlines()]
    assert [line["run"] for line in lines] == [
        f"{name}/{command}" for name in ("golden", "bench-infeasible/0", "zero-input/0")
        for command in ("solve", "certify")
    ]
    by_run = {line["run"]: line for line in lines}
    golden = by_run["golden/solve"]
    assert (golden["status"], golden["exit"], golden["certificate"]) == ("feasible", 0, None)
    assert len(golden["choi"]) == 4 and golden["reduced_dim"] == 4
    assert (golden["pruned_rows"], golden["message"], golden["span_check"]) == (8, "", None)
    ray = by_run["bench-infeasible/0/solve"]
    assert ray["certificate"] == ["excludes-psd", "divergence-ray"]
    assert ray["message"] == "CG found the objective unbounded below along the ray through a trial point"
    infeasible = by_run["bench-infeasible/0/certify"]
    # the pair (I, -I) puts I in the span, and its witness pairs negatively
    # with the targets: certify answers from the span check, with no solve
    assert infeasible["span_check"] == ["linear-system", True]
    assert infeasible["certificate"] == ["excludes-psd", "linear-system"]
    assert infeasible["message"] == (
        "the span check's positive definite combination of the rows pairs negatively "
        "with the targets; no solve ran"
    )
    assert (infeasible["cg_iterations"], infeasible["newton_steps"]) == (0, 0)
    assert by_run["zero-input/0/solve"]["certificate"] == ["excludes-psd", "linear-system"]
    assert by_run["zero-input/0/solve"]["reduced_dim"] is None
    assert by_run["zero-input/0/solve"]["pruned_rows"] is None
    assert all(line["verified"] for line in lines)
    assert all(len(line["report_sha256"]) == 64 for line in lines)

    assert pool.diff(out, out, io.StringIO()) == 0
    changed = tmp_path / "changed.jsonl"
    lines[0]["newton_steps"] += 1
    changed.write_text("".join(json.dumps(line) + "\n" for line in lines[:-1]))
    text = io.StringIO()
    assert pool.diff(out, changed, text) == 2
    assert f"{lines[0]['run']}: newton_steps" in text.getvalue()
    assert f"{lines[-1]['run']}: only in {out}" in text.getvalue()
