"""Tests of the benchmark's independent checker and of its failure count.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_checker.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402
from cpinterp import cli  # noqa: E402


def _solved(tmp_path: Path, inst: instances.Planted, command: str):
    path = tmp_path / f"{command}.json"
    out = tmp_path / f"{command}.report.json"
    instances.write_instance(inst, path)
    code = cli.main([command, str(path), "--out", str(out)])
    return path, out, code


@pytest.fixture(scope="module")
def feasible(tmp_path_factory):
    inst = instances.planted_exp(np.random.default_rng(0), n=2, k=2, pairs=2)
    return (inst, *_solved(tmp_path_factory.mktemp("feasible"), inst, "solve"))


@pytest.fixture(scope="module")
def infeasible(tmp_path_factory):
    inst = instances.planted_infeasible(np.random.default_rng(0), n=2, pairs=1)
    return (inst, *_solved(tmp_path_factory.mktemp("infeasible"), inst, "certify"))


def _rewrite(report: Path, tmp_path: Path, edit) -> Path:
    doc = json.loads(report.read_text())
    edit(doc)
    out = tmp_path / "edited.report.json"
    out.write_text(json.dumps(doc))
    return out


def test_correct_answers_pass(feasible, infeasible):
    for inst, path, report, code in (feasible, infeasible):
        assert checker.judge(inst, code, report, path) is None


def _negate_entry(doc):
    doc["choi"][0][0][0] = -doc["choi"][0][0][0]


def _break_symmetry(doc):
    doc["choi"][0][1][0] += 1e-3


def _shift_down(doc):
    for i, row in enumerate(doc["choi"]):
        row[i][0] -= 10.0


@pytest.mark.parametrize("corrupt", [_negate_entry, _break_symmetry, _shift_down])
def test_corrupted_choi_fails(feasible, tmp_path, corrupt):
    inst, path, report, code = feasible
    assert checker.judge(inst, code, _rewrite(report, tmp_path, corrupt), path) is not None


def test_missing_trace_preservation_fails():
    v = np.eye(2).reshape(-1)
    x = np.outer(v, v).astype(complex)  # Choi matrix of the identity channel
    inst = instances.Planted(2, 2, [], True, "feasible")
    assert checker.check_choi(inst, x) is None
    assert "trace preserving" in checker.check_choi(inst, 2 * x)


def test_wrong_verdict_fails(feasible, infeasible, tmp_path):
    inst, path, report, code = feasible
    edited = _rewrite(report, tmp_path, lambda d: d.update(status="undetermined"))
    assert checker.judge(inst, code, edited, path).startswith("verdict")
    inst, path, report, code = infeasible
    edited = _rewrite(report, tmp_path, lambda d: d.update(status="feasible"))
    assert checker.judge(inst, code, edited, path).startswith("verdict")


def test_wrong_exit_code_fails(feasible, infeasible):
    for inst, path, report, code in (feasible, infeasible):
        assert checker.judge(inst, 3, report, path).startswith("exit code")


def test_tampered_certificate_fails(infeasible, tmp_path):
    inst, path, report, code = infeasible

    def negate(doc):
        doc["certificate"]["coefficients"] = [-c for c in doc["certificate"]["coefficients"]]

    assert "verify" in checker.judge(inst, code, _rewrite(report, tmp_path, negate), path)


class _FakeCli:
    """Stands in for cpinterp.cli: writes a fixed report, returns a fixed code."""

    def __init__(self, report: dict, code: int):
        self.report, self.code = report, code

    def main(self, argv):
        Path(argv[argv.index("--out") + 1]).write_text(json.dumps(self.report))
        return self.code


def test_runner_counts_each_failure(feasible, tmp_path):
    inst, path, report, code = feasible
    good = json.loads(report.read_text())
    corrupted = json.loads(report.read_text())
    _shift_down(corrupted)
    wrong_verdict = dict(good, status="undetermined")
    cases = [(good, code, False), (corrupted, code, True), (wrong_verdict, code, True),
             (good, 3, True)]
    for doc, exit_code, fails in cases:
        runner = run.Runner(_FakeCli(doc, exit_code), "solve", tmp_path)
        seconds = runner.call(inst, path)
        assert runner.attempted == 1
        assert len(runner.failures) == int(fails)
        assert (seconds is None) == fails


def test_runner_counts_a_crash(feasible, tmp_path):
    inst, path, _, _ = feasible

    class Crashing:
        def main(self, argv):
            raise RuntimeError("boom")

    runner = run.Runner(Crashing(), "solve", tmp_path)
    assert runner.call(inst, path) is None
    assert runner.failures and "boom" in runner.failures[0]
