"""What the benchmark's layer tracer (``perfbench/tracer.py``) reads of the program.

The tracer wraps functions by module and attribute name, and reads ``.q``
off the systems that build and prune return.  A renamed function or a
changed field drops its metrics from the benchmark's result, so these tests
load the tracer as it stands and check that everything it names is there.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from cpinterp import cli
from cpinterp.constraints import ProblemInstance
from cpinterp.reports import instance_to_jsonable
from helpers import planted_instance

ROOT = Path(__file__).parent.parent
GOLDEN_INSTANCE = ROOT / "golden" / "qubit_pair.json"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    missing = []
    for name, home, attr in load_tracer().SPANS:
        try:
            getattr(importlib.import_module(home), attr)
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []


def _refuse(constant):
    raise ValueError(f"non-finite number {constant} in the report")


def test_traced_solve_reports_what_the_benchmark_reads(tmp_path, capsys):
    tracer = load_tracer()
    spans = tracer.Tracer()
    out = tmp_path / "report.json"
    code, _ = spans.call(cli.main, ["solve", str(GOLDEN_INSTANCE), "--out", str(out)])
    assert code == cli.EXIT_FEASIBLE
    assert capsys.readouterr().out == ""  # the benchmark's result is its last stdout line
    assert spans.absent == []
    for key in ("constraints.build", "constraints.prune"):
        values = spans.observed[key, "q"]
        assert values and all(isinstance(q, int) for q in values)
    report = json.loads(out.read_text(), parse_constant=_refuse)
    assert isinstance(report["solver"]["iterations"], int)
    assert isinstance(report["support"]["reduced_dim"], int)


def test_traced_certify_runs_the_span_check_once(tmp_path, capsys):
    instance = tmp_path / "negative_identity.json"
    instance.write_text(json.dumps(
        {"n": 2, "k": 2, "pairs": [{"A": [[1, 0], [0, 1]], "B": [[-1, 0], [0, -1]]}]}
    ))
    tracer = load_tracer()
    spans = tracer.Tracer()
    out = tmp_path / "report.json"
    code, _ = spans.call(cli.main, ["certify", str(instance), "--out", str(out)])
    assert code == cli.EXIT_CERTIFIED_INFEASIBLE
    assert capsys.readouterr().out == ""
    assert spans.absent == []
    assert spans.calls["certify.span_check"] == 1
    report = json.loads(out.read_text(), parse_constant=_refuse)
    assert report["span_check"]["contains_positive_definite"]


def test_traced_certify_observes_what_the_search_found(tmp_path, capsys):
    # phi(E11) = 0, phi(E22) = 1: the ray excludes no PSD solution, so the
    # search runs and finds the PD-excluding e_1
    instance = tmp_path / "e11.json"
    instance.write_text(json.dumps({"n": 2, "k": 1, "pairs": [
        {"A": [[1, 0], [0, 0]], "B": [[0]]}, {"A": [[0, 0], [0, 1]], "B": [[1]]},
    ]}))
    tracer = load_tracer()
    spans = tracer.Tracer()
    out = tmp_path / "report.json"
    code, _ = spans.call(cli.main, ["certify", str(instance), "--out", str(out)])
    assert code == cli.EXIT_UNDETERMINED
    assert capsys.readouterr().out == ""
    assert spans.absent == []
    assert spans.calls["certify.search"] == 1
    assert spans.observed["certify.search", "found"] == [True]
    assert json.loads(out.read_text())["certificate"]["source"] == "search"


def test_traced_certify_of_planted_infeasible_data_bounds_its_eigh_calls(tmp_path, capsys):
    # the benchmark's infeasible-certify recipe: planted n = 3 data plus the
    # pair (I, -I).  The exp solves end at the first point, iterate or
    # line-search trial, that passes the recession test, and each point is
    # factored by one eigh; testing recession only at iterates took 49 here
    inst, _ = planted_instance(np.random.default_rng(0), 3, 3, 3)
    eye = np.eye(3, dtype=complex)
    instance = tmp_path / "planted_infeasible.json"
    doc = instance_to_jsonable(ProblemInstance(3, 3, inst.pairs + [(eye, -eye)]))
    instance.write_text(json.dumps(doc))
    tracer = load_tracer()
    spans = tracer.Tracer()
    out = tmp_path / "report.json"
    code, _ = spans.call(cli.main, ["certify", str(instance), "--out", str(out)])
    assert code == cli.EXIT_CERTIFIED_INFEASIBLE
    assert capsys.readouterr().out == ""
    assert spans.calls["kernel.eigh"] <= 25


def test_traced_solve_records_the_solver_the_pipeline_picks(tmp_path, capsys):
    # the pipeline reads its solvers off its module when it calls them, so
    # the wrappers the tracer sets there see every call
    diagonal = tmp_path / "diagonal.json"
    diagonal.write_text(json.dumps(
        {"n": 2, "k": 2, "pairs": [{"A": [[2, 0], [0, 1]], "B": [[3, 0], [0, 1]]}]}
    ))
    for instance, picked, other in ((GOLDEN_INSTANCE, "solvers.exp", "solvers.diagonal"),
                                    (diagonal, "solvers.diagonal", "solvers.exp")):
        spans = load_tracer().Tracer()
        code, _ = spans.call(cli.main, ["solve", str(instance), "--out", str(tmp_path / "r.json")])
        assert code == cli.EXIT_FEASIBLE
        assert (spans.calls[picked], spans.calls[other]) == (1, 0)
    assert capsys.readouterr().out == ""
