import json
from pathlib import Path

import numpy as np
import pytest

from cpinterp import cli
from cpinterp.constraints import InconsistentSystemError
from cpinterp.reports import (
    InstanceFormatError,
    dumps_canonical,
    instance_from_jsonable,
    instance_to_jsonable,
    parse_instance,
)
from helpers import A1, A2, B1, B2, X_REF, planted_diagonal_instance

GOLDEN_DIR = Path(__file__).parent.parent / "golden"
GOLDEN_INSTANCE = GOLDEN_DIR / "qubit_pair.json"


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


def infeasible_doc():
    return {"n": 2, "k": 2, "pairs": [{"A": [[1, 0], [0, 1]], "B": [[-1, 0], [0, -1]]}]}


# ---------------------------------------------------------------------------
# parse_instance


def test_parse_golden_instance():
    inst = parse_instance(GOLDEN_INSTANCE)
    assert inst.n == inst.k == 2
    assert inst.count == 2
    a, b = inst.pairs[0]
    assert np.abs(a - A1).max() == 0
    assert np.abs(b - B1).max() == 0


def test_parse_smallest_instance(tmp_path):
    path = write_json(tmp_path / "tiny.json", {"n": 1, "k": 1, "pairs": [{"A": [[2]], "B": [[6]]}]})
    inst = parse_instance(path)
    assert inst.n == inst.k == 1


def test_parse_complex_entries(tmp_path):
    doc = {"n": 1, "k": 1, "pairs": [{"A": [[[0, 1]]], "B": [[[2, -1]]]}]}
    inst = parse_instance(write_json(tmp_path / "c.json", doc))
    assert inst.pairs[0][0][0, 0] == 1j
    assert inst.pairs[0][1][0, 0] == 2 - 1j


def test_parse_rejects_shape_mismatch(tmp_path):
    doc = {"n": 2, "k": 2, "pairs": [
        {"A": [[1, 0], [0, 1]], "B": [[1, 0], [0, 1]]},
        {"A": [[1, 0, 0], [0, 1, 0]], "B": [[1, 0], [0, 1]]},
    ]}
    with pytest.raises(InstanceFormatError, match=r"pairs\[2\]\.A"):
        parse_instance(write_json(tmp_path / "bad.json", doc))


def test_parse_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"n": 1, "k": 1, "pairs": [{"A": [[NaN]], "B": [[1]]}]}')
    with pytest.raises(InstanceFormatError):
        parse_instance(path)


def test_instance_round_trip():
    inst = parse_instance(GOLDEN_INSTANCE)
    again = instance_from_jsonable(json.loads(dumps_canonical(instance_to_jsonable(inst))))
    assert again.n == inst.n and again.k == inst.k
    for (a1, b1), (a2, b2) in zip(inst.pairs, again.pairs):
        assert np.abs(a1 - a2).max() == 0
        assert np.abs(b1 - b2).max() == 0


# ---------------------------------------------------------------------------
# solve


def report_matrix(doc, key):
    return np.array([[complex(e[0], e[1]) for e in row] for row in doc[key]])


def test_solve_golden_instance(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["solve", str(GOLDEN_INSTANCE), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["status"] == "feasible"
    phi = report_matrix(rep, "choi")
    assert np.abs(phi - X_REF).max() < 5e-3
    assert rep["max_residual"] <= 1e-6
    assert rep["min_eigenvalue"] > 0
    assert rep["solver"]["method"] == "exp"
    assert rep["kraus_count"] == len(rep["kraus"])


def test_solve_matches_shipped_report(tmp_path):
    out = tmp_path / "report.json"
    cli.main(["solve", str(GOLDEN_INSTANCE), "--out", str(out)])
    fresh = json.loads(out.read_text())
    shipped = json.loads((GOLDEN_DIR / "qubit_pair.report.json").read_text())
    assert fresh["status"] == shipped["status"]
    assert np.abs(report_matrix(fresh, "choi") - report_matrix(shipped, "choi")).max() < 1e-6


def test_solve_infeasible_instance(tmp_path):
    path = write_json(tmp_path / "bad.json", infeasible_doc())
    out = tmp_path / "report.json"
    code = cli.main(["solve", str(path), "--out", str(out)])
    assert code == 2
    rep = json.loads(out.read_text())
    assert rep["status"] == "certified-infeasible"
    cert = rep["certificate"]
    assert cert["kind"] == "excludes-psd"
    assert cert["objective"] < -1e-9
    assert cert["min_eigenvalue"] >= -1e-9
    assert cert["source"] == "divergence-ray"
    assert len(cert["coefficients"]) == len(cert["constraints"])


def test_solve_diagonal_instance_emits_diagonal_choi(tmp_path):
    doc = {"n": 2, "k": 2, "pairs": [{"A": [[2, 0], [0, 1]], "B": [[3, 0], [0, 1]]}]}
    out = tmp_path / "report.json"
    code = cli.main(["solve", str(write_json(tmp_path / "diag.json", doc)), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["solver"]["method"] == "diagonal"
    phi = report_matrix(rep, "choi")
    assert np.abs(phi - np.diag(np.diag(phi))).max() == 0.0


def test_solve_barrier_method(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["solve", str(GOLDEN_INSTANCE), "--method", "barrier",
                     "--tol", "1e-6", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["status"] == "feasible"
    assert rep["max_residual"] <= 1e-6
    assert rep["min_eigenvalue"] > 0


def test_solve_inconsistent_targets(tmp_path):
    # same A with two different targets: linearly dependent and contradictory
    doc = {"n": 1, "k": 1, "pairs": [
        {"A": [[1]], "B": [[1]]},
        {"A": [[1]], "B": [[2]]},
    ]}
    out = tmp_path / "report.json"
    code = cli.main(["solve", str(write_json(tmp_path / "c.json", doc)), "--out", str(out)])
    assert code == 2
    rep = json.loads(out.read_text())
    assert rep["status"] == "certified-infeasible"
    assert rep["certificate"] is not None
    assert rep["certificate"]["source"] == "linear-system"


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_invalid_linear_system_certificate_is_undetermined(tmp_path, monkeypatch, command):
    def contradiction(system, *args, **kwargs):
        # objective b . b > 0: this vector can never validate
        raise InconsistentSystemError("planted contradiction", system,
                                      system.targets.copy(), system.provenance[0])

    monkeypatch.setattr(cli, "prune_dependent", contradiction)
    out = tmp_path / "report.json"
    code = cli.main([command, str(GOLDEN_INSTANCE), "--out", str(out)])
    assert code == 3
    rep = json.loads(out.read_text())
    assert rep["status"] == "undetermined"
    assert rep["certificate"] is None
    assert "fails validation" in rep["solver"]["message"]


def test_solve_missing_file_is_input_error(tmp_path, capsys):
    code = cli.main(["solve", str(tmp_path / "absent.json")])
    assert code == 4
    assert "error" in capsys.readouterr().err


def test_solve_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["solve", str(path)]) == 4


def test_determinism_excluding_timing(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cli.main(["solve", str(GOLDEN_INSTANCE), "--seed", "3", "--out", str(out1)])
    cli.main(["solve", str(GOLDEN_INSTANCE), "--seed", "3", "--out", str(out2)])
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    d1.pop("timing"), d2.pop("timing")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


# ---------------------------------------------------------------------------
# apply / kraus


@pytest.fixture(scope="module")
def golden_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("rep") / "report.json"
    assert cli.main(["solve", str(GOLDEN_INSTANCE), "--out", str(out)]) == 0
    return out


def read_printed_matrix(text, rows, cols):
    values = []
    for line in text.strip().splitlines():
        values.append([complex(tok.replace("j", "j")) for tok in line.split()])
    m = np.array(values, dtype=complex)
    assert m.shape == (rows, cols)
    return m


def test_apply_first_pair(golden_report, tmp_path, capsys):
    a_path = write_json(tmp_path / "a1.json", [[2, 1], [1, 0]])
    assert cli.main(["apply", str(golden_report), str(a_path)]) == 0
    out = read_printed_matrix(capsys.readouterr().out, 2, 2)
    assert np.abs(out - B1).max() < 1e-3


def test_apply_second_pair(golden_report, tmp_path, capsys):
    a_path = write_json(tmp_path / "a2.json", [[1, 1], [1, 2]])
    assert cli.main(["apply", str(golden_report), str(a_path)]) == 0
    out = read_printed_matrix(capsys.readouterr().out, 2, 2)
    assert np.abs(out - B2).max() < 1e-3


def test_apply_zero(golden_report, tmp_path, capsys):
    a_path = write_json(tmp_path / "zero.json", [[0, 0], [0, 0]])
    assert cli.main(["apply", str(golden_report), str(a_path)]) == 0
    out = read_printed_matrix(capsys.readouterr().out, 2, 2)
    assert np.abs(out).max() == 0.0


def test_apply_dimension_mismatch(golden_report, tmp_path, capsys):
    a_path = write_json(tmp_path / "wrong.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert cli.main(["apply", str(golden_report), str(a_path)]) == 4


def test_kraus_prints_elements(golden_report, capsys):
    assert cli.main(["kraus", str(golden_report)]) == 0
    out = capsys.readouterr().out
    assert out.count("# element") == json.loads(golden_report.read_text())["kraus_count"]


# ---------------------------------------------------------------------------
# verify


def test_verify_accepts_own_report(golden_report, capsys):
    assert cli.main(["verify", str(golden_report), str(GOLDEN_INSTANCE)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_catches_perturbed_choi(golden_report, tmp_path, capsys):
    doc = json.loads(golden_report.read_text())
    doc["choi"][0][0][0] += 1e-2
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify", str(bad), str(GOLDEN_INSTANCE)]) == 1
    assert "residual" in capsys.readouterr().out


def test_verify_catches_missing_kraus_element(golden_report, tmp_path, capsys):
    doc = json.loads(golden_report.read_text())
    doc["kraus"] = doc["kraus"][:-1]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify", str(bad), str(GOLDEN_INSTANCE)]) == 1
    assert "kraus" in capsys.readouterr().out


def test_verify_validates_certificate_report(tmp_path, capsys):
    inst_path = write_json(tmp_path / "bad.json", infeasible_doc())
    rep_path = tmp_path / "report.json"
    assert cli.main(["solve", str(inst_path), "--out", str(rep_path)]) == 2
    assert cli.main(["verify", str(rep_path), str(inst_path)]) == 0
    out = capsys.readouterr().out
    assert "certificate validates" in out


def test_certify_ray_certificate_round_trip(tmp_path, capsys):
    inst_path = write_json(tmp_path / "bad.json", infeasible_doc())
    rep_path = tmp_path / "report.json"
    assert cli.main(["certify", str(inst_path), "--out", str(rep_path)]) == 2
    rep = json.loads(rep_path.read_text())
    assert rep["status"] == "certified-infeasible"
    assert rep["certificate"]["source"] == "divergence-ray"
    assert cli.main(["verify", str(rep_path), str(inst_path)]) == 0
    assert "certificate validates" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# options


def test_file_solver_section_sets_method(tmp_path):
    doc = json.loads(GOLDEN_INSTANCE.read_text())
    doc["solver"] = {"method": "barrier", "tol": 1e-6}
    path = write_json(tmp_path / "inst.json", doc)
    out = tmp_path / "report.json"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["solver"]["method"] == "barrier"


def test_trace_preserving_flag(tmp_path):
    # the identity map is a channel: interpolate phi(E_11) = E_11 with TP on
    doc = {"n": 2, "k": 2, "trace_preserving": True,
           "pairs": [{"A": [[1, 0], [0, 0]], "B": [[1, 0], [0, 0]]}]}
    out = tmp_path / "report.json"
    code = cli.main(["solve", str(write_json(tmp_path / "tp.json", doc)), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["problem"]["trace_preserving"] is True
    assert any(tag.startswith("trace(") for tag in rep["constraints"])
    assert rep["max_residual"] <= 1e-8


def test_trace_preserving_cli_flag_overrides_file(tmp_path):
    doc = {"n": 2, "k": 2,
           "pairs": [{"A": [[1, 0], [0, 0]], "B": [[1, 0], [0, 0]]}]}
    out = tmp_path / "report.json"
    code = cli.main(["solve", str(write_json(tmp_path / "tp.json", doc)),
                     "--trace-preserving", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["problem"]["trace_preserving"] is True
    assert any(tag.startswith("trace(") for tag in rep["constraints"])


def test_seventeen_digit_floats(tmp_path):
    out = tmp_path / "report.json"
    cli.main(["solve", str(GOLDEN_INSTANCE), "--out", str(out)])
    text = out.read_text()
    # canonical writer re-reads to the same values
    doc = json.loads(text)
    phi = report_matrix(doc, "choi")
    assert np.isfinite(phi).all()
    # a representative float is printed with full precision
    token = f"{phi[0, 0].real:.17g}"
    assert token in text


# ---------------------------------------------------------------------------
# ill-conditioned diagonal draws


@pytest.mark.parametrize("seed, index", [(580057656, 7), (203, 57), (303, 102)])
def test_ill_conditioned_diagonal_draws_end_in_a_checked_verdict(tmp_path, seed, index):
    # draws of the test suite's diagonal recipe whose n x n input diagonals
    # have condition numbers 6e5, 2.8e4 and 1.3e4: whatever the verdict, it
    # must be one that is checked or one that claims nothing
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        inst, _ = planted_diagonal_instance(rng, 4, 4, 6)
    report, code = cli.run_solve(inst, cli.SolveOptions())
    assert report["status"] in ("feasible", "undetermined")
    if report["status"] == "undetermined":
        assert code == cli.EXIT_UNDETERMINED
        assert report["certificate"] is None
        return
    assert code == cli.EXIT_FEASIBLE
    instance_path = write_json(tmp_path / "instance.json", instance_to_jsonable(inst))
    report_path = tmp_path / "report.json"
    report_path.write_text(dumps_canonical(report))
    assert cli.main(["verify", str(report_path), str(instance_path)]) == 0
