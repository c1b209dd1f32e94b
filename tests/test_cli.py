import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from cpinterp import certify, cli, pipeline
from cpinterp.choi import ChoiMatrix, apply_choi, kraus_to_choi
from cpinterp.constraints import (
    InconsistentSystemError,
    ProblemInstance,
    embed_solution,
    instance_system,
    joint_support_reduce,
    prune_dependent,
)
from cpinterp.linalg import hermitian_part
from cpinterp.reports import (
    InstanceFormatError,
    dumps_canonical,
    instance_from_jsonable,
    instance_to_jsonable,
    parse_instance,
)
from cpinterp.solvers import ExpSolveConfig, project_affine, solve_barrier, solve_exp, verify
from helpers import (
    A1,
    A2,
    B1,
    B2,
    X_REF,
    norm_cap_instance,
    planted_diagonal_instance,
    planted_instance,
    random_channel_kraus,
    random_complex,
    random_hermitian,
    vv_face_instance,
)

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


def run_library(inst, solve, strict=False, **cfg):
    """The pipeline's stages with ``solve`` as the solver: the decision, and
    for a feasible one the ``verify`` report of the projected solution."""
    built = instance_system(inst)
    pruned = prune_dependent(built)
    reduced, reduction = joint_support_reduce(pruned, inst)
    rep = certify.decide(pruned, reduced, solve, ExpSolveConfig(**cfg), strict)
    if rep.status is not certify.FeasibilityStatus.FEASIBLE:
        return rep, None
    x = project_affine(embed_solution(rep.solve_outcome.solution, reduction), pruned)
    return rep, verify(x, built)


def test_solve_barrier_method():
    rep, check = run_library(parse_instance(GOLDEN_INSTANCE), solve_barrier, gradient_tol=1e-6)
    assert rep.status is certify.FeasibilityStatus.FEASIBLE
    assert check.max_residual <= 1e-6
    assert check.min_eigenvalue > 0


def test_solve_barrier_certifies_infeasibility_on_the_first_ray():
    rep, _ = run_library(instance_from_jsonable(infeasible_doc()), solve_barrier)
    assert rep.status is certify.FeasibilityStatus.CERTIFIED_INFEASIBLE
    assert rep.solve_outcome.status.value == "no-strictly-positive-solution"
    assert rep.certificate.source is certify.CertificateSource.DIVERGENCE_RAY
    assert rep.solve_outcome.iterations <= 10


def test_solve_barrier_answers_a_zero_target():
    # tr(diag(1, -1) X) = 0, which X = I solves
    doc = {"n": 2, "k": 1, "pairs": [{"A": [[1, 0], [0, -1]], "B": [[0]]}]}
    rep, check = run_library(instance_from_jsonable(doc), solve_barrier)
    assert rep.status is certify.FeasibilityStatus.FEASIBLE
    assert check.max_residual <= 1e-8 and check.positive_semidefinite


def barrier_parity_pool(rng):
    """Strictly feasible and infeasible instances: planted (Hermitian and
    complex data), planted plus the pair (I, -I), diagonal, and channels of
    full Kraus rank."""
    for i in range(10):
        yield planted_instance(rng, 2 + i % 2, 2, 1 + i % 3, hermitian_data=i % 2 == 0)[0]
    for _ in range(6):
        inst = planted_instance(rng, 2, 2, 2)[0]
        yield ProblemInstance(2, 2, inst.pairs + [(np.eye(2), -np.eye(2))])
    for i in range(8):
        yield planted_diagonal_instance(rng, 3, 3, 1 + i % 4)[0]
    for i in range(6):
        n = 2 + i % 2
        choi = kraus_to_choi(random_channel_kraus(rng, n, n * n))
        pairs = [(a, apply_choi(choi, a)) for a in (random_hermitian(rng, n) for _ in range(2))]
        yield ProblemInstance(n, n, pairs, trace_preserving=True)


def test_barrier_and_exp_give_the_same_status():
    statuses = []
    for inst in barrier_parity_pool(np.random.default_rng(31)):
        exp, _ = run_library(inst, solve_exp)
        barrier, _ = run_library(inst, solve_barrier)
        assert barrier.status is exp.status
        statuses.append(exp.status.value)
    assert statuses.count("feasible") == 24
    assert statuses.count("certified-infeasible") == 6


def unitary_channel_instance(seed: int, count: int) -> ProblemInstance:
    """A qubit unitary channel seen on ``count`` Hermitian inputs: its data pin
    the rank-1 Choi matrix, so the instance is feasible with no strictly
    positive solution."""
    rng = np.random.default_rng(seed)
    choi = kraus_to_choi(random_channel_kraus(rng, 2, 1))
    pairs = [(a, apply_choi(choi, a)) for a in (random_hermitian(rng, 2) for _ in range(count))]
    return ProblemInstance(2, 2, pairs, trace_preserving=True)


@pytest.mark.parametrize("seed", [0, 1])
def test_barrier_stall_on_a_unitary_channel_certifies_nothing(seed):
    # The barrier stalls on this boundary instance.  The ray of its last
    # iterate has an objective of twice its least eigenvalue, each just past
    # the tolerance 1e-9 (-1.7e-9 and -8.4e-10 for seed 0).  Since tr X = 2
    # on every solution, that ray proves nothing.
    inst = unitary_channel_instance(seed, 2)
    for strict in (False, True):
        rep, _ = run_library(inst, solve_barrier, strict, max_iterations=200)
        assert rep.status is not certify.FeasibilityStatus.CERTIFIED_INFEASIBLE


def test_a_long_newton_trial_step_prints_no_warning():
    # A Newton trial step on this instance is so long that the norm of its
    # gradient overflows; the step is rejected without a warning.
    inst = unitary_channel_instance(180, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, code = cli.run_solve(inst, cli.SolveOptions())
    assert (report["status"], code) == ("feasible", cli.EXIT_FEASIBLE)


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

    monkeypatch.setattr(pipeline, "prune_dependent", contradiction)
    out = tmp_path / "report.json"
    code = cli.main([command, str(GOLDEN_INSTANCE), "--out", str(out)])
    assert code == 3
    rep = json.loads(out.read_text())
    assert rep["status"] == "undetermined"
    assert rep["certificate"] is None
    assert "fails validation" in rep["solver"]["message"]


@pytest.mark.parametrize("args", [[], ["--tol", "1e-6"]])
def test_solver_block_splits_cg_and_newton_steps(tmp_path, args):
    out = tmp_path / "report.json"
    assert cli.main(["solve", str(GOLDEN_INSTANCE), *args, "--out", str(out)]) == 0
    solver = json.loads(out.read_text())["solver"]
    assert solver["cg_iterations"] + solver["newton_steps"] == solver["iterations"]
    assert solver["newton_steps"] >= 1


def test_barrier_splits_cg_and_newton_steps():
    rep, _ = run_library(parse_instance(GOLDEN_INSTANCE), solve_barrier, gradient_tol=1e-6)
    outcome = rep.solve_outcome
    assert outcome.cg_iterations + outcome.newton_steps == outcome.iterations
    assert outcome.newton_steps >= 1


def test_unitary_channel_solves_to_one_kraus_element(tmp_path):
    # B = U A U*: the solve ends at the rank-one Choi matrix of conjugation
    # by U, a boundary instance where the potential's infimum is not attained;
    # without the hand-off the solve takes 2334 steps
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(random_complex(rng, 3, 3))
    pairs = []
    for _ in range(6):
        a = random_hermitian(rng, 3)
        pairs.append((a, u @ a @ u.conj().T))
    inst = ProblemInstance(3, 3, pairs)
    report, code = cli.run_solve(inst, cli.SolveOptions())
    assert code == cli.EXIT_FEASIBLE
    assert report["kraus_count"] == 1
    assert report["solver"]["iterations"] < 1000
    assert_verify_accepts(tmp_path, inst, report)


def assert_verify_accepts(tmp_path, inst, report):
    instance_path = write_json(tmp_path / "instance.json", instance_to_jsonable(inst))
    report_path = tmp_path / "report.json"
    report_path.write_text(dumps_canonical(report))
    assert cli.main(["verify", str(report_path), str(instance_path)]) == 0


def test_solve_missing_file_is_input_error(tmp_path, capsys):
    code = cli.main(["solve", str(tmp_path / "absent.json")])
    assert code == 4
    assert "error" in capsys.readouterr().err


def test_solve_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["solve", str(path)]) == 4


def without_timing(text: str) -> str:
    return re.sub(r'"seconds": [^\n]*', '"seconds"', text)


@pytest.mark.parametrize("encode", [
    lambda text: b"\xef\xbb\xbf" + text.encode(),
    lambda text: text.encode("utf-16"),
    lambda text: text.encode("utf-32-be"),
], ids=["utf-8-bom", "utf-16", "utf-32-be"])
def test_an_instance_in_any_json_encoding_solves_as_the_plain_file(tmp_path, encode):
    # RFC 8259 section 8.1: a reader may ignore a byte-order mark, and
    # json.loads detects UTF-8, UTF-16 and UTF-32 from the bytes
    encoded = tmp_path / "encoded.json"
    encoded.write_bytes(encode(GOLDEN_INSTANCE.read_text()))
    texts = []
    for path in (GOLDEN_INSTANCE, encoded):
        out = tmp_path / "report.json"
        assert cli.main(["solve", str(path), "--out", str(out)]) == cli.EXIT_FEASIBLE
        texts.append(without_timing(out.read_text()))
    assert texts[0] == texts[1]


def test_an_undecodable_instance_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 1, "k": 1, "note": "\xe9", "pairs": []}')
    assert cli.main(["solve", str(path)]) == cli.EXIT_INPUT_ERROR
    assert "is not valid JSON" in capsys.readouterr().err


def determinism_instance(tmp_path, case):
    if case == "golden":
        return GOLDEN_INSTANCE
    if case == "diagonal":
        inst, _ = planted_diagonal_instance(np.random.default_rng(90), 3, 3, 5)
    else:
        inst, _ = planted_instance(np.random.default_rng(91), 3, 3, 3)
        inst = ProblemInstance(3, 3, inst.pairs + [(np.eye(3), -np.eye(3))])
    return write_json(tmp_path / f"{case}.json", instance_to_jsonable(inst))


@pytest.mark.parametrize("command, case", [
    ("solve", "golden"), ("solve", "diagonal"), ("certify", "infeasible"),
], ids=["golden-solve", "diagonal-solve", "infeasible-certify"])
def test_determinism_excluding_timing(tmp_path, command, case):
    # the rows' labels are cached per layout: an instance of another layout
    # (complex data, so both halves of every pair, with trace rows) runs
    # between the two calls
    path = determinism_instance(tmp_path, case)
    other, _ = planted_instance(np.random.default_rng(92), 2, 3, 4, hermitian_data=False)
    other.trace_preserving = True
    other_path = write_json(tmp_path / "other.json", instance_to_jsonable(other))
    texts = []
    for argv in ([command, path], ["certify", other_path], [command, path]):
        out = tmp_path / "report.json"
        cli.main([argv[0], str(argv[1]), "--out", str(out)])
        texts.append(without_timing(out.read_text()))
    assert texts[0] == texts[2]
    assert texts[0] != texts[1]


def test_output_round_off_above_the_target_cut_takes_the_exp_path(tmp_path, capsys):
    # B_1 carries 8e-13 off its diagonal: the targets 1.6e-12 of its strictly
    # off-diagonal rows are above the cut at which the diagonal solver drops
    # such a row, so auto must not pick it (it raised ValueError here once)
    inst, _ = planted_diagonal_instance(np.random.default_rng(5), 2, 2, 3)
    a, b = inst.pairs[0]
    b = b.copy()
    b[0, 1] = b[1, 0] = 0.8e-12
    inst = ProblemInstance(2, 2, [(a, b), *inst.pairs[1:]])
    path = write_json(tmp_path / "instance.json", instance_to_jsonable(inst))
    out = tmp_path / "report.json"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert (rep["status"], rep["solver"]["method"]) == ("feasible", "exp")
    assert cli.main(["verify", str(out), str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


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


@pytest.mark.parametrize("command", ["apply", "kraus"])
def test_boolean_report_dimensions_are_input_error(tmp_path, capsys, command):
    # n = k = true would read as a 1 x 1 map
    report = {"problem": {"n": True, "k": True}, "choi": [[[1.0, 0.0]]], "kraus": [[[[1.0, 0.0]]]]}
    report_path = write_json(tmp_path / "report.json", report)
    argv = [command, str(report_path)]
    if command == "apply":
        argv.append(str(write_json(tmp_path / "a.json", [[2.0]])))
    assert cli.main(argv) == 4
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command, change", [
    ("verify", {"problem": 2}), ("apply", {"problem": 2}), ("kraus", {"problem": 2}),
    ("verify", {"problem": [2, 2]}), ("apply", {"problem": [2, 2]}), ("kraus", {"problem": [2, 2]}),
    ("verify", {"kraus": 2}), ("kraus", {"kraus": 2}),
])
def test_malformed_report_is_input_error(golden_report, tmp_path, capsys, command, change):
    # a malformed problem or kraus is bad input (exit 4); verify's exit 1 means a failed check
    doc = json.loads(golden_report.read_text())
    doc.update(change)
    argv = [command, str(write_json(tmp_path / "report.json", doc))]
    if command != "kraus":
        argv.append(str(GOLDEN_INSTANCE if command == "verify"
                        else write_json(tmp_path / "a.json", A1.tolist())))
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


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


def test_verify_fails_a_feasible_report_on_contradictory_data(tmp_path, capsys):
    # a zero A with B = I contradicts itself: the report fails the residual
    # check on the first contradicting row instead of crashing
    good = write_json(tmp_path / "good.json",
                      {"n": 2, "k": 2, "pairs": [{"A": [[1, 0], [0, 1]], "B": [[1, 0], [0, 1]]}]})
    bad = write_json(tmp_path / "bad.json",
                     {"n": 2, "k": 2, "pairs": [{"A": [[0, 0], [0, 0]], "B": [[1, 0], [0, 1]]}]})
    report = tmp_path / "report.json"
    assert cli.main(["solve", str(good), "--out", str(report)]) == cli.EXIT_FEASIBLE
    assert cli.main(["verify", str(report), str(bad)]) == cli.EXIT_VERIFY_FAIL
    assert "FAIL: residuals: constraint value(1, 1, 1) residual -1 " in capsys.readouterr().out


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


def e11_no_strict_doc():
    # phi(E11) = 0 and phi(E22) = 1: X = diag(0, 1) solves it, no X > 0 does
    return {"n": 2, "k": 1, "pairs": [{"A": [[1, 0], [0, 0]], "B": [[0]]},
                                      {"A": [[0, 0], [0, 1]], "B": [[1]]}]}


@pytest.fixture
def no_strict_report(tmp_path):
    inst_path = write_json(tmp_path / "e11.json", e11_no_strict_doc())
    rep_path = tmp_path / "report.json"
    assert cli.main(["certify", str(inst_path), "--out", str(rep_path)]) == 3
    assert json.loads(rep_path.read_text())["status"] == "certified-no-strict"
    return inst_path, rep_path


def test_verify_validates_a_no_strict_certificate(no_strict_report, capsys):
    inst_path, rep_path = no_strict_report
    assert cli.main(["verify", str(rep_path), str(inst_path)]) == 0
    assert "certificate validates as excludes-pd" in capsys.readouterr().out


@pytest.mark.parametrize("coefficients", [None, [-1.0, 0.0], [1.0]],
                         ids=["missing", "edited", "short"])
def test_verify_refuses_a_bad_no_strict_certificate(no_strict_report, capsys, coefficients):
    inst_path, rep_path = no_strict_report
    doc = json.loads(rep_path.read_text())
    if coefficients is None:
        doc["certificate"] = None
    else:
        doc["certificate"]["coefficients"] = coefficients
    rep_path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(rep_path), str(inst_path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_refuses_a_pd_certificate_behind_certified_infeasible(no_strict_report, capsys):
    # e_1 excludes only strictly positive solutions; X = diag(0, 1) solves the data
    inst_path, rep_path = no_strict_report
    doc = json.loads(rep_path.read_text())
    doc["status"] = "certified-infeasible"
    rep_path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(rep_path), str(inst_path)]) == 1
    assert "does not validate as excludes-psd" in capsys.readouterr().out


def test_certify_finds_a_no_strict_certificate_through_the_cone_repair(tmp_path):
    # neither row is semidefinite; their sum [[.5, .5], [.5, .5]] is, at b = 0
    d = np.diag([1.0, -1.0])
    inst = ProblemInstance(2, 1, [(d, np.zeros((1, 1))), (np.full((2, 2), 0.5) - d, np.zeros((1, 1)))])
    report, code = cli.run_certify(inst, cli.SolveOptions())
    assert (report["status"], code) == ("certified-no-strict", cli.EXIT_UNDETERMINED)
    cert = report["certificate"]
    assert (cert["kind"], cert["source"]) == ("excludes-pd", "search")
    assert np.allclose(cert["coefficients"], np.ones(2) / np.sqrt(2.0), atol=1e-4)
    assert_verify_accepts(tmp_path, inst, report)


def test_certify_finds_the_no_strict_certificate_of_a_vv_face(tmp_path):
    # A1 + A2 = vv* maps to zero; no row direction, repaired or not, certifies it
    inst = vv_face_instance(66)
    report, code = cli.run_certify(inst, cli.SolveOptions())
    assert (report["status"], code) == ("certified-no-strict", cli.EXIT_UNDETERMINED)
    cert = report["certificate"]
    assert (cert["kind"], cert["source"]) == ("excludes-pd", "search")
    assert_verify_accepts(tmp_path, inst, report)
    assert_one_decision(inst, report)


# ---------------------------------------------------------------------------
# certify runs the solve pipeline


def planted_kernel_doc(rng):
    # the inputs vanish on a shared kernel, so support reduction compresses
    n, k = 4, 2
    basis = np.linalg.qr(random_complex(rng, n, n - 1))[0]
    x_true = np.eye(n * k) + 0.5 * random_hermitian(rng, n * k)
    x_true = x_true @ x_true.conj().T
    pairs = []
    for _ in range(2):
        a = basis @ random_hermitian(rng, n - 1) @ basis.conj().T
        pairs.append((a, apply_choi(ChoiMatrix(n, k, x_true), a)))
    return instance_to_jsonable(ProblemInstance(n, k, pairs))


def run_both(tmp_path, doc, *flags):
    path = write_json(tmp_path / "inst.json", doc)
    reps = {}
    for command in ("solve", "certify"):
        out = tmp_path / f"{command}.json"
        cli.main([command, str(path), *flags, "--out", str(out)])
        reps[command] = json.loads(out.read_text())
    return path, reps


@pytest.mark.parametrize("doc", [
    json.loads(GOLDEN_INSTANCE.read_text()),
    infeasible_doc(),
    {"n": 1, "k": 1, "pairs": [{"A": [[1]], "B": [[1]]}, {"A": [[1]], "B": [[2]]}]},
    {"n": 2, "k": 2, "pairs": [{"A": [[0, 0], [0, 0]], "B": [[0, 0], [0, 0]]}]},
], ids=["feasible", "infeasible", "contradictory", "all-zero"])
def test_certify_report_is_the_solve_report_plus_span_check(tmp_path, doc):
    _, reps = run_both(tmp_path, doc)
    assert set(reps["certify"]) == set(reps["solve"]) | {"span_check"}
    assert reps["certify"]["status"] == reps["solve"]["status"]
    assert reps["certify"]["constraints"] == reps["solve"]["constraints"]


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_method_flag_is_a_usage_error(capsys, command):
    # the solver is picked from the data; no flag selects it
    with pytest.raises(SystemExit) as exc:
        cli.main([command, str(GOLDEN_INSTANCE), "--method", "exp"])
    assert exc.value.code == cli.EXIT_INPUT_ERROR
    assert "unrecognized arguments: --method" in capsys.readouterr().err


def test_certify_honours_the_method_flag(tmp_path):
    # solver.method "exp" names the one solve path, and certify takes it too
    doc = json.loads(GOLDEN_INSTANCE.read_text())
    doc["solver"] = {"method": "exp"}
    _, reps = run_both(tmp_path, doc, "--tol", "1e-6")
    assert reps["certify"]["status"] == "feasible"
    assert reps["certify"]["solver"]["method"] == "exp"


@pytest.mark.parametrize("run", [cli.run_solve, cli.run_certify])
def test_an_unknown_method_is_refused_before_the_build(tmp_path, monkeypatch, capsys, run):
    # solver.method is checked when the file is read, before run_* is reached
    def no_build(*args, **kwargs):
        raise AssertionError("the system was built")

    monkeypatch.setattr(pipeline, "instance_system", no_build)
    doc = json.loads(GOLDEN_INSTANCE.read_text())
    doc["solver"] = {"method": "newton"}
    path = write_json(tmp_path / "inst.json", doc)
    command = run.__name__.removeprefix("run_")
    assert cli.main([command, str(path)]) == cli.EXIT_INPUT_ERROR
    assert "solver.method must be exp or auto" in capsys.readouterr().err


def test_certify_takes_the_diagonal_path_under_auto(tmp_path):
    doc = {"n": 2, "k": 2, "pairs": [{"A": [[2, 0], [0, 1]], "B": [[3, 0], [0, 1]]}]}
    _, reps = run_both(tmp_path, doc)
    assert reps["certify"]["status"] == "feasible"
    assert reps["certify"]["solver"]["method"] == "diagonal"


def test_certify_reduces_the_support(tmp_path, capsys):
    path, reps = run_both(tmp_path, planted_kernel_doc(np.random.default_rng(1010)))
    rep = reps["certify"]
    assert rep["status"] == "feasible"
    assert rep["support"]["reduced_dim"] < rep["support"]["full_dim"]
    assert cli.main(["verify", str(tmp_path / "certify.json"), str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def hermitian_halves_instance(inst: ProblemInstance) -> ProblemInstance:
    """The same instance with every pair written as its two Hermitian halves,
    ``(A + A^*)/2`` and ``(A - A^*)/2i``, the Hermitian part of ``-iA``."""
    pairs = [
        (hermitian_part(c * a), hermitian_part(c * b)) for a, b in inst.pairs for c in (1.0, -1j)
    ]
    return ProblemInstance(inst.n, inst.k, pairs, inst.trace_preserving)


def assert_one_decision(inst, report):
    """``feasibility_report`` on the pruned system decides as ``certify`` did."""
    rep = certify.feasibility_report(prune_dependent(instance_system(inst)))
    cert = report["certificate"]
    assert rep.status.value == report["status"]
    assert (cert and (cert["kind"], cert["source"])) == (
        rep.certificate and (rep.certificate.kind.value, rep.certificate.source.value)
    )


@pytest.mark.parametrize("case, status", [
    ("golden", "feasible"), ("e11", "certified-no-strict"),
    ("planted-negative-identity", "certified-infeasible"),
])
def test_feasibility_report_and_certify_share_one_decision(case, status):
    # vv_face_instance(66) is checked in the vv-face test above: each of its
    # two certificate searches takes about 0.9 s
    if case == "golden":
        inst = parse_instance(GOLDEN_INSTANCE)
    elif case == "e11":
        inst = instance_from_jsonable(e11_no_strict_doc())
    else:
        planted, _ = planted_instance(np.random.default_rng(0), 3, 3, 3)
        inst = ProblemInstance(3, 3, planted.pairs + [(np.eye(3), -np.eye(3))])
    report, _ = cli.run_certify(inst, cli.SolveOptions())
    assert report["status"] == status
    assert_one_decision(inst, report)


@pytest.mark.parametrize("infeasible", [False, True])
def test_a_complex_instance_answers_as_its_hermitian_halves(infeasible):
    inst, _ = planted_instance(np.random.default_rng(1011), 3, 3, 3, hermitian_data=False)
    if infeasible:
        eye = np.eye(3, dtype=complex)
        inst = ProblemInstance(3, 3, inst.pairs + [(eye, -eye)])
    for run in (cli.run_solve, cli.run_certify):
        (rep, code), (halves, halves_code) = (
            run(i, cli.SolveOptions()) for i in (inst, hermitian_halves_instance(inst))
        )
        assert (rep["status"], code) == (halves["status"], halves_code)
        assert (rep["status"] == "feasible") != infeasible
        if infeasible:
            assert rep["certificate"]["source"] == halves["certificate"]["source"]
        else:
            gap = np.abs(report_matrix(rep, "choi") - report_matrix(halves, "choi")).max()
            assert gap < 1e-9


def test_solve_and_certify_factor_no_p2_row_coordinate_matrix(monkeypatch):
    # every built system arrives with its factor, so no QR has the p^2 rows
    # of the coordinate matrix
    rng = np.random.default_rng(1012)
    eye = np.eye(3, dtype=complex)
    planted, _ = planted_instance(rng, 3, 3, 3)
    channel = kraus_to_choi(random_channel_kraus(rng, 2, 4))
    inputs = [random_hermitian(rng, 2) for _ in range(3)]
    instances = [
        planted,
        planted_instance(rng, 3, 2, 3, hermitian_data=False)[0],
        planted_diagonal_instance(rng, 3, 3, 5)[0],
        ProblemInstance(2, 2, [(a, apply_choi(channel, a)) for a in inputs], trace_preserving=True),
        ProblemInstance(3, 3, planted.pairs + [(eye, -eye)]),
    ]
    shapes = []
    qr = np.linalg.qr
    monkeypatch.setattr(
        np.linalg, "qr", lambda a, *args, **kw: shapes.append(a.shape) or qr(a, *args, **kw)
    )
    for inst in instances:
        for run in (cli.run_solve, cli.run_certify):
            shapes.clear()
            run(inst, cli.SolveOptions())
            assert shapes and all(rows != (inst.n * inst.k) ** 2 for rows, _ in shapes)


# ---------------------------------------------------------------------------
# options


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_file_solver_method_barrier_is_input_error(tmp_path, monkeypatch, capsys, command):
    # "exp" and "auto" name the one solve path; the barrier is a library solver
    def no_build(*args, **kwargs):
        raise AssertionError("the system was built")

    monkeypatch.setattr(pipeline, "instance_system", no_build)
    doc = json.loads(GOLDEN_INSTANCE.read_text())
    doc["solver"] = {"method": "barrier", "tol": 1e-6}
    path = write_json(tmp_path / "inst.json", doc)
    assert cli.main([command, str(path)]) == cli.EXIT_INPUT_ERROR
    assert "cpinterp.solve_barrier" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "certify"])
@pytest.mark.parametrize(
    "section",
    [
        [],
        {"method": "bogus"},
        {"tol": "abc"},
        {"tol": [1]},
        {"tol": float("inf")},
        {"tol": float("nan")},
        {"max_iters": True},
        {"max_iters": "100"},
        {"max_iters": 2.0},
        {"max_iters": -1},
        {"max_iters": 0},
    ],
)
def test_malformed_solver_section_is_input_error(tmp_path, capsys, command, section):
    doc = json.loads(GOLDEN_INSTANCE.read_text())
    doc["solver"] = section
    assert cli.main([command, str(write_json(tmp_path / "inst.json", doc))]) == 4
    assert "solver" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "certify"])
@pytest.mark.parametrize(
    "field, value",
    [("n", True), ("k", True), ("n", 0), ("k", -2), ("n", 2.0), ("k", "2"), ("n", None)],
)
def test_malformed_dimension_is_input_error(tmp_path, capsys, command, field, value):
    # isinstance(True, int) holds, so a bool must be refused by name
    doc = json.loads(GOLDEN_INSTANCE.read_text())
    doc[field] = value
    assert cli.main([command, str(write_json(tmp_path / "inst.json", doc))]) == 4
    assert f"'{field}' must be a positive integer" in capsys.readouterr().err


def test_boolean_dimensions_are_input_error(tmp_path, capsys):
    doc = {"n": True, "k": True, "pairs": [{"A": [[1]], "B": [[1]]}]}
    assert cli.main(["solve", str(write_json(tmp_path / "inst.json", doc))]) == 4
    assert "'n' must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan", "0"])
def test_non_finite_or_non_positive_tol_flag_is_input_error(golden_report, capsys, value):
    # with --tol inf the solver would stop at step 0 and report "feasible"
    for argv in (
        ["solve", str(GOLDEN_INSTANCE)],
        ["certify", str(GOLDEN_INSTANCE)],
        ["verify", str(golden_report), str(GOLDEN_INSTANCE)],
    ):
        assert cli.main(argv + ["--tol", value]) == 4
        assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "certify", "verify"])
@pytest.mark.parametrize("flags", [["--bogus"], ["--tol", "abc"], ["--max-iters", "x"]])
def test_usage_error_exits_as_input_error(golden_report, capsys, command, flags):
    # argparse's own status 2 would read as "certified infeasible"
    files = [str(golden_report)] if command == "verify" else []
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *files, str(GOLDEN_INSTANCE), *flags])
    assert exc.value.code == 4
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["certify"]])
def test_missing_subcommand_or_instance_exits_as_input_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 4


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["certify", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_zero_max_iters_flag_is_input_error(capsys, command):
    assert cli.main([command, str(GOLDEN_INSTANCE), "--max-iters", "0"]) == 4
    assert "--max-iters must be at least 1" in capsys.readouterr().err


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


def test_trace_preserving_cli_flag_overrides_file(tmp_path, capsys):
    # A = E_11 vanishes on e_2, but the trace rows the flag adds leave no
    # common kernel, so the support is not reduced
    doc = {"n": 2, "k": 2, "trace_preserving": False,
           "pairs": [{"A": [[1, 0], [0, 0]], "B": [[1, 0], [0, 0]]}]}
    path = write_json(tmp_path / "tp.json", doc)
    out = tmp_path / "report.json"
    code = cli.main(["solve", str(path), "--trace-preserving", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["problem"]["trace_preserving"] is True
    assert any(tag.startswith("trace(") for tag in rep["constraints"])
    assert rep["support"]["reduced_dim"] == rep["support"]["full_dim"] == 4
    assert cli.main(["verify", str(out), str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


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
# instances whose pairs all vanish

ZERO_2X2 = [[0, 0], [0, 0]]


@pytest.mark.parametrize("command", ["solve", "certify"])
@pytest.mark.parametrize("pairs", [1, 3])
def test_all_zero_pairs_are_feasible(tmp_path, capsys, command, pairs):
    # no constraint remains, so every positive X solves the instance
    doc = {"n": 2, "k": 2, "pairs": [{"A": ZERO_2X2, "B": ZERO_2X2}] * pairs}
    path = write_json(tmp_path / "zero.json", doc)
    out = tmp_path / "report.json"
    assert cli.main([command, str(path), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["status"] == "feasible"
    assert rep["solver"]["method"] == "diagonal"
    assert rep["constraints"] == []
    assert rep["min_eigenvalue"] > 0
    phi = report_matrix(rep, "choi")
    assert np.linalg.eigvalsh(phi).min() > 0
    assert cli.main(["verify", str(out), str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    barrier, check = run_library(parse_instance(path), solve_barrier, command == "certify")
    assert barrier.status is certify.FeasibilityStatus.FEASIBLE
    assert check.min_eigenvalue > 0 and check.positive_semidefinite


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_zero_input_with_nonzero_output_stays_infeasible(tmp_path, command):
    doc = {"n": 2, "k": 2, "pairs": [{"A": ZERO_2X2, "B": [[1, 0], [0, 1]]}]}
    out = tmp_path / "report.json"
    assert cli.main([command, str(write_json(tmp_path / "c.json", doc)), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["status"] == "certified-infeasible"


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_zero_pair_beside_a_normal_pair_stays_feasible(tmp_path, command):
    doc = {"n": 2, "k": 2, "pairs": [
        {"A": ZERO_2X2, "B": ZERO_2X2},
        {"A": [[2, 1], [1, 0]], "B": [[4, 0], [0, 0]]},
    ]}
    path = write_json(tmp_path / "mixed.json", doc)
    out = tmp_path / "report.json"
    assert cli.main([command, str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "feasible"
    assert cli.main(["verify", str(out), str(path)]) == 0


# ---------------------------------------------------------------------------
# inputs at the scale of the tolerances


def test_a_tiny_input_is_not_certified_no_strict(tmp_path):
    # X = 1e9 solves phi(1e-9) = 1.  The combination -1e-9 is zero within the
    # tolerance, so it excludes no positive definite X
    doc = {"n": 1, "k": 1, "pairs": [{"A": [[1e-9]], "B": [[1]]}]}
    path = write_json(tmp_path / "tiny.json", doc)
    out = tmp_path / "report.json"
    for command in ("solve", "certify"):
        code = cli.main([command, str(path), "--out", str(out)])
        rep = json.loads(out.read_text())
        assert rep["certificate"] is None
        assert (rep["status"], code) in (("feasible", 0), ("undetermined", 3))


def tiny_inputs(case):
    if case == "2x2-3e-11":
        return ProblemInstance(2, 2, [(3e-11 * random_hermitian(np.random.default_rng(0), 2),
                                       np.eye(2))])
    return ProblemInstance(1, 1, [(np.array([[float(case[4:])]]), np.eye(1))])


@pytest.mark.parametrize("case", ["1x1-1e-10", "1x1-1e-11", "2x2-3e-11"])
def test_inputs_below_the_support_cut_are_solved_unreduced(case):
    # the build keeps these rows, while the support cut reads them as all
    # kernel; the solve runs on the unreduced system instead of a 0 x 0 one
    inst = tiny_inputs(case)
    for run in (cli.run_solve, cli.run_certify):
        report, code = run(inst, cli.SolveOptions())
        assert report["support"]["reduced_dim"] == report["support"]["full_dim"]
        if inst.n == 1:  # feasible data: X = 1 / A solves them
            assert report["certificate"] is None
            assert (report["status"], code) in (("feasible", 0), ("undetermined", 3))


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


def test_consistent_pair_at_a_large_scale_solves_feasible(tmp_path):
    # prune measures each row at unit norm, so a pair scaled by 1e6 no
    # longer makes the unit-scale rows look dependent
    inst, _ = planted_instance(np.random.default_rng(5), 2, 2, 3)
    (a1, b1), (a2, b2) = inst.pairs[:2]
    inst = ProblemInstance(2, 2, inst.pairs + [(1e6 * (a1 + a2), 1e6 * (b1 + b2))])
    report, code = cli.run_solve(inst, cli.SolveOptions())
    assert (report["status"], code) == ("feasible", cli.EXIT_FEASIBLE)
    assert_verify_accepts(tmp_path, inst, report)


def test_golden_with_a_pair_scaled_by_1e6_solves_feasible(tmp_path, capsys):
    # prune keeps both pairs at unit row norm, and the projection makes the
    # same decision on its Gram matrix scaled to a unit diagonal
    doc = json.loads(GOLDEN_INSTANCE.read_text())
    doc["pairs"][1] = {key: (1e6 * np.array(value)).tolist()
                       for key, value in doc["pairs"][1].items()}
    path = write_json(tmp_path / "scaled.json", doc)
    out = tmp_path / "report.json"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "feasible"
    assert cli.main(["verify", str(out), str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_norm_cap_stop_certifies_infeasibility():
    report, code = cli.run_certify(norm_cap_instance(), cli.SolveOptions())
    assert report["solver"]["message"] == (
        "CG saw the iterates diverge with the objective still decreasing"
    )
    assert (report["status"], code) == ("certified-infeasible", cli.EXIT_CERTIFIED_INFEASIBLE)
    assert report["certificate"]["source"] == "divergence-ray"


@pytest.mark.parametrize("seed, index", [(203, 57), (303, 102)])
def test_ill_conditioned_diagonal_draws_solve_feasible(tmp_path, seed, index):
    # six pairs keep 16 independent diagonal rows for p = 16: the rows
    # determine the diagonal, and one linear solve answers with no CG and no
    # Newton step (CG alone stops these at the norm cap or the iteration cap)
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        inst, _ = planted_diagonal_instance(rng, 4, 4, 6)
    report, code = cli.run_solve(inst, cli.SolveOptions())
    assert (report["status"], code) == ("feasible", cli.EXIT_FEASIBLE)
    assert (report["solver"]["cg_iterations"], report["solver"]["newton_steps"]) == (0, 0)
    assert_verify_accepts(tmp_path, inst, report)
