import numpy as np
import pytest

from cpinterp import certify, constraints
from cpinterp.certify import (
    Certificate,
    CertificateKind,
    CertificateSource,
    FeasibilityStatus,
    SpanSource,
    feasibility_report,
    ray_certificate,
    search_certificate,
    span_contains_positive,
    validate,
)
from cpinterp.constraints import ConstraintSystem, ProblemInstance, instance_system, prune_dependent
from cpinterp.solvers import ExpSolveConfig, SolveStatus, solve_exp
from helpers import golden_system, planted_instance, vv_face_instance


def system_of(mats, targets):
    mats = np.asarray(mats, dtype=complex)
    return ConstraintSystem(mats.shape[1], mats, np.asarray(targets, dtype=float))


def e11(p=2):
    m = np.zeros((p, p), dtype=complex)
    m[0, 0] = 1.0
    return m


# ---------------------------------------------------------------------------
# validate


def test_validate_psd_excluding_coordinate_certificate():
    sys = system_of([e11()], [-1.0])
    cert = Certificate(np.array([1.0]), CertificateKind.EXCLUDES_PSD)
    assert validate(cert, sys, tol=1e-9)


def test_validate_pd_but_not_psd_excluding():
    sys = system_of([e11()], [0.0])
    pd_cert = Certificate(np.array([1.0]), CertificateKind.EXCLUDES_PD)
    psd_cert = Certificate(np.array([1.0]), CertificateKind.EXCLUDES_PSD)
    assert validate(pd_cert, sys, tol=1e-9)
    assert not validate(psd_cert, sys, tol=1e-9)  # X = E_22 is PSD feasible


def test_validate_rejects_outside_cone():
    sys = system_of([np.diag([1.0, -1.0])], [-1.0])
    cert = Certificate(np.array([1.0]), CertificateKind.EXCLUDES_PSD)
    assert not validate(cert, sys, tol=1e-9)


def test_validate_scale_invariance():
    sys = system_of([e11()], [-1.0])
    for scale in (1.0, 7.0, 1e-3):
        cert = Certificate(np.array([scale]), CertificateKind.EXCLUDES_PSD)
        assert validate(cert, sys, tol=1e-9)


def test_validate_rejects_an_objective_the_eigenvalue_slack_explains():
    # rows tr X = 2 and tr((I + d E_22) X) = 2 + 1.5 d, solved by X = diag(0.5, 1.5);
    # x = (1, -1) / sqrt 2 gives S = -(d / sqrt 2) E_22 and b . x = -1.5 d / sqrt 2
    d = 8e-10 * np.sqrt(2.0)
    sys = system_of([np.eye(2), np.eye(2) + np.diag([0.0, d])], [2.0, 2.0 + 1.5 * d])
    x = np.array([1.0, -1.0])
    objective, mineig = -1.2e-9, -8e-10  # each clears the tolerance 1e-9 on its own
    assert np.isclose(x @ sys.targets / np.sqrt(2.0), objective, rtol=1e-6)
    assert np.isclose(np.linalg.eigvalsh(sys.aggregate(x / np.sqrt(2.0)))[0], mineig, rtol=1e-6)
    psd_cert = Certificate(x, CertificateKind.EXCLUDES_PSD)
    # but tr X = 2 on every solution, so b . x >= 2 * min eig S = -1.6e-9
    assert not validate(psd_cert, sys, tol=1e-9)
    # and S has no eigenvalue above the tolerance, so x cannot exclude the
    # positive definite X either
    pd_cert = Certificate(x, CertificateKind.EXCLUDES_PD)
    assert not validate(pd_cert, sys, tol=1e-9)
    assert certify._classify(sys, x, CertificateSource.SEARCH) is None


def test_no_valid_psd_certificate_on_feasible_golden_system():
    sys = golden_system()
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.standard_normal(sys.q)
        cert = Certificate(x, CertificateKind.EXCLUDES_PSD)
        assert not validate(cert, sys, tol=1e-9)
    found = search_certificate(sys)
    assert found is None


# ---------------------------------------------------------------------------
# search_certificate


def test_search_finds_planted_coordinate_certificate():
    sys = system_of([e11()], [-1.0])
    cert = search_certificate(sys)
    assert cert is not None
    assert cert.kind is CertificateKind.EXCLUDES_PSD
    assert validate(cert, sys, tol=1e-9)
    assert abs(abs(cert.coefficients[0]) - 1.0) < 1e-12


def test_search_certifies_negative_identity_instance():
    inst = ProblemInstance(2, 2, [(np.eye(2), -np.eye(2))])
    sys = prune_dependent(instance_system(inst))
    cert = search_certificate(sys)
    assert cert is not None
    assert cert.kind is CertificateKind.EXCLUDES_PSD
    assert validate(cert, sys, tol=1e-9)
    assert cert.coefficients @ sys.targets < -0.5


def test_search_returns_none_on_planted_feasible():
    rng = np.random.default_rng(7)
    for _ in range(3):
        inst, _ = planted_instance(rng, 2, 2, 2)
        sys = prune_dependent(instance_system(inst))
        assert search_certificate(sys) is None


def test_search_finds_pd_certificate():
    sys = system_of([e11()], [0.0])
    cert = search_certificate(sys)
    assert cert is not None
    assert cert.kind is CertificateKind.EXCLUDES_PD
    assert validate(cert, sys, tol=1e-9)


def cone_repair_system():
    # neither row is semidefinite, but their sum [[.5, .5], [.5, .5]] is, at b = 0
    d = np.diag([1.0, -1.0])
    return system_of([d, np.full((2, 2), 0.5) - d], [0.0, 0.0])


def test_search_finds_a_certificate_only_the_cone_repair_reaches():
    sys = cone_repair_system()
    for x in (*np.eye(2), *-np.eye(2)):
        assert certify._classify(sys, x, CertificateSource.SEARCH) is None
    cert = search_certificate(sys)
    assert cert is not None
    assert cert.kind is CertificateKind.EXCLUDES_PD
    assert cert.source is CertificateSource.SEARCH
    assert validate(cert, sys, tol=1e-9)
    assert np.allclose(cert.coefficients, np.ones(2) / np.sqrt(2.0), atol=1e-4)


def test_search_certifies_a_face_only_the_descent_reaches():
    # no row direction reaches the cone here: the hinge repair stalls short of
    # the tolerance from each, and the penalized descent is what finds y
    sys = prune_dependent(instance_system(vv_face_instance(66)))
    for e in np.eye(sys.q):
        for x in (e, -e):
            for cand in (x, certify._repair_into_cone(sys, x)):
                assert certify._classify(sys, cand, CertificateSource.SEARCH) is None
    cert = search_certificate(sys)
    assert cert is not None
    assert cert.kind is CertificateKind.EXCLUDES_PD
    assert cert.source is CertificateSource.SEARCH
    assert validate(cert, sys, tol=1e-9)


def test_search_draws_no_random_numbers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the certificate search drew random numbers")

    rng = np.random.default_rng(12)
    planted, _ = planted_instance(rng, 2, 2, 2)
    infeasible = ProblemInstance(2, 2, planted.pairs + [(np.eye(2), -np.eye(2))])
    monkeypatch.setattr(np.random, "default_rng", refuse)
    for sys in (cone_repair_system(), prune_dependent(instance_system(infeasible))):
        first, second = search_certificate(sys), search_certificate(sys)
        assert first is not None
        assert first.kind is second.kind
        assert np.array_equal(first.coefficients, second.coefficients)


# ---------------------------------------------------------------------------
# ray_certificate


def test_ray_certificate_repairs_a_ray_just_outside_the_cone():
    sys = system_of([e11(), np.diag([0.0, 1.0])], [-1.0, -1.0])
    coefficients = -np.array([1.0, -1e-3])  # a diverging x runs along minus the ray
    raw = Certificate(-coefficients, CertificateKind.EXCLUDES_PSD)
    assert not validate(raw, sys, tol=1e-9)  # the raw ray's min eigenvalue is about -1e-3
    cert = ray_certificate(sys, coefficients)
    assert cert is not None
    assert cert.kind is CertificateKind.EXCLUDES_PSD
    assert cert.source is CertificateSource.DIVERGENCE_RAY
    assert validate(cert, sys, tol=1e-9)


def test_ray_certificate_gives_none_without_a_psd_excluding_ray():
    sys = system_of([e11()], [0.0])  # only a PD-excluding certificate exists
    assert ray_certificate(sys, np.array([-1.0])) is None
    assert ray_certificate(sys, None) is None
    assert ray_certificate(sys, np.zeros(1)) is None


# ---------------------------------------------------------------------------
# span_contains_positive


def test_span_check_identity_in_span():
    sys = system_of([np.eye(3)], [1.0])
    check = span_contains_positive(sys)
    assert check.contains_positive_definite
    assert check.best_min_eigenvalue > 0


def test_span_check_golden_system():
    check = span_contains_positive(golden_system())
    assert check.contains_positive_definite


def test_span_check_negative_case():
    # span{E_11} on C^2 contains no positive definite matrix
    sys = system_of([e11()], [1.0])
    check = span_contains_positive(sys)
    assert not check.contains_positive_definite


def planted_draw(seed, shape, draw):
    """The pruned system of the ``draw``-th (from 0) planted instance of a seed."""
    rng = np.random.default_rng(seed)
    for _ in range(draw + 1):
        inst, _ = planted_instance(rng, *shape)
    return prune_dependent(instance_system(inst))


def assert_exact_yes(sys, check):
    assert check.contains_positive_definite
    assert check.best_min_eigenvalue > 1e-9
    assert np.linalg.norm(check.witness) == pytest.approx(1.0)
    combo = sys.aggregate(check.witness)
    assert np.linalg.eigvalsh(combo)[0] == pytest.approx(check.best_min_eigenvalue)


@pytest.mark.parametrize("seed, draw, mineig", [(7, 11, 0.025), (8, 1, 0.014)])
def test_span_check_finds_a_positive_combination_an_ascent_missed(seed, draw, mineig):
    # a supergradient ascent from the identity fit and 3 seeded starts
    # reached -0.048 and -0.141 on these systems
    sys = planted_draw(seed, (4, 4, 6), draw)
    check = span_contains_positive(sys)
    assert_exact_yes(sys, check)
    assert check.best_min_eigenvalue == pytest.approx(mineig, abs=2e-3)
    assert check.source is SpanSource.DIVERGENCE_RAY


@pytest.fixture
def solves(monkeypatch):
    """The (config, outcome) of every exp solve run through ``certify``."""
    calls = []

    def recording_solve(sys, cfg=None):
        calls.append((cfg, solve_exp(sys, cfg)))
        return calls[-1][1]

    monkeypatch.setattr(certify, "solve_exp", recording_solve)
    return calls


def test_span_check_reads_the_witness_of_a_solve_that_hit_its_limit(solves):
    # one CG step, then 5 Newton steps that neither converge nor reach a
    # point that passes the recession test
    sys = planted_draw(5, (3, 3, 3), 36)
    check = span_contains_positive(sys, ExpSolveConfig(max_iterations=1))
    assert [o.status for _, o in solves] == [SolveStatus.ITERATION_LIMIT]
    assert_exact_yes(sys, check)
    assert check.source is SpanSource.DIVERGENCE_RAY


@pytest.mark.parametrize("seed, draw", [(7, 9), (8, 1)])
def test_span_check_ends_newton_on_a_receding_trial_point(solves, seed, draw):
    # these solves used to take 50 Newton steps before CG, resumed, found the
    # ray; Newton's backtracking passes a point on it within a few steps
    sys = planted_draw(seed, (4, 4, 6), draw)
    check = span_contains_positive(sys)
    [(_, outcome)] = solves
    assert outcome.status is SolveStatus.NO_STRICTLY_POSITIVE_SOLUTION
    assert outcome.newton_steps <= 10
    assert_exact_yes(sys, check)
    assert check.source is SpanSource.DIVERGENCE_RAY


@pytest.mark.parametrize("draw", [59, 53])
def test_span_check_solve_diverges_before_round_off_hides_the_ray(solves, draw):
    # these solves used to run to |x| ~ 1e15-1e16, where round-off in sum x C
    # exceeds the ray's margin, and end on the iteration cap
    sys = planted_draw(5, (3, 3, 3), draw)
    span_contains_positive(sys)
    [(_, outcome)] = solves
    assert outcome.status is SolveStatus.NO_STRICTLY_POSITIVE_SOLUTION
    assert np.linalg.norm(outcome.coefficients) < 1e3


def test_span_check_sources():
    # span{E_11} on C^2: X = E_22 solves the alternative system
    no = span_contains_positive(system_of([e11()], [1.0]))
    assert not no.contains_positive_definite
    assert no.best_min_eigenvalue <= 0
    assert no.source is SpanSource.SOLUTION
    # E_11 + E_22 = I: prune finds the identity in the span
    sys = system_of([e11(), np.diag([0.0, 1.0])], [1.0, 2.0])
    yes = span_contains_positive(sys)
    assert_exact_yes(sys, yes)
    assert yes.source is SpanSource.LINEAR_SYSTEM
    assert yes.witness == pytest.approx(np.full(2, np.sqrt(0.5)))


def test_span_check_never_prunes(monkeypatch):
    # the identity's pivot is read off the pruned system's own factor
    linear = system_of([e11(), np.diag([0.0, 1.0])], [1.0, 2.0])
    ray = planted_draw(7, (4, 4, 6), 11)

    def refuse(sys):
        raise AssertionError("the span check pruned")

    for module in (constraints, certify):
        monkeypatch.setattr(module, "prune_dependent", refuse, raising=False)
    yes = span_contains_positive(linear)
    assert_exact_yes(linear, yes)
    assert yes.source is SpanSource.LINEAR_SYSTEM
    assert yes.witness == pytest.approx(np.full(2, np.sqrt(0.5)))
    check = span_contains_positive(ray)
    assert_exact_yes(ray, check)
    assert check.best_min_eigenvalue == pytest.approx(0.025, abs=2e-3)
    assert check.source is SpanSource.DIVERGENCE_RAY


def test_span_check_without_rows_is_no():
    check = span_contains_positive(ConstraintSystem(2, np.zeros((0, 2, 2)), np.zeros(0)))
    assert not check.contains_positive_definite
    assert check.witness is None


def test_span_check_refuses_an_unpruned_system():
    with pytest.raises(ValueError, match="pruned"):
        span_contains_positive(system_of([e11(), 2 * e11()], [1.0, 2.0]))


def test_span_check_solve_is_bounded_by_the_config(solves):
    cfg = ExpSolveConfig(max_iterations=3)
    span_contains_positive(system_of([e11()], [1.0]), cfg)
    assert [c for c, _ in solves] == [cfg]


# ---------------------------------------------------------------------------
# feasibility_report


def test_report_feasible_golden():
    rep = feasibility_report(golden_system())
    assert rep.status is FeasibilityStatus.FEASIBLE
    assert rep.certificate is None
    assert rep.solve_outcome.max_residual <= 1e-9


def test_report_certified_infeasible():
    inst = ProblemInstance(2, 2, [(np.eye(2), -np.eye(2))])
    sys = prune_dependent(instance_system(inst))
    rep = feasibility_report(sys)
    assert rep.status is FeasibilityStatus.CERTIFIED_INFEASIBLE
    assert rep.certificate is not None
    assert validate(rep.certificate, sys, tol=1e-9)


def test_report_certifies_planted_infeasible_from_the_ray(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the restart search ran")

    monkeypatch.setattr(certify, "search_certificate", no_search)
    rng = np.random.default_rng(2024)
    instances = [ProblemInstance(2, 2, [(np.eye(2), -np.eye(2))])]
    for trial in range(20):
        n = 2 + trial % 2
        planted, _ = planted_instance(rng, n, n, n)
        instances.append(ProblemInstance(n, n, planted.pairs + [(np.eye(n), -np.eye(n))]))
    for inst in instances:
        sys = prune_dependent(instance_system(inst))
        # the pair (I, -I) puts I in the span, pairing negatively: the strict
        # report answers from the span check and runs no solve
        rep = feasibility_report(sys)
        assert rep.status is FeasibilityStatus.CERTIFIED_INFEASIBLE
        assert rep.certificate.source is CertificateSource.LINEAR_SYSTEM
        assert rep.solve_outcome is None
        assert validate(rep.certificate, sys, tol=1e-9)
        # without the span check the exp solve diverges, and its ray certifies
        rep = certify.decide(sys, sys, solve_exp, None, False)
        assert rep.status is FeasibilityStatus.CERTIFIED_INFEASIBLE
        assert rep.certificate.source is CertificateSource.DIVERGENCE_RAY
        assert validate(rep.certificate, sys, tol=1e-9)


def test_report_no_strict_singleton():
    sys = system_of([e11()], [0.0])
    rep = feasibility_report(sys)
    assert rep.status is FeasibilityStatus.CERTIFIED_NO_STRICT
    assert rep.certificate is not None
    assert rep.certificate.kind is CertificateKind.EXCLUDES_PD
    # X = E_22 >= 0 actually satisfies the system: only strict positivity fails
    feasible_psd = np.diag([0.0, 1.0]).astype(complex)
    assert np.abs(sys.residuals(feasible_psd)).max() < 1e-15


def test_report_never_pairs_feasible_with_psd_certificate():
    rng = np.random.default_rng(11)
    for _ in range(5):
        inst, _ = planted_instance(rng, 2, 2, 2)
        sys = prune_dependent(instance_system(inst))
        rep = feasibility_report(sys)
        feasible = rep.status is FeasibilityStatus.FEASIBLE
        has_psd_cert = (
            rep.certificate is not None
            and rep.certificate.kind is CertificateKind.EXCLUDES_PSD
        )
        assert not (feasible and has_psd_cert)
        assert feasible  # planted systems are strictly feasible
