"""cpinterp: completely positive maps taking prescribed values.

Given pairs (A_nu, B_nu), find a completely positive map phi: M_n -> M_k with
phi(A_nu) = B_nu (optionally trace preserving).  The problem reduces to
finding a PSD Choi matrix under linear trace constraints, solved by
minimizing a strictly convex exponential potential, with infeasibility
certificates and Kraus-operator extraction.  ``solve_barrier``, the log-det
barrier's central point on the same minimizer, is the library's second
solver.
"""

__version__ = "0.1.0"

from .choi import (
    ChoiMatrix,
    KrausSet,
    apply_choi,
    choi_from_unit_images,
    choi_to_kraus,
    kraus_to_choi,
    minimal_kraus_count,
)
from .constraints import (
    ConstraintSystem,
    InconsistentSystemError,
    ProblemInstance,
    Provenance,
    SupportReduction,
    embed_solution,
    instance_system,
    is_diagonal_instance,
    joint_support_reduce,
    prune_dependent,
)
from .certify import (
    Certificate,
    CertificateKind,
    CertificateSource,
    FeasibilityReport,
    FeasibilityStatus,
    SpanCheck,
    SpanSource,
    feasibility_report,
    ray_certificate,
    search_certificate,
    span_contains_positive,
    validate,
)
from .solvers import (
    ExpSolveConfig,
    SolveOutcome,
    SolveStatus,
    VerifyReport,
    gradient,
    potential,
    project_affine,
    solve_barrier,
    solve_diagonal,
    solve_exp,
    verify,
)
from .reports import (
    InstanceFormatError,
    parse_instance,
    write_instance,
)

__all__ = [
    "__version__",
    "ChoiMatrix", "KrausSet", "apply_choi", "choi_from_unit_images",
    "choi_to_kraus", "kraus_to_choi", "minimal_kraus_count",
    "ConstraintSystem", "InconsistentSystemError", "ProblemInstance",
    "Provenance", "SupportReduction", "embed_solution", "instance_system",
    "is_diagonal_instance", "joint_support_reduce", "prune_dependent",
    "Certificate", "CertificateKind", "CertificateSource", "FeasibilityReport",
    "FeasibilityStatus", "SpanCheck", "SpanSource", "feasibility_report",
    "ray_certificate", "search_certificate", "span_contains_positive", "validate",
    "ExpSolveConfig", "SolveOutcome", "SolveStatus", "VerifyReport",
    "gradient", "potential", "project_affine", "solve_barrier",
    "solve_diagonal", "solve_exp", "verify",
    "InstanceFormatError", "parse_instance", "write_instance",
]
