"""The tolerance policy: every numerical cut that decides a verdict, named once.

Each module reads its cuts from here, so that one decision is never made with
two values in two places (prune's rank cut and the projection's were once
two such values, and a system that prune kept whole could be refused by the
projection).  Functions that find something (prune, the certificate search,
the verdict) take no tolerance of their own.  Checkers (``validate``,
``solvers.verify``, ``choi_to_kraus``, ``cli.run_verify``) take an explicit
one that defaults to the constant below.

Algorithm constants (the Newton hand-off, the Wolfe constants, the norm cap,
the exponent offset, the exp() range, and the guards of divided differences,
ridges and line searches) belong to the algorithms that use them and stay
there.
"""

# Exact structure: a matrix is Hermitian, diagonal or zero when its deviation
# is at most this multiple of (1 + its scale); a target at most this large is
# zero.  At 1e-12 only round-off of data that is exact in structure passes.
STRUCTURE_RTOL = 1e-12

# Linear dependence, decided by prune and refused by the projection: a row
# scaled to unit norm is dependent when its squared residual after the rows
# kept before it is at most this: a squared pivot of the rows' triangular
# factor R (``ConstraintSystem.factor``).  The projection solves with prune's
# own R, so it refuses exactly the systems that prune would not keep whole,
# and the span check finds I in the span exactly when the identity's squared
# residual after a pruned system's rows is at most this.
DEPENDENCE_RTOL = 1e-10

# A dependent row contradicts its combination of kept rows when their scaled
# targets differ by more than this (times (1 + max |b|) (1 + ||c||_1)): the
# residual a dependent row may keep is round-off that the target gap has to
# beat with room.  A decision of its own, apart from DEPENDENCE_RTOL, so that
# the pivot cut can move without moving it; 1e-8 is 100 * 1e-10 exactly.
TARGET_GAP_RTOL = 1e-8

# The joint support of the inputs: a singular value of the stacked inputs at
# most this multiple of (1 + their Frobenius norm) belongs to the kernel.
SUPPORT_RTOL = 1e-10

# The solvers' default: a gradient (the residual vector of the positive
# definite iterate) of 2-norm at most this counts as converged.
GRADIENT_TOL = 1e-9

# Certificates: a combination sum x C with least eigenvalue at least -this is
# in the PSD cone, and an objective b . x beyond this is nonzero.
VALIDATION_TOL = 1e-9

# A feasible witness is marginal, not strictly positive, when its least
# eigenvalue is at most this multiple of VALIDATION_TOL (times 1 + ||X||),
# as when the potential's infimum is not attained.
MARGINAL_FACTOR = 1e3

# The cone repair of a near-certificate stops once its least eigenvalue is
# at least -this fraction of VALIDATION_TOL, so that the repaired vector
# passes validation with room.
REPAIR_FRACTION = 0.5

# ``verify``: a candidate passes when every residual is at most this and its
# least eigenvalue is at least -this times (1 + ||X||).
VERIFY_TOL = 1e-8

# Kraus extraction from a projected Choi matrix: eigenvalues at most this
# multiple of the gradient tolerance (times 1 + ||X||) are dropped, because
# the projection can nudge eigenvalues at the residual-tolerance scale.
KRAUS_FACTOR = 10.0

# The numerical rank of a Choi matrix given no explicit cut: eigenvalues at
# most this fraction of the largest are zero.
RANK_RTOL = 1e-9
