"""Exact Picard-Fuchs system for the Kummer surface family K(p,q,r).

The package constructs, verifies and numerically integrates the rank-5
system of linear PDEs annihilating the periods of

    K(p,q,r): y^2 = x (x + t^2) (x + t^3 + p t^2 + q t + r):

an exact power-series solution with an independent contour-integral oracle,
the toric (A-hypergeometric) system and its reduction to three variables,
the extra rank-cutting operator, Pfaffian connections with exact
integrability certificates, singular-locus analysis, and adaptive
Runge-Kutta transport with monodromy.
"""

from .divisors import CANDIDATE_DIVISORS, D1, D2, D3, SINGULAR_DIVISORS
from .gkz import (
    GENERATING_KERNEL_VECTORS,
    THETA_IMAGES,
    GkzData,
    box_operator,
    kernel_basis,
    kummer_gkz_data,
    reduce_to_pqr,
    verify_euler_elimination,
)
from .geometry import (
    LambdaPoint,
    discriminant_factorization,
    discriminant_identities,
    lambda_to_pqr,
    pqrb_to_t,
    singular_divisor_membership,
    weighted_homogeneity_witness,
)
from .operators import (
    DEGREE_MARGIN,
    CanonicalSystem,
    ThetaOperator,
    build_canonical_system,
    identity_check,
)
from .pfaffian import (
    BASIS_P2,
    BASIS_Q2,
    BASIS_RANK6,
    BasisClosureError,
    BasisDependenceError,
    PfaffianSystem,
    check_integrability,
    compare_fixture,
    derive_pfaffian,
    rank5_system,
    rank6_system,
    singular_factors,
)
from .polynomials import (
    BigRational,
    MultiPoly,
    RatFunc,
    TuplePoly,
    poly_gcd,
)
from .series import (
    TruncatedSeries,
    period_coefficient,
    period_series,
    residue_oracle,
)
from .transport import (
    CircleSegment,
    CompiledConnection,
    LineSegment,
    Path,
    PathFormatError,
    TransportResult,
    initial_state,
    monodromy,
    series_vs_transport,
    transport,
)

__version__ = "0.1.0"
