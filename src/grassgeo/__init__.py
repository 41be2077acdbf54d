"""Jordan angles, invariant metrics and geodesics on Grassmannians and
classical symmetric spaces, with orbit-polytope triangle certification."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    CapabilityError,
    ConvergenceError,
    DegenerateConfigurationError,
    DimensionMismatchError,
    GrassGeoError,
    MatrixParseError,
    NoUniqueGeodesicError,
    NotPositiveDefiniteError,
    RankDeficiencyError,
)
from .kernel import cholesky, eig_hermitian, inv_sqrt_psd, qr_orthonormalize, singular_values, svd  # noqa: F401
from .metrics import (  # noqa: F401
    HCurve,
    NormSpec,
    TriangleReport,
    distance,
    hcurve_between,
    hcurve_eval,
    triangle_check,
)
from .noncompact import (  # noqa: F401
    BallPoint,
    PosDefPoint,
    ball_angles,
    ball_distance,
    lidskii_check,
    posdef_angles,
    posdef_triangle_check,
)
from .subspaces import (  # noqa: F401
    PrincipalPair,
    Subspace,
    TangentVector,
    angle_rate,
    geodesic_transport,
    jordan_angles,
    principal_vectors,
    tangent_invariants,
)
from .weyl import (  # noqa: F401
    MembershipResult,
    SignedPermutation,
    birkhoff_decompose,
    fan_ky_diagonal_check,
    orbit_membership,
    quasistochastic_decompose,
    vertex_lp_membership,
)
