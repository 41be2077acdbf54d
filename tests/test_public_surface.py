"""The package's exported names, pinned, so that any addition or removal shows in review."""

import types

import grassgeo

PUBLIC = [
    "BallPoint", "CapabilityError", "ConvergenceError", "DegenerateConfigurationError",
    "DimensionMismatchError", "GrassGeoError", "HCurve", "MatrixParseError",
    "MembershipResult", "NoUniqueGeodesicError", "NormSpec", "NotPositiveDefiniteError",
    "PosDefPoint", "PrincipalPair", "RankDeficiencyError", "SignedPermutation", "Subspace",
    "TangentVector", "TriangleReport", "angle_rate", "ball_angles", "ball_distance",
    "birkhoff_decompose", "cholesky", "distance", "eig_hermitian", "fan_ky_diagonal_check",
    "geodesic_transport", "hcurve_between", "hcurve_eval", "inv_sqrt_psd", "jordan_angles",
    "lidskii_check", "orbit_membership", "posdef_angles", "posdef_triangle_check",
    "principal_vectors", "qr_orthonormalize", "quasistochastic_decompose", "singular_values",
    "svd", "tangent_invariants", "triangle_check", "vertex_lp_membership",
]


def test_public_names_are_pinned():
    # submodules become package attributes as they are imported, so they are left out
    names = sorted(
        name for name, value in vars(grassgeo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC
