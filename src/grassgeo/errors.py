"""Exception types shared across the package."""


class GrassGeoError(Exception):
    """Base class for all package-specific failures."""


class ConvergenceError(GrassGeoError):
    """A LAPACK factorization (SVD, Hermitian eigensolver, CS decomposition) did not converge."""


class DimensionMismatchError(GrassGeoError, ValueError):
    """Operands live in incompatible spaces."""


class NotPositiveDefiniteError(GrassGeoError, ValueError):
    """A matrix required to be positive definite is not.

    Carries the index of the offending pivot when detected by Cholesky.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class RankDeficiencyError(GrassGeoError, ValueError):
    """A matrix required to have full column rank does not."""

    def __init__(self, message, detected_rank=None):
        super().__init__(message)
        self.detected_rank = detected_rank


class DegenerateConfigurationError(GrassGeoError, ValueError):
    """Angles fail the genericity margins required by a derivative formula."""


class NoUniqueGeodesicError(GrassGeoError, ValueError):
    """The top Jordan angle is too close to pi/2 for a unique joining curve."""


class CapabilityError(GrassGeoError, ValueError):
    """The request exceeds an exact-enumeration capability bound.

    Only `weyl.enumerate_group` raises it (p > 5 signed, p > 7 plain); only
    the vertex-LP test oracle enumerates the group.
    """


class MatrixParseError(GrassGeoError, ValueError):
    """Matrix text input is malformed."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
