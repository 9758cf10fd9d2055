"""Exception types shared across the package."""


class OpenCatError(Exception):
    """Base class for all package-specific errors."""


class NotHyperbolic(OpenCatError):
    """Matrix trace has |a+d| <= 2, so the map is not a cat map."""


class NotUnimodular(OpenCatError):
    """Matrix determinant is not 1."""


class InvalidRadius(OpenCatError):
    """Escape-check radius outside the meaningful range."""


class InvalidDenominatorBound(OpenCatError):
    """Escape-check denominator bound q_max below 1."""


class NonPositiveN(OpenCatError):
    """Hilbert space dimension must be a positive integer."""


class OddDimension(OpenCatError):
    """Metaplectic quantization requires even dimension."""


class GridTooCoarse(OpenCatError):
    """Sampling grid too small for the requested Fourier truncation."""


class InvalidSpec(OpenCatError):
    """Bump specification radii are inconsistent."""


class DegeneratePhase(OpenCatError):
    """Leading eigenvalue too small to fix the global phase."""


class NonFinite(OpenCatError):
    """Matrix contains NaN or Inf entries."""


class TooFewLiveRows(OpenCatError):
    """More trapped modes asked for than the cutoff has live rows at some N."""


class ParityBroken(OpenCatError):
    """The open operator does not commute with parity j -> -j, so its sectors couple."""


class EigensolverFailed(OpenCatError):
    """The dense eigensolver did not converge."""


class OracleNoConvergence(OpenCatError):
    """Polynomial root oracle failed to converge."""
