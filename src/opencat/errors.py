"""Exception types shared across the package, in two categories.

A ConfigError means the input was wrong: NotHyperbolic, NotUnimodular,
InvalidRadius, InvalidDenominatorBound, NonPositiveN, OddDimension,
GridTooCoarse, InvalidSpec and TooFewLiveRows.  It is also a ValueError.
Every other OpenCatError (DegeneratePhase, NonFinite, ParityBroken,
EigensolverFailed, OracleNoConvergence) is a numeric failure.  The command
line maps the first category to exit 2 and the second to exit 3.
"""


class OpenCatError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(OpenCatError, ValueError):
    """The input (config, matrix, cutoff, dimension or argument) is invalid."""


class NotHyperbolic(ConfigError):
    """Matrix trace has |a+d| <= 2, so the map is not a cat map."""


class NotUnimodular(ConfigError):
    """Matrix determinant is not 1."""


class InvalidRadius(ConfigError):
    """Escape-check radius outside the meaningful range."""


class InvalidDenominatorBound(ConfigError):
    """Escape-check denominator bound q_max below 1."""


class NonPositiveN(ConfigError):
    """Hilbert space dimension must be a positive integer."""


class OddDimension(ConfigError):
    """Metaplectic quantization requires even dimension."""


class GridTooCoarse(ConfigError):
    """Sampling grid too small for the requested Fourier truncation."""


class InvalidSpec(ConfigError):
    """Cutoff specification is inconsistent or does not fit the sweep."""


class TooFewLiveRows(ConfigError):
    """More trapped modes asked for than the cutoff has live rows at some N."""


class DegeneratePhase(OpenCatError):
    """Leading eigenvalue too small to fix the global phase."""


class NonFinite(OpenCatError):
    """Matrix contains NaN or Inf entries."""


class ParityBroken(OpenCatError):
    """The open operator does not commute with parity j -> -j, so its sectors couple."""


class EigensolverFailed(OpenCatError):
    """The dense eigensolver did not converge."""


class OracleNoConvergence(OpenCatError):
    """Polynomial root oracle failed to converge."""
