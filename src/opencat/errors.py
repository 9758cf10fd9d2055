"""Exception types shared across the package, one per failure exit code.

A ConfigError means the input was wrong (a matrix, cutoff, dimension,
count or argument); it is also a ValueError.  A NumericError means a
computation on valid input failed (a degenerate phase, a non-finite matrix,
coupled parity sectors, an eigensolver that did not converge).  Each
message names what was rejected or what failed.  The command line maps the
first to exit 2 and every other OpenCatError to exit 3.
"""


class OpenCatError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(OpenCatError, ValueError):
    """The input (config, matrix, cutoff, dimension or argument) is invalid."""


class NumericError(OpenCatError):
    """A computation on valid input failed; no partial result is returned."""
