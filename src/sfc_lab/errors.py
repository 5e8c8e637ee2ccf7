"""Error types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
numerical check failures exit 1.  Any other exception is an internal defect
and also exits 1, reported as such.
"""


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


class NumericalFailureError(RuntimeError):
    """A non-finite value appeared mid-computation; message names the path index."""
