"""Exception types shared across the package.

Each class carries the CLI exit code it maps to, so library code should
raise the most specific one that applies rather than bare ValueError.
"""

__all__ = ["ConfigError", "CovpowError", "DomainError", "NumericalError"]


class CovpowError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(CovpowError):
    """Malformed or schema-violating run configuration."""

    exit_code = 2


class DomainError(CovpowError):
    """Input outside a model's or operation's domain."""

    exit_code = 3


class NumericalError(CovpowError):
    """A numerical routine failed its own validity check."""

    exit_code = 4
