"""Exception types shared across the package.

The CLI maps these onto exit codes, so library code should raise the most
specific one that applies rather than bare ValueError.
"""

__all__ = ["ConfigError", "CovpowError", "DomainError", "NumericalError"]


class CovpowError(Exception):
    """Base class for all package errors."""


class ConfigError(CovpowError):
    """Malformed or schema-violating run configuration (CLI exit code 2)."""


class DomainError(CovpowError):
    """Input outside a model's or operation's domain (CLI exit code 3)."""


class NumericalError(CovpowError):
    """A numerical routine failed its own validity check (CLI exit code 4)."""
