"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid or inconsistent simulation configuration."""


class NumericalError(RuntimeError):
    """A numerical operation failed (singular system, exhausted redraws, ...)."""


class SingularChannelError(NumericalError):
    """Effective channel matrix is singular or too ill conditioned to invert."""
