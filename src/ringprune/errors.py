"""Exception types shared across the package."""


class RingPruneError(Exception):
    """Base class for all package-specific errors."""


class StructuralError(RingPruneError, ValueError):
    """A shape, length, or layout contract was violated."""


class InputError(RingPruneError, ValueError):
    """Input data is invalid (non-finite values, out-of-range arguments)."""


class CodecError(RingPruneError, ValueError):
    """An encoded mask payload is inconsistent or corrupted."""


class ConfigError(RingPruneError, ValueError):
    """A configuration is invalid or incomplete (schedules, node counts, files)."""


class DivergenceError(RingPruneError, RuntimeError):
    """Training produced a non-finite loss."""
