"""Exception hierarchy shared across the package."""


class UmrlabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(UmrlabError):
    """Operand shapes are incompatible for the requested operation."""


class NumericDomainError(UmrlabError):
    """A numeric input or evaluation left the finite domain."""


class ContractError(UmrlabError):
    """An argument violates a documented precondition."""


class LengthError(UmrlabError):
    """A token sequence exceeds the encoder's maximum length."""


class ConfigurationError(UmrlabError):
    """A run was configured inconsistently (stage, corpus, teacher...)."""


class AggregationError(UmrlabError):
    """Cross-shard gather or reduce received inconsistent inputs."""


class FormatError(UmrlabError):
    """A persisted file is corrupt. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class VersionError(FormatError):
    """A persisted file has an unsupported format version."""
