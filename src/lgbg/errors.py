"""Exception types shared across the package."""


class LgbgError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(LgbgError):
    """Tensor shapes do not line up for the requested operation."""


class NumericError(LgbgError):
    """A computation produced NaN/Inf or otherwise left the finite domain."""


class ParseError(LgbgError):
    """A log or config file could not be parsed; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class VocabularyError(LgbgError):
    """A concept or stream name is not part of the declared vocabulary."""


class ValidationError(LgbgError):
    """Input data violates a documented precondition."""


class EmbeddingError(LgbgError):
    """A concept has no row in the embedding table."""
