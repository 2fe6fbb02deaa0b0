"""Exception types shared across the package."""


class ConformalZetaError(Exception):
    """Base class for all package errors."""


class GridMismatchError(ConformalZetaError):
    """Two fields (or a field and a background) live on incompatible grids."""


class ZeroFieldError(ConformalZetaError, ValueError):
    """A field that must be nonzero somewhere vanishes at every grid node."""


class SchemaError(ConformalZetaError):
    """A field file or a command-line value violates its schema."""

    def __init__(self, message, path="$"):
        super().__init__(f"{path}: {message}")
        self.path = path


class ConsistencyError(ConformalZetaError):
    """Two redundant internal computations of the same quantity disagree."""
