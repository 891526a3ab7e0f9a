"""Exception types shared across the package."""


class DephasimError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DephasimError, ValueError):
    """A physical or timing constraint was violated (e.g. readout before the last pulse).

    ``field`` names the refused field of the type that raised it, such as ``"contrast"``
    or ``"sigmas[0]"`` (an entry of a list field), or is None.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class ConfigError(DephasimError, ValueError):
    """A configuration document failed validation.

    Parameters
    ----------
    path : str
        Dotted location of the offending entry, e.g. ``"sequence.tau_s"``.
    message : str
        What is wrong at that location.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class DataFormatError(DephasimError, ValueError):
    """An input data file (CSV/JSON) is malformed; carries the offending row if known."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class FitError(DephasimError, RuntimeError):
    """The fit could not be carried out (unidentifiable parameter, NaN model output)."""
