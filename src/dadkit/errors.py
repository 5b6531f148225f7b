"""Exception types shared across the package."""


class DadkitError(Exception):
    """Base class for all dadkit errors."""


class InvalidInputError(DadkitError):
    """Input data violates a documented precondition (shape, finiteness, indices)."""


class InvalidParameterError(DadkitError):
    """A configuration value is outside its legal range.

    A config class's message starts with the bare name of the field it
    rejects ("k must be >= 1, got 0"): the command line swaps that first
    word for the key of a field it renames (`cli._RENAMED`).
    """


class DegenerateMaskError(DadkitError):
    """A mask or indicator has no active pixels where at least one is required."""


class DegenerateTransferError(DadkitError):
    """A homography is singular or could not be sampled within its constraints."""


class DegenerateInputError(DadkitError):
    """A point configuration admits no unique model fit."""


class PlacementError(DadkitError):
    """Random placement could not satisfy the separation constraints."""


class InsufficientDataError(DadkitError):
    """Fewer data points than the operation needs."""


class ConfigError(DadkitError):
    """A config file or command line carries an unknown or malformed key."""
