"""Exception types shared across the package, and the one range rule.

`check_range` is the only numeric bound check: every config field and
every public function that bounds a parameter calls it, so every such
message starts with the field or parameter name.
"""


class DadkitError(Exception):
    """Base class for all dadkit errors."""


class InvalidInputError(DadkitError):
    """Input data violates a documented precondition: a shape, finiteness or
    index rule, an empty mask, indicator, error list or dataset, or a layout
    that random placement could not satisfy."""


class InvalidParameterError(DadkitError):
    """A configuration value is outside its legal range.

    Every message starts with the bare name of the field or parameter it
    rejects ("k must be >= 1, got 0"), as `check_range` writes it: the
    command line swaps that first word for the key of a field it renames
    (`cli._RENAMED`).
    """


class DegenerateTransferError(DadkitError):
    """A homography is singular or could not be sampled within its constraints."""


class DegenerateInputError(DadkitError):
    """A point configuration admits no unique model fit: fewer than 4
    correspondences, coincident or degenerate points, or no valid RANSAC model."""


class ConfigError(DadkitError):
    """A config file or command line carries an unknown or malformed key."""


def check_range(name: str, value, *, ge=None, gt=None, le=None, lt=None) -> None:
    """Raise InvalidParameterError unless `value` meets every given bound, so
    NaN fails any bound.  The message is "NAME must be >= 1, got 0" for one
    bound and "NAME must be in (0, 1], got 2.0" for two."""
    if ((ge is None or value >= ge) and (gt is None or value > gt)
            and (le is None or value <= le) and (lt is None or value < lt)):
        return
    bounds = [(op, b) for op, b in ((">=", ge), (">", gt), ("<=", le), ("<", lt)) if b is not None]
    if len(bounds) == 1:
        rule = f"{bounds[0][0]} {bounds[0][1]:g}"
    else:  # a lower bound and an upper bound
        (lo_op, lo), (hi_op, hi) = bounds
        rule = f"in {'(' if lo_op == '>' else '['}{lo:g}, {hi:g}{')' if hi_op == '<' else ']'}"
    raise InvalidParameterError(f"{name} must be {rule}, got {value}")
