"""Exception types shared across the package, and the integer check of its config fields."""

import numbers


class TopicModelError(Exception):
    """Base class for all errors raised by this package."""


class DataError(TopicModelError):
    """Invalid or unusable input: bad counts, empty corpora, mismatched vocabularies."""


class AlgorithmError(TopicModelError):
    """A training or generation procedure failed (topic explosion, rejection overflow)."""


def require_integers(config, *names):
    """Raise a DataError naming the first of the fields ``names`` of ``config`` that holds no
    integer: Python and numpy integers pass; a bool, a float or anything else does not."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DataError(f"{name} must be an integer, not {value!r}")
