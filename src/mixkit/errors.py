"""Exception types shared across the toolkit, and the checks of count and seed fields."""

import operator

import numpy as np


class MixtureError(Exception):
    """Base class for every error raised by this package."""


class DomainError(MixtureError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidMeasureError(MixtureError, ValueError):
    """A mixing measure violates its invariants."""


class IntervalTooSmallError(MixtureError, ValueError):
    """A search interval fails to cover the mass of a density."""


class DegeneratePointError(MixtureError):
    """An observation has zero density under every component.

    The offending position in the dataset is available as ``index``.
    """

    def __init__(self, index, message=None):
        self.index = int(index)
        if message is None:
            message = f"observation {index} has zero density under every component"
        super().__init__(message)


class EmptyComponentError(MixtureError):
    """A component lost all responsibility or members during fitting.

    The 1-based component label is available as ``component``.
    """

    def __init__(self, component, message=None):
        self.component = int(component)
        if message is None:
            message = f"component {component} received no observations"
        super().__init__(message)


class SpecDocumentError(MixtureError, ValueError):
    """A model specification document failed to parse or validate."""


class DataFileError(MixtureError, ValueError):
    """A data file could not be read or parsed."""


def _require_count(name, value):
    """``value`` as an int, or DomainError if it is not an integer.

    Python and numpy integers pass (anything ``operator.index`` accepts); a
    float such as 2.5 or 2.0 is rejected here rather than deep inside a run.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, not {value!r}") from None


def _require_counts(config, *names):
    """DomainError unless each named field of ``config`` is an integer."""
    for name in names:
        _require_count(name, getattr(config, name))


def _require_seed(seed):
    """DomainError unless ``numpy.random.SeedSequence`` takes ``seed``.

    It takes None, a non-negative Python or numpy integer, or a sequence of
    them; a float such as 1.5 or a negative integer is rejected here rather
    than with numpy's bare TypeError or ValueError deep inside a run.
    """
    try:
        np.random.SeedSequence(seed)
    except (TypeError, ValueError):
        message = f"seed must be a non-negative integer or a sequence of them, not {seed!r}"
        raise DomainError(message) from None
