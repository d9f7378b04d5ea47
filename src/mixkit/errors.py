"""Exception types shared across the toolkit, and the one place that checks arguments.

Every public function, every config or parameter dataclass and the command
line check their count, size, real and seed arguments with the helpers
below, once per call, and nowhere else:

- a count or size (n, T, G, runs, max_iter, grid_points, ...) is a Python or
  numpy integer, never a bool and never a float, even 2.0:
  :func:`_require_count`, which also checks the lower bound;
- a real is a number, never a str, bytes or bool, and finite
  (:func:`_require_finite`); a scale, shape, rate, concentration or
  tolerance is also greater than 0 (:func:`_require_positive`);
- a seed is what ``numpy.random.SeedSequence`` takes (:func:`_require_seed`);
  the functions that take a seed also take a Generator (:func:`_rng`).

Each violation raises DomainError naming the argument.
"""

import math
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


def _require_count(name, value, minimum=0):
    """``value`` as an int, or DomainError unless it is an integer >= ``minimum``.

    Python and numpy integers pass (what ``operator.index`` takes, bool
    excepted); a float such as 2.5 or 2.0, nan or a string is rejected here
    rather than truncated or failing deep inside a run.
    """
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, not {value!r}")
    if count < minimum:
        raise DomainError(f"{name} must be at least {minimum}, not {count}")
    return count


def _as_real(value):
    """``float(value)`` of a real number; nan for str, bytes, bool and non-numbers."""
    if isinstance(value, (str, bytes, bool, np.bool_)):
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _require_finite(name, value):
    """``value`` as a float, or DomainError unless it is a finite real number."""
    number = _as_real(value)
    if not math.isfinite(number):
        raise DomainError(f"{name} must be a finite real number, not {value!r}")
    return number


def _require_positive(name, value):
    """``value`` as a float, or DomainError unless it is a finite real number > 0."""
    number = _as_real(value)
    if not 0.0 < number < math.inf:
        raise DomainError(f"{name} must be a positive finite real number, not {value!r}")
    return number


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


def _rng(seed):
    """``seed`` itself when it is a Generator, else a new one seeded by it."""
    if isinstance(seed, np.random.Generator):
        return seed
    _require_seed(seed)
    return np.random.default_rng(seed)
