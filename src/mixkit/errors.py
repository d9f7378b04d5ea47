"""Exception types shared across the toolkit, and the one place that checks arguments.

Every public function, every config or parameter dataclass and the command
line check their count, size, real, probability and seed arguments with the
helpers below, once per call, and nowhere else:

- a count or size (n, T, G, runs, max_iter, grid_points, ...) is a Python or
  numpy integer, never a bool and never a float, even 2.0:
  :func:`_require_count`, which also checks the lower bound;
- a real is a number, never a str, bytes or bool, and finite
  (:func:`_require_finite`); a scale, shape, rate, concentration or
  tolerance is also greater than 0 (:func:`_require_positive`); an array of
  log values may also hold -inf (:func:`_require_log_values`);
- a probability vector (mixing-measure weights, each row of an HMM's initial
  law and transition matrix, the weights of ``sample_monotone_density``, a
  prior over G) holds finite non-negative reals whose ``math.fsum`` is within
  WEIGHT_SUM_TOL of 1: :func:`_require_probabilities`, the one such check,
  which raises the error class its caller names;
- a seed is what ``numpy.random.SeedSequence`` takes (:func:`_require_seed`);
  the functions that take a seed also take a Generator (:func:`_rng`).

Each violation raises DomainError naming the argument; the weights of a
mixing measure and of ``sample_monotone_density`` raise InvalidMeasureError.
A serialized mapping (a spec document, a model, a component) must hold
exactly its fields (:func:`_require_fields`), or SpecDocumentError names them.
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


def _require_log_values(name, values):
    """``values`` as a float array, or DomainError unless every entry is a real
    number below +inf: -inf, the log of 0, is kept."""
    values = list(values)
    for value in values:
        if not _as_real(value) < math.inf:
            raise DomainError(f"{name} entries must be real numbers below +inf, not {value!r}")
    return np.array([_as_real(v) for v in values])


# A probability vector's math.fsum may miss 1 by this much, and so one entry
# may exceed 1 by as much: merging atoms in canonicalize can round a lone
# weight to 1.0000000000000002.
WEIGHT_SUM_TOL = 1e-12


def _require_probabilities(name, values, error=DomainError):
    """``values`` as a list of floats, or ``error`` unless every entry is a
    real number in [0, 1 + WEIGHT_SUM_TOL] and their ``math.fsum`` is within
    WEIGHT_SUM_TOL of 1."""
    probabilities = []
    for value in values:
        p = _as_real(value)
        if not 0.0 <= p <= 1.0 + WEIGHT_SUM_TOL:
            raise error(f"{name} must hold real numbers in [0, 1], not {value!r}")
        probabilities.append(p)
    total = math.fsum(probabilities)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise error(f"{name} must sum to 1, not {total!r}")
    return probabilities


def _require_fields(doc, fields, context):
    """SpecDocumentError unless ``doc`` is a mapping whose keys are exactly ``fields``."""
    if not isinstance(doc, dict):
        raise SpecDocumentError(f"{context}: expected a mapping")
    missing = [k for k in fields if k not in doc]
    if missing:
        raise SpecDocumentError(f"{context}: missing field(s) {missing}")
    extra = [k for k in doc if k not in fields]
    if extra:
        raise SpecDocumentError(f"{context}: unknown field(s) {extra}")


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
