"""Parametric component families: univariate Normal, bivariate Normal, Poisson.

Components are immutable value objects.  Log-densities are vectorized over
observations and assume the observations already lie in the family support;
use :func:`validate_observations` (or the module-level helpers on each class)
to check support membership first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, SpecDocumentError, _require_finite, _require_positive

_LOG_TWO_PI = math.log(2.0 * math.pi)


def _logs(values):
    """math.log of each entry of a 1-D array (-inf for 0), the bits of a
    single component's math.log."""
    return np.array([math.log(v) if v > 0.0 else -math.inf for v in values.tolist()])


def _atom_rows(values, y_ndim):
    """A (G,) parameter array shaped to broadcast one row per atom against y."""
    return values.reshape(values.shape + (1,) * y_ndim)


@dataclass(frozen=True)
class UnivariateNormal:
    """Normal density on the real line with mean ``mu`` and sd ``sigma``."""

    mu: float
    sigma: float

    family = "normal"

    def __post_init__(self):
        object.__setattr__(self, "mu", _require_finite("mu", self.mu))
        object.__setattr__(self, "sigma", _require_positive("sigma", self.sigma))

    @property
    def sort_key(self):
        return (self.mu, self.sigma)

    @staticmethod
    def _log_density_rows(mu, sigma, y, out=None):
        """log densities of the Normals with parameter arrays ``mu``, ``sigma``
        at ``y``: shape (G, *y.shape), one row per atom, in place on one array
        (``out``, when given).  -0.5 * z * z is formed as -2 * (-0.5 * z) ** 2,
        the same bits (overflow included): scaling by a power of two is exact."""
        out = np.subtract(y, _atom_rows(mu, y.ndim), out=out)
        out /= _atom_rows(sigma, y.ndim)
        out *= -0.5
        np.square(out, out=out)
        out *= -2.0
        out -= _atom_rows(_logs(sigma), y.ndim)
        out -= 0.5 * _LOG_TWO_PI
        return out

    def log_density(self, y):
        y = np.asarray(y, dtype=float)
        with np.errstate(over="ignore"):
            return self._log_density_rows(np.array([self.mu]), np.array([self.sigma]), y)[0]

    def density(self, y):
        return np.exp(self.log_density(y))

    def sample(self, rng, n):
        return rng.normal(self.mu, self.sigma, size=n)

    def close_to(self, other, atol):
        return abs(self.mu - other.mu) <= atol and abs(self.sigma - other.sigma) <= atol

    def params_dict(self):
        return {"mu": self.mu, "sigma": self.sigma}

    @staticmethod
    def validate_observations(y):
        arr = np.asarray(y, dtype=float)
        if arr.ndim > 1:
            raise DomainError("univariate data must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise DomainError("observations must be finite reals")
        return np.atleast_1d(arr)


@dataclass(frozen=True)
class BivariateNormal:
    """Normal density on the plane; the 2x2 covariance is handled explicitly."""

    mean: tuple
    cov: tuple

    family = "bivariate_normal"

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=object)
        cov = np.asarray(self.cov, dtype=object)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise DomainError("mean must have length 2 and cov must be 2x2")
        mean = tuple(_require_finite("mean", v) for v in mean)
        a, b, c, d = (_require_finite("cov", v) for v in cov.flat)
        if abs(b - c) > 1e-12 * max(1.0, abs(b), abs(c)):
            raise DomainError("cov must be symmetric")
        if a <= 0.0 or d <= 0.0 or a * d - b * b <= 0.0:
            raise DomainError("cov must be positive definite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", ((a, b), (b, d)))

    @property
    def sort_key(self):
        (a, b), (_, d) = self.cov
        return (self.mean[0], self.mean[1], a, b, d)

    def _shape(self):
        (a, b), (_, d) = self.cov
        return a, b, d, a * d - b * b

    @staticmethod
    def _log_density_rows(mean, cov, y, out=None):
        """log densities of the planar Normals with parameter arrays ``mean``
        (G, 2) and ``cov`` (G, 2, 2) at points ``y`` (..., 2): shape (G, ...).
        Only the last operation writes to ``out``, when given."""
        rows = lambda values: _atom_rows(values, y.ndim - 1)  # noqa: E731
        a, b, d = cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]
        det = a * d - b * b
        u = y[..., 0] - rows(mean[:, 0])
        v = y[..., 1] - rows(mean[:, 1])
        quad = (rows(d) * u * u - rows(2.0 * b) * u * v + rows(a) * v * v) / rows(det)
        return np.subtract(rows(-_LOG_TWO_PI - 0.5 * _logs(det)), 0.5 * quad, out=out)

    def log_density(self, y):
        y = np.asarray(y, dtype=float)
        return self._log_density_rows(np.array([self.mean]), np.array([self.cov]), y)[0]

    def density(self, y):
        return np.exp(self.log_density(y))

    def sample(self, rng, n):
        # Cholesky factor of the 2x2 covariance, written out directly.
        a, b, d, det = self._shape()
        l11 = math.sqrt(a)
        l21 = b / l11
        l22 = math.sqrt(det / a)
        std = rng.standard_normal((n, 2))
        out = np.empty((n, 2))
        out[:, 0] = self.mean[0] + l11 * std[:, 0]
        out[:, 1] = self.mean[1] + l21 * std[:, 0] + l22 * std[:, 1]
        return out

    def close_to(self, other, atol):
        if abs(self.mean[0] - other.mean[0]) > atol or abs(self.mean[1] - other.mean[1]) > atol:
            return False
        for row_s, row_o in zip(self.cov, other.cov):
            for s, o in zip(row_s, row_o):
                if abs(s - o) > atol:
                    return False
        return True

    def params_dict(self):
        return {"mean": list(self.mean), "cov": [list(r) for r in self.cov]}

    @staticmethod
    def validate_observations(y):
        arr = np.asarray(y, dtype=float)
        if arr.ndim == 1 and arr.shape == (2,):
            arr = arr.reshape(1, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise DomainError("bivariate data must have two columns")
        if not np.all(np.isfinite(arr)):
            raise DomainError("observations must be finite reals")
        return arr


@dataclass(frozen=True)
class Poisson:
    """Poisson pmf on the non-negative integers with mean ``lam``."""

    lam: float

    family = "poisson"

    def __post_init__(self):
        object.__setattr__(self, "lam", _require_positive("lam", self.lam))

    @property
    def sort_key(self):
        return (self.lam,)

    @staticmethod
    def _log_density_rows(lam, y, log_fact=None, out=None):
        """log pmfs of the Poissons with rates ``lam`` at counts ``y``: shape
        (G, *y.shape).  ``log_fact`` is log y!, when the caller has it; only
        the last operation writes to ``out``, when given."""
        y = np.asarray(y, dtype=float)
        if log_fact is None:
            log_fact = gammaln(y + 1.0)
        terms = y * _atom_rows(_logs(lam), y.ndim) - _atom_rows(lam, y.ndim)
        return np.subtract(terms, log_fact, out=out)

    def log_density(self, y):
        return self._log_density_rows(np.array([self.lam]), y)[0]

    def density(self, y):
        return np.exp(self.log_density(y))

    def sample(self, rng, n):
        return rng.poisson(self.lam, size=n)

    def close_to(self, other, atol):
        return abs(self.lam - other.lam) <= atol

    def params_dict(self):
        return {"lam": self.lam}

    @staticmethod
    def validate_observations(y):
        arr = np.asarray(y)
        if arr.ndim > 1:
            raise DomainError("count data must be one-dimensional")
        arr = np.atleast_1d(arr)
        if arr.size and not np.all(np.isfinite(arr.astype(float))):
            raise DomainError("counts must be finite")
        rounded = np.rint(arr.astype(float))
        if arr.size and (np.any(rounded != arr.astype(float)) or np.any(rounded < 0)):
            raise DomainError("Poisson observations must be non-negative integers")
        return rounded.astype(np.int64)


FAMILIES = {
    "normal": UnivariateNormal,
    "bivariate_normal": BivariateNormal,
    "poisson": Poisson,
}

_PARAM_FIELDS = {
    "normal": ("mu", "sigma"),
    "bivariate_normal": ("mean", "cov"),
    "poisson": ("lam",),
}


def component_from_dict(family, params, context="component"):
    """Build a component of the given family from a parameter mapping.

    Unknown or missing parameter names are rejected so that serialized
    models round-trip strictly.
    """
    if family not in FAMILIES:
        raise SpecDocumentError(f"{context}: unknown family {family!r}")
    expected = _PARAM_FIELDS[family]
    missing = [k for k in expected if k not in params]
    extra = [k for k in params if k not in expected]
    if missing:
        raise SpecDocumentError(f"{context}: missing field(s) {missing}")
    if extra:
        raise SpecDocumentError(f"{context}: unknown field(s) {extra}")
    try:
        return FAMILIES[family](**{k: params[k] for k in expected})
    except DomainError as exc:
        raise SpecDocumentError(f"{context}: {exc}") from exc


def validate_observations(family, y):
    """Check that ``y`` lies in the support of ``family``; returns an array."""
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    return FAMILIES[family].validate_observations(y)
