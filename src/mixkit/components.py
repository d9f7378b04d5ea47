"""Parametric component families: univariate Normal, bivariate Normal, Poisson.

Components are immutable value objects.  Log-densities are vectorized over
observations and assume the observations already lie in the family support;
use :func:`validate_observations` (or the module-level helpers on each class)
to check support membership first.

What depends on the family lives on its class in :data:`FAMILIES`, which fit
loops, tables and samplers reach as ``FAMILIES[family]``: array-level static
methods on the parameter arrays (one per dataclass field, one entry per atom)
and the observation's shape (``dim``) and kind (``discrete``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, SpecDocumentError, _require_fields, _require_finite, _require_positive

_LOG_TWO_PI = math.log(2.0 * math.pi)
# the default search interval pads the Normal means by this many largest sds
DEFAULT_PADDING_SD = 8.0
# the most rows a count table (a Poisson pmf, a compound pmf) may have
_MAX_TABLE_ROWS = 200_000


def _logs(values):
    """math.log of each entry of a 1-D array (-inf for 0), the bits of a
    single component's math.log."""
    return np.array([math.log(v) if v > 0.0 else -math.inf for v in values.tolist()])


def _atom_rows(values, y_ndim):
    """A (G,) parameter array shaped to broadcast one row per atom against y."""
    return values.reshape(values.shape + (1,) * y_ndim)


def _fields_dict(obj):
    """A dataclass's fields by name, each tuple (nested ones too) as a list: its JSON form."""
    def plain(value):
        return [plain(v) for v in value] if isinstance(value, tuple) else value

    return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def _floor_eigenvalues(cov, floor):
    """Symmetric copy of ``cov`` with eigenvalues raised to at least ``floor``."""
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    if vals[0] < floor:
        cov = (vecs * np.maximum(vals, floor)) @ vecs.T
    cov[1, 0] = cov[0, 1]
    return cov


class _Component:
    """Defaults: an observation is one real, and no per-observation term is cached."""

    dim = 1
    discrete = False

    @staticmethod
    def _observation_terms(y):
        return None

    def density(self, y):
        return np.exp(self.log_density(y))

    def params_dict(self):
        return _fields_dict(self)

    def close_to(self, other, atol):
        """Every parameter within ``atol`` of ``other``'s (the sort keys hold them all)."""
        return all(abs(s - o) <= atol for s, o in zip(self.sort_key, other.sort_key))


@dataclass(frozen=True)
class UnivariateNormal(_Component):
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

    @staticmethod
    def _m_step(rT, y, totals, floor):
        """Weighted MLE from responsibility rows ``rT`` (G, n) with row ``totals``."""
        mus = (rT * y).sum(axis=1) / totals
        dev = y - mus[:, None]
        terms = rT * dev
        terms *= dev  # (rT * dev) * dev without a third (G, n) array
        return mus, np.sqrt(np.maximum(terms.sum(axis=1) / totals, floor))

    @staticmethod
    def _at_points(points, y, floor):
        """Components centred at ``points`` with the spread of the data ``y``."""
        return points, np.full(len(points), math.sqrt(max(float(y.var()), floor)))

    @staticmethod
    def _search_interval(mu, sigma, padding=DEFAULT_PADDING_SD):
        """The span of the means padded by ``padding`` times the largest sd."""
        smax = float(sigma.max())
        return float(mu.min()) - padding * smax, float(mu.max()) + padding * smax

    @staticmethod
    def _table_points(mu, sigma, grid):
        """Points of a density table: ``grid`` (lo, hi, points), or 2001 over the search interval."""
        lo, hi, points = grid if grid is not None else (*UnivariateNormal._search_interval(mu, sigma), 2001)
        return np.linspace(lo, hi, points)

    def sample(self, rng, n):
        return rng.normal(self.mu, self.sigma, size=n)

    @staticmethod
    def validate_observations(y):
        arr = np.asarray(y, dtype=float)
        if arr.ndim > 1:
            raise DomainError("univariate data must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise DomainError("observations must be finite reals")
        return np.atleast_1d(arr)


@dataclass(frozen=True)
class BivariateNormal(_Component):
    """Normal density on the plane; the 2x2 covariance is handled explicitly."""

    mean: tuple
    cov: tuple

    family = "bivariate_normal"
    dim = 2

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
        The quadratic form (d u u - 2b u v + a v v) / det is built in place on
        one array (``out``, when given) with the offsets u and v as its only
        scratch, in the order of that formula, so the bits are the formula's."""
        rows = lambda values: _atom_rows(values, y.ndim - 1)  # noqa: E731
        a, b, d = cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]
        det = a * d - b * b
        u = y[..., 0] - rows(mean[:, 0])
        v = y[..., 1] - rows(mean[:, 1])
        out = np.multiply(rows(d), u, out=out)
        out *= u
        u *= rows(2.0 * b)
        u *= v
        out -= u
        np.multiply(rows(a), v, out=u)
        u *= v
        out += u
        out /= rows(det)
        out *= 0.5
        return np.subtract(rows(-_LOG_TWO_PI - 0.5 * _logs(det)), out, out=out)

    def log_density(self, y):
        y = np.asarray(y, dtype=float)
        return self._log_density_rows(np.array([self.mean]), np.array([self.cov]), y)[0]

    @staticmethod
    def _m_step(rT, Y, totals, floor):
        """Weighted MLE from responsibility rows ``rT`` (G, n) with row ``totals``."""
        G = len(totals)
        means, covs = np.empty((G, 2)), np.empty((G, 2, 2))
        for g in range(G):
            rg = rT[g]
            means[g] = rg @ Y / totals[g]
            dev = Y - means[g]
            covs[g] = _floor_eigenvalues((rg[:, None] * dev).T @ dev / totals[g], floor)
        return means, covs

    @staticmethod
    def _at_points(points, Y, floor):
        """Components centred at ``points`` with the covariance of the data ``Y``."""
        cov = _floor_eigenvalues(np.cov(Y.T, ddof=0), floor)
        return points, np.broadcast_to(cov, (len(points), 2, 2)).copy()

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
class Poisson(_Component):
    """Poisson pmf on the non-negative integers with mean ``lam``."""

    lam: float

    family = "poisson"
    discrete = True
    RATE_FLOOR = 1e-8  # EM keeps every rate at least this large

    def __post_init__(self):
        object.__setattr__(self, "lam", _require_positive("lam", self.lam))

    @property
    def sort_key(self):
        return (self.lam,)

    @staticmethod
    def _observation_terms(y):
        """log y!, for callers that evaluate the log-density many times."""
        return gammaln(y + 1.0)

    @staticmethod
    def _log_density_rows(lam, y, log_fact=None, out=None):
        """log pmfs of the Poissons with rates ``lam`` at counts ``y``: shape
        (G, *y.shape).  ``log_fact`` is log y!, when the caller has it; all
        three operations work in place on one array (``out``, when given)."""
        y = np.asarray(y, dtype=float)
        if log_fact is None:
            log_fact = Poisson._observation_terms(y)
        out = np.multiply(y, _atom_rows(_logs(lam), y.ndim), out=out)
        out -= _atom_rows(lam, y.ndim)
        out -= log_fact
        return out

    def log_density(self, y):
        return self._log_density_rows(np.array([self.lam]), y)[0]

    @staticmethod
    def _m_step(rT, y, totals, floor):
        """Weighted MLE from responsibility rows ``rT`` (G, n) with row ``totals``."""
        return (np.maximum((rT * y).sum(axis=1) / totals, Poisson.RATE_FLOOR),)

    @staticmethod
    def _at_points(points, y, floor):
        """Components whose rates are ``points``."""
        return (np.maximum(points, Poisson.RATE_FLOOR),)

    @staticmethod
    def _table_points(lam, grid):
        """Counts of a pmf table: those in [lo, hi] of ``grid``, or 0 to 20 sd above
        the top rate; DomainError for more than _MAX_TABLE_ROWS of them."""
        if grid is None:
            top = float(lam.max())
            lo, hi = 0, int(math.ceil(top + 20.0 * math.sqrt(top)))
        else:
            lo, hi = max(0, int(math.ceil(grid[0]))), int(math.floor(grid[1]))
        if hi < lo:
            raise DomainError("grid covers no non-negative integers")
        if hi - lo + 1 > _MAX_TABLE_ROWS:
            raise DomainError(f"{hi - lo + 1:.6g} counts is too many to tabulate")
        return np.arange(lo, hi + 1)

    def sample(self, rng, n):
        """n counts; DomainError naming ``lam`` above numpy's sampling bound
        (about 9.2e18), though the density takes any positive finite rate."""
        try:
            return rng.poisson(self.lam, size=n)
        except ValueError:
            message = f"lam {self.lam!r} is too large to sample: numpy draws Poisson counts below about 9.2e18"
            raise DomainError(message) from None

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


def _require_univariate_normal(family, what):
    """DomainError unless ``family`` is the univariate Normal, the one family ``what`` handles."""
    if family != "normal":
        raise DomainError(f"{what} supports univariate Normal mixtures only, not {family!r}")


def component_from_dict(family, params, context="component"):
    """Build a component of the given family from a parameter mapping.

    Unknown or missing parameter names are rejected so that serialized
    models round-trip strictly.
    """
    if family not in FAMILIES:
        raise SpecDocumentError(f"{context}: unknown family {family!r}")
    _require_fields(params, [f.name for f in dataclasses.fields(FAMILIES[family])], context)
    try:
        return FAMILIES[family](**params)
    except DomainError as exc:
        raise SpecDocumentError(f"{context}: {exc}") from exc


def validate_observations(family, y):
    """Check that ``y`` lies in the support of ``family``; returns an array."""
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    return FAMILIES[family].validate_observations(y)
