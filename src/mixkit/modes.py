"""Mode counting for univariate Normal mixtures.

The number of modes of a Normal mixture is not determined by its component
count, so modes are located directly: the analytic first derivative

    d/dy sum_g eta_g phi(y | mu_g, sigma_g)
        = sum_g eta_g phi(y | mu_g, sigma_g) (mu_g - y) / sigma_g^2

is scanned for sign changes on a grid and every descending crossing is
refined by bisection.  Both the density and its derivative are read from
one matrix of weighted component densities, exp(log_weighted_densities).
"""

from __future__ import annotations

import numpy as np

from .components import DEFAULT_PADDING_SD, UnivariateNormal, _require_univariate_normal
from .errors import DomainError, IntervalTooSmallError, _require_count, _require_finite, _require_positive
from .models import _measure_params, log_weighted_densities

BISECT_TOL = 1e-10
# The interval is rejected when the density at either endpoint exceeds this
# fraction of the grid maximum; padding the component means by 8 max-sd
# comfortably clears it (exp(-32) is about 1.3e-14).
ENDPOINT_MASS_RATIO = 1e-12
MIN_GRID_POINTS = 1000


def default_search_interval(model, padding=DEFAULT_PADDING_SD):
    """Interval covering all component means padded by ``padding`` max-sd."""
    _require_univariate_normal(model.family, "mode search")
    padding = _require_positive("padding", padding)
    return UnivariateNormal._search_interval(*_measure_params(model.measure), padding)


def _density_and_derivative(model, xs):
    """Mixture density and its first derivative at the points ``xs``."""
    terms = np.exp(log_weighted_densities(model, xs))
    mus = np.array([c.mu for c in model.measure.components])
    variances = np.array([c.sigma * c.sigma for c in model.measure.components])
    slopes = terms * (mus - xs[:, None]) / variances
    return terms.sum(axis=1), slopes.sum(axis=1)


def find_modes(model, search_interval=None, grid_points=4096):
    """Locations of the strict local maxima of the mixture density.

    Scans ``grid_points`` equispaced points of ``search_interval`` (which
    must contain essentially all of the mass; by default the means padded
    by 8 max-sd) and bisects each descending sign change of the derivative
    down to a location tolerance of 1e-10.
    """
    _require_univariate_normal(model.family, "mode search")
    if search_interval is None:
        search_interval = default_search_interval(model)
    lo, hi = (_require_finite("search_interval", search_interval[k]) for k in (0, 1))
    if not (hi > lo):
        raise DomainError("search interval must satisfy lo < hi")
    grid_points = _require_count("grid_points", grid_points, MIN_GRID_POINTS)

    xs = np.linspace(lo, hi, grid_points)
    dens, deriv = _density_and_derivative(model, xs)
    peak = dens.max()
    if dens[0] > ENDPOINT_MASS_RATIO * peak or dens[-1] > ENDPOINT_MASS_RATIO * peak:
        raise IntervalTooSmallError(
            f"interval [{lo}, {hi}] does not cover the mass of the density"
        )

    # descending sign changes between consecutive grid points of nonzero slope
    nonzero = np.flatnonzero(deriv)
    a, b = nonzero[:-1], nonzero[1:]
    down = (deriv[a] > 0) & (deriv[b] < 0)
    return np.array([_bisect(model, xs[i], xs[j]) for i, j in zip(a[down], b[down])])


def _bisect(model, a, b):
    # invariant: derivative positive at a, negative at b
    while b - a > BISECT_TOL:
        mid = 0.5 * (a + b)
        d = float(_density_and_derivative(model, np.array([mid]))[1][0])
        if d > 0.0:
            a = mid
        elif d < 0.0:
            b = mid
        else:
            return mid
    return 0.5 * (a + b)


def count_modes(model, search_interval=None, grid_points=4096):
    """Number of strict local maxima of the mixture density (always >= 1)."""
    return len(find_modes(model, search_interval, grid_points))
