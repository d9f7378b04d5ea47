"""Bayesian inference for univariate Normal mixtures.

A conjugate data-augmentation Gibbs sampler alternates allocation draws with
Dirichlet weight updates and Normal-inverse-Gamma parameter updates.  Chains
are stored raw: component labels switch freely, so every reported summary is
a permutation-invariant functional of the mixing distribution (atom counts
or total weight in a parameter region, the weight of the largest-variance
component, the predictive density).  Per-label estimates are deliberately
not exposed.

Prior convention: eta ~ Dirichlet(dirichlet_weights) and, independently
across components, sigma_g^2 ~ InverseGamma(ig_shape, ig_scale) with
mu_g | sigma_g^2 ~ Normal(normal_mean_loc, sigma_g^2 * normal_mean_scale^2).
In the usual kappa notation this makes kappa_0 = normal_mean_scale ** -2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .components import UnivariateNormal, validate_observations
from .em import e_step
from .errors import DegeneratePointError, DomainError
from .errors import _require_count, _require_finite, _require_positive, _require_seed, _rng
from .models import (
    MixingMeasure,
    MixtureModel,
    _component_log_densities,
    _exact_sum,
    _logs,
    _logsumexp,
    _measure_from_params,
    _measure_params,
    _stacked_log_densities,
    log_weighted_densities,
)


@dataclass(frozen=True)
class ConjugatePrior:
    dirichlet_weights: tuple
    normal_mean_loc: float
    normal_mean_scale: float
    ig_shape: float
    ig_scale: float

    def __post_init__(self):
        dw = tuple(_require_positive("dirichlet_weights entry", d) for d in self.dirichlet_weights)
        if not dw:
            raise DomainError("dirichlet_weights needs at least one entry")
        object.__setattr__(self, "dirichlet_weights", dw)
        loc = _require_finite("normal_mean_loc", self.normal_mean_loc)
        object.__setattr__(self, "normal_mean_loc", loc)
        for name in ("normal_mean_scale", "ig_shape", "ig_scale"):
            object.__setattr__(self, name, _require_positive(name, getattr(self, name)))
        try:
            kappa0 = self.kappa0
        except OverflowError:
            kappa0 = math.inf
        if not 0.0 < kappa0 < math.inf:
            raise DomainError(f"normal_mean_scale {self.normal_mean_scale!r} gives kappa0 = {kappa0!r}")

    @property
    def G(self):
        return len(self.dirichlet_weights)

    @property
    def kappa0(self):
        return self.normal_mean_scale ** -2.0


def default_prior(data, G):
    """Weakly informative prior scaled to the data: mean at the midrange,
    mean-scale equal to the range, unit Dirichlet weights."""
    arr = np.asarray(validate_observations("normal", data), dtype=float)
    G = _require_count("G", G, 1)
    if arr.size == 0:
        raise DomainError("cannot scale a default prior to an empty dataset")
    lo, hi = float(arr.min()), float(arr.max())
    spread = hi - lo if hi > lo else 1.0
    variance = float(arr.var()) if arr.var() > 0.0 else 1.0
    return ConjugatePrior(
        dirichlet_weights=(1.0,) * G,
        normal_mean_loc=0.5 * (lo + hi),
        normal_mean_scale=spread,
        ig_shape=2.0,
        ig_scale=variance,
    )


@dataclass(frozen=True)
class GibbsState:
    z: np.ndarray  # 1-based allocations
    measure: MixingMeasure
    iteration: int


@dataclass(frozen=True)
class GibbsConfig:
    burn_in: int = 500
    n_samples: int = 1000
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        _require_count("burn_in", self.burn_in)
        _require_count("n_samples", self.n_samples, 1)
        _require_count("thin", self.thin, 1)
        _require_seed(self.seed)


@dataclass(frozen=True)
class PosteriorSample:
    """Thinned post-burn-in snapshots of the raw, unrelabeled chain."""

    snapshots: tuple
    seed: int
    config: GibbsConfig

    def __len__(self):
        return len(self.snapshots)


def allocation_probabilities(measure, data):
    """Categorical probabilities of the allocation draws.

    These are exactly the E-step responsibilities: the sampler and EM share
    one component kernel.  The draws themselves never normalise them (see
    _draw_from_log_weights).
    """
    return e_step(MixtureModel(measure), data)


def _draw_from_log_weights(rng, L):
    """1-based draws, row i with probability proportional to exp(L[i, g]),
    from the atom-major weighted log-density matrix ``L``, which is
    overwritten.

    With the row max as shift, e = exp(L - shift) and C_g = e_0 + ... + e_g
    summed over atom columns, one uniform u per row gives
    z = #{g : u * T >= C_g} with T = C_{G-1}, so P(z = g) = e_g / T: the law
    of allocation_probabilities, with no normalised row and no logarithm.
    Nothing needs clamping, and a component of weight 0 is never drawn: its
    boundary equals the one before it (0 for g = 0, which every u * T
    reaches), and u <= 1 - 2**-53 rounds u * T below T for every float
    T >= 1 (the row max contributes exp(0) = 1), so the last boundary is
    never passed and is not counted.  A row of -inf throughout raises
    DegeneratePointError before the uniforms are drawn.
    """
    cols = L.T
    G, n = cols.shape
    shift = cols[0].copy()
    for g in range(1, G):
        np.maximum(shift, cols[g], out=shift)
    if shift.min() == -math.inf:
        raise DegeneratePointError(int(np.flatnonzero(np.isneginf(shift))[0]))
    u = rng.random(n)
    cols -= shift
    np.exp(cols, out=cols)
    for g in range(1, G):
        cols[g] += cols[g - 1]
    u *= cols[-1]
    z = np.ones(n, dtype=np.int64)
    for g in range(G - 1):
        z += u >= cols[g]
    return z


def gibbs_allocations(measure, data, seed):
    """Draw 1-based allocations, row i with probability
    allocation_probabilities(measure, data)[i]: one uniform per row, the
    draw of a Gibbs sweep."""
    rng = _rng(seed)
    arr = validate_observations(measure.family, data)
    if len(arr) == 0:
        return np.empty(0, dtype=np.int64)
    return _draw_from_log_weights(rng, log_weighted_densities(MixtureModel(measure), arr))


def _posterior_coefficients(prior, arr, z, counts):
    """Normal-inverse-Gamma update of every component, from the 1-based
    allocations ``z`` of ``arr`` and their ``counts``: lists (mn, kn, an, bn)
    of G floats.  Sums come from np.bincount, and the sum of squares from the
    deviations about each component's mean (two passes, not sum y^2 - n ybar^2).
    The G-length arithmetic runs on Python floats, the same IEEE operations
    in the same order as on arrays.
    """
    idx = z - 1
    G = len(counts)
    ybar = np.bincount(idx, weights=arr, minlength=G) / np.maximum(counts, 1)
    dev = arr - ybar[idx]
    ss = np.bincount(idx, weights=dev * dev, minlength=G).tolist()
    k0 = prior.kappa0
    m0 = prior.normal_mean_loc
    mn, kn, an, bn = [], [], [], []
    for c, y, s in zip(counts.tolist(), ybar.tolist(), ss):
        k = k0 + c
        d = y - m0
        mn.append((k0 * m0 + c * y) / k if c > 0 else m0)
        kn.append(k)
        an.append(prior.ig_shape + 0.5 * c)
        bn.append(prior.ig_scale + 0.5 * s + 0.5 * k0 * c * (d * d) / k)
    return mn, kn, an, bn


def _draw_normal(rng, mn, kn, an, bn):
    """(mu, sigma) from the Normal-inverse-Gamma with the given coefficients."""
    variance = 1.0 / rng.gamma(an, 1.0 / bn)
    mu = rng.normal(mn, math.sqrt(variance / kn))
    return mu, math.sqrt(variance)


def prior_draw(prior, seed):
    """One draw of (weights, components) from the prior, as a MixingMeasure."""
    rng = _rng(seed)
    eta = rng.dirichlet(prior.dirichlet_weights)
    coefficients = (prior.normal_mean_loc, prior.kappa0, prior.ig_shape, prior.ig_scale)
    comps = [UnivariateNormal(*_draw_normal(rng, *coefficients)) for _ in range(prior.G)]
    return MixingMeasure(tuple(zip(eta.tolist(), comps)))


def _sweep(rng, arr, prior, base, eta, mu, sigma):
    """One scan on arrays: allocations drawn straight from the weighted
    log-densities (see _draw_from_log_weights), then weights, then component
    parameters.  ``base`` is the prior's Dirichlet weights as an array.
    Returns (z, eta, mu, sigma) of the next state."""
    G = len(mu)
    if len(arr):
        L = _component_log_densities("normal", (mu, sigma), arr)
        L += _logs(eta)
        z = _draw_from_log_weights(rng, L)
    else:
        z = np.empty(0, dtype=np.int64)
    counts = np.bincount(z - 1, minlength=G)
    eta = rng.dirichlet(base + counts)
    mu, sigma = np.empty(G), np.empty(G)
    for g, coefficients in enumerate(zip(*_posterior_coefficients(prior, arr, z, counts))):
        mu[g], sigma[g] = _draw_normal(rng, *coefficients)
    return z, eta, mu, sigma


def gibbs_sweep(state, data, prior, seed):
    """One full scan: allocations, then weights, then component parameters.

    Components with no members fall back to their prior automatically since
    the update coefficients reduce to the prior's when n_g = 0.
    """
    if state.measure.family != "normal":
        raise DomainError("the Gibbs sampler handles univariate Normal mixtures")
    rng = _rng(seed)
    arr = validate_observations("normal", data)
    if prior.G != state.measure.G:
        raise DomainError("prior and state disagree on the number of components")
    base = np.asarray(prior.dirichlet_weights)
    z, eta, mu, sigma = _sweep(rng, arr, prior, base, state.measure.weights, *_measure_params(state.measure))
    measure = _measure_from_params("normal", eta, (mu, sigma))
    return GibbsState(z=z, measure=measure, iteration=state.iteration + 1)


def run_gibbs(data, G, prior, config=GibbsConfig()):
    """Run the sampler and return the thinned post-burn-in chain, unrelabeled.

    The sweeps run on parameter arrays; a GibbsState and its measure are
    built for retained snapshots only.
    """
    arr = validate_observations("normal", data)
    if prior.G != _require_count("G", G, 1):
        raise DomainError("prior dirichlet_weights must have length G")
    rng = np.random.default_rng(config.seed)
    start = prior_draw(prior, rng)
    eta, (mu, sigma) = start.weights, _measure_params(start)
    base = np.asarray(prior.dirichlet_weights)
    snapshots = []
    total = config.burn_in + config.n_samples * config.thin
    for sweep_index in range(1, total + 1):
        z, eta, mu, sigma = _sweep(rng, arr, prior, base, eta, mu, sigma)
        if sweep_index > config.burn_in and (sweep_index - config.burn_in) % config.thin == 0:
            measure = _measure_from_params("normal", eta, (mu, sigma))
            snapshots.append(GibbsState(z=z, measure=measure, iteration=sweep_index))
    return PosteriorSample(snapshots=tuple(snapshots), seed=config.seed, config=config)


# ---------------------------------------------------------------------------
# Label-invariant summaries of the mixing distribution.


@dataclass(frozen=True)
class ParamRegion:
    """Axis-aligned region in (mu, sigma) space; bounds may be infinite."""

    mu_min: float = -math.inf
    mu_max: float = math.inf
    sigma_min: float = 0.0
    sigma_max: float = math.inf

    def __post_init__(self):
        if not (self.mu_min <= self.mu_max and self.sigma_min <= self.sigma_max):
            raise DomainError("region is empty or has a nan bound")

    def contains(self, component):
        return (
            self.mu_min <= component.mu <= self.mu_max
            and self.sigma_min <= component.sigma <= self.sigma_max
        )


@dataclass(frozen=True)
class AtomCountInSet:
    region: ParamRegion


@dataclass(frozen=True)
class TotalWeightInSet:
    region: ParamRegion


@dataclass(frozen=True)
class WeightOfLargestVarianceComponent:
    pass


@dataclass(frozen=True)
class PredictiveDensityAt:
    points: tuple

    def __post_init__(self):
        pts = tuple(_require_finite("points entry", p) for p in self.points)
        if not pts:
            raise DomainError("at least one evaluation point is required")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class SummaryStatistics:
    """Per-snapshot functional values with their mean and quantiles."""

    values: np.ndarray
    mean: np.ndarray
    quantiles: dict


def _predictive_densities(measures, points):
    """Mixture density of each measure at ``points``, shape (S, P), stacked."""
    family = measures[0].family
    arr = validate_observations(family, points)
    params = [np.stack(p) for p in zip(*(_measure_params(m) for m in measures))]
    weights = np.stack([m.weights for m in measures])
    out = np.empty((len(measures), len(arr)))
    return _stacked_log_densities(family, weights, params, arr, np.exp, out)


def _evaluate_functional(functional, measure):
    if isinstance(functional, AtomCountInSet):
        return float(sum(1 for _, c in measure.atoms if functional.region.contains(c)))
    if isinstance(functional, TotalWeightInSet):
        return math.fsum(w for w, c in measure.atoms if functional.region.contains(c))
    if isinstance(functional, WeightOfLargestVarianceComponent):
        top = max(c.sigma for _, c in measure.atoms)
        return max(w for w, c in measure.atoms if c.sigma == top)
    if isinstance(functional, PredictiveDensityAt):
        return _predictive_densities([measure], functional.points)[0]
    raise DomainError(f"unknown functional {functional!r}")


def summarize_H(sample, functional):
    """Posterior summary of a permutation-invariant functional of the mixing
    distribution, evaluated on every snapshot of the raw chain."""
    if len(sample) == 0:
        raise DomainError("the posterior sample is empty")
    measures = [s.measure for s in sample.snapshots]
    if isinstance(functional, PredictiveDensityAt):
        values = _predictive_densities(measures, functional.points)
    else:
        values = np.array([_evaluate_functional(functional, m) for m in measures])
    qs = (2.5, 25.0, 50.0, 75.0, 97.5)
    quantiles = {f"{q:g}%": np.percentile(values, q, axis=0) for q in qs}
    return SummaryStatistics(values=values, mean=values.mean(axis=0), quantiles=quantiles)


# ---------------------------------------------------------------------------
# Within-model evidence and the posterior over the number of components.


@dataclass(frozen=True)
class EvidenceConfig:
    n_prior_draws: int = 5000
    seed: int = 0

    def __post_init__(self):
        _require_count("n_prior_draws", self.n_prior_draws, 1000)
        _require_seed(self.seed)


@dataclass(frozen=True)
class EvidenceEstimate:
    """Monte-Carlo estimate of log p(y | G) with a delta-method standard error.

    ``ess`` is the Kish effective sample size (sum w)^2 / sum w^2 of the
    prior draws' likelihood weights w, and ``max_weight_share`` the largest
    single weight over their sum: an ess near 1 (a share near 1) means one
    draw carries the whole estimate, whatever ``log_se`` says.
    """

    log_value: float
    log_se: float
    underflowed: bool
    ess: float = math.nan
    max_weight_share: float = math.nan

    def __float__(self):
        return self.log_value


def _prior_parameter_draws(prior, rng, m):
    etas = rng.dirichlet(prior.dirichlet_weights, size=m)
    variances = 1.0 / rng.gamma(prior.ig_shape, 1.0 / prior.ig_scale, size=(m, prior.G))
    sigmas = np.sqrt(variances)
    mus = prior.normal_mean_loc + sigmas * prior.normal_mean_scale * rng.standard_normal(
        (m, prior.G)
    )
    return etas, mus, sigmas


def _loglik_of_draws(arr, etas, mus, sigmas):
    """Log-likelihood of ``arr`` under each draw (row of etas, mus, sigmas)."""
    row_sums = lambda rows, out: rows.sum(axis=-1, out=out)  # noqa: E731
    return _stacked_log_densities("normal", etas, (mus, sigmas), arr, row_sums, np.empty(len(etas)))


def log_marginal_likelihood(data, G, prior, config=EvidenceConfig()):
    """Simple Monte-Carlo evidence: average the likelihood over prior draws.

    Stable in log space; documented caveat: the estimator is high-variance
    for diffuse priors, which the standard error makes visible.
    """
    arr = validate_observations("normal", data)
    if prior.G != _require_count("G", G, 1):
        raise DomainError("prior dirichlet_weights must have length G")
    rng = np.random.default_rng(config.seed)
    m = config.n_prior_draws
    etas, mus, sigmas = _prior_parameter_draws(prior, rng, m)
    if len(arr) == 0:
        return EvidenceEstimate(
            log_value=0.0, log_se=0.0, underflowed=False, ess=float(m), max_weight_share=1.0 / m
        )
    lls = _loglik_of_draws(arr, etas, mus, sigmas)
    top = lls.max()
    if np.isneginf(top):
        warnings.warn("every prior draw underflowed the likelihood", RuntimeWarning)
        return EvidenceEstimate(log_value=-math.inf, log_se=math.nan, underflowed=True, ess=0.0)
    w = np.exp(lls - top)
    mean_w = w.mean()
    log_value = float(_logsumexp(lls) - math.log(m))
    log_se = float(w.std(ddof=1) / (mean_w * math.sqrt(m)))
    total = _exact_sum(w)
    return EvidenceEstimate(
        log_value=log_value,
        log_se=log_se,
        underflowed=False,
        ess=total * total / _exact_sum(w * w),
        max_weight_share=float(w.max()) / total,
    )


def combine_log_marginals(log_marginals, prior_on_G):
    """Bayes' rule across model sizes in log space; DomainError if no size has mass."""
    prior_on_G = np.asarray(prior_on_G, dtype=float)
    if np.any(prior_on_G < 0.0) or abs(math.fsum(prior_on_G.tolist()) - 1.0) > 1e-12:
        raise DomainError("prior_on_G must be a probability vector")
    log_marginals = np.asarray([float(v) for v in log_marginals])
    if len(log_marginals) != len(prior_on_G):
        raise DomainError("one marginal likelihood per model size is required")
    with np.errstate(divide="ignore"):
        lp = np.log(prior_on_G) + log_marginals
    total = _logsumexp(lp)
    if not math.isfinite(total):
        raise DomainError(f"the posterior over G is undefined: the log normalizer is {total}")
    post = np.exp(lp - total)
    return post / post.sum()


def evidence_over_G(data, G_range, prior_builder, config=EvidenceConfig()):
    """Evidence estimate of each model size in ``G_range``, in order.

    ``prior_builder(G)`` must return the within-model ConjugatePrior; the
    evidence of each size is estimated independently (fresh seed stream per
    size, all derived from config.seed).
    """
    G_range = [_require_count("G_range entry", G, 1) for G in G_range]
    if not G_range:
        raise DomainError("G_range must be non-empty")
    children = np.random.SeedSequence(config.seed).spawn(len(G_range))
    estimates = []
    for G, child in zip(G_range, children):
        sub = EvidenceConfig(n_prior_draws=config.n_prior_draws, seed=int(child.generate_state(1)[0]))
        estimates.append(log_marginal_likelihood(data, G, prior_builder(G), sub))
    return estimates


def posterior_over_G(data, G_range, prior_builder, prior_on_G, config=EvidenceConfig()):
    """Posterior probabilities of each size in ``G_range``, from :func:`evidence_over_G`."""
    estimates = evidence_over_G(data, G_range, prior_builder, config)
    return combine_log_marginals([e.log_value for e in estimates], prior_on_G)
