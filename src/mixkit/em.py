"""Maximum-likelihood fitting of finite mixtures by EM.

The soft variant alternates responsibility computation (posterior allocation
probabilities, evaluated in log space) with closed-form weighted maximum
likelihood updates.  The hard-classification variant allocates each point
outright to the component under which its density is largest and refits by
per-group maximum likelihood; its trace records the classification
log-likelihood sum_i log f(y_i | theta_{z_i}), which is the quantity that
variant actually ascends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .components import validate_observations
from .errors import DegeneratePointError, DomainError, EmptyComponentError
from .errors import _require_count, _require_positive, _require_seed
from .models import MixingMeasure, MixtureModel, canonicalize, log_weighted_densities, model_to_dict
from .models import (
    _atom_sum,
    _component_log_densities,
    _exact_sum,
    _log_factorials,
    _logs,
    _logsumexp,
    _measure_from_params,
    _measure_params,
)

POISSON_RATE_FLOOR = 1e-8
EMPTY_RESPONSIBILITY = 1e-300


@dataclass(frozen=True)
class EMConfig:
    """Knobs for a run: stopping rule, initialization, floors, restarts.

    ``init`` is "k-points" (distinct data points as seeds), or
    "random-responsibilities", or a MixingMeasure supplied by the caller.
    ``variance_floor`` of None means 1e-6 times the overall sample variance.
    ``restarts`` counts independent seeded initializations; the best final
    log-likelihood wins.  With restarts=0 a single strict run is performed
    in which an empty component raises instead of being re-seeded.
    """

    max_iter: int = 1000
    tol: float = 1e-8
    init: object = "k-points"
    variance_floor: float | None = None
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        _require_count("max_iter", self.max_iter, 1)
        _require_positive("tol", self.tol)
        if self.variance_floor is not None:
            _require_positive("variance_floor", self.variance_floor)
        _require_count("restarts", self.restarts)
        _require_seed(self.seed)
        if isinstance(self.init, str) and self.init not in ("k-points", "random-responsibilities"):
            raise DomainError(f"unknown init {self.init!r}")
        if not isinstance(self.init, (str, MixingMeasure)):
            raise DomainError("init must be a strategy name or a MixingMeasure")


@dataclass(frozen=True)
class EMState:
    """Result of a run: fitted model, responsibilities, trace, stop reason.

    ``reseeds`` lists the (iteration, 1-based component) pairs at which an
    emptied component was re-seeded at a random data point.
    """

    model: MixtureModel
    responsibilities: np.ndarray
    loglik_trace: tuple
    iteration: int
    converged: bool
    reseeds: tuple = ()

    @property
    def loglik(self):
        return self.loglik_trace[-1]


def _responsibilities(L):
    """Posterior allocation probabilities from the weighted (n, G) matrix, and
    the per-point log mixture density they were normalised by."""
    norm = _logsumexp(L)
    bad = np.flatnonzero(np.isneginf(norm))
    if bad.size:
        raise DegeneratePointError(int(bad[0]))
    r = L - norm[:, None]
    np.exp(r, out=r)
    r /= _atom_sum(r)[:, None]
    return r, norm


def e_step(model, data):
    """Posterior allocation probabilities, one row per observation."""
    r, _ = _responsibilities(log_weighted_densities(model, data))
    return r


def resolve_variance_floor(data, family, config):
    """Translate the config's floor (or its data-scaled default) to a number."""
    if config.variance_floor is not None:
        return float(config.variance_floor)
    arr = validate_observations(family, data)
    if family == "bivariate_normal":
        base = float(np.mean(np.var(arr, axis=0)))
    else:
        base = float(np.var(np.asarray(arr, dtype=float)))
    return 1e-6 * base if base > 0.0 else 1e-12


def _check_row_stochastic(r, n):
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != n:
        raise DomainError("responsibilities must be an n-by-G matrix")
    if np.any(r < 0.0) or np.max(np.abs(r.sum(axis=1) - 1.0)) > 1e-9:
        raise DomainError("responsibility rows must be non-negative and sum to 1")
    return r


def _m_step_arrays(data, r, family, floor):
    """Weighted maximum-likelihood update on arrays.

    Returns (weights, params, empty): unnormalised weights, the family's
    parameter arrays (see models._measure_params) and the 0-based indices of
    components whose total responsibility underflowed.
    """
    n = len(data)
    rT = r.T  # (G, n): contiguous rows when r is atom-major
    totals = rT.sum(axis=1)
    empty = np.flatnonzero(totals < EMPTY_RESPONSIBILITY)
    safe = np.where(totals < EMPTY_RESPONSIBILITY, 1.0, totals)
    weights = totals / n
    if family == "normal":
        y = np.asarray(data, dtype=float)
        mus = (rT * y).sum(axis=1) / safe
        dev = y - mus[:, None]
        vars_ = (rT * dev * dev).sum(axis=1) / safe
        params = (mus, np.sqrt(np.maximum(vars_, floor)))
    elif family == "poisson":
        y = np.asarray(data, dtype=float)
        params = (np.maximum((rT * y).sum(axis=1) / safe, POISSON_RATE_FLOOR),)
    elif family == "bivariate_normal":
        Y = np.asarray(data, dtype=float)
        G = r.shape[1]
        means, covs = np.empty((G, 2)), np.empty((G, 2, 2))
        for g in range(G):
            rg = r[:, g]
            means[g] = rg @ Y / safe[g]
            dev = Y - means[g]
            covs[g] = _floor_eigenvalues((rg[:, None] * dev).T @ dev / safe[g], floor)
        params = (means, covs)
    else:
        raise DomainError(f"unknown family {family!r}")
    return weights, params, empty


def _floor_eigenvalues(cov, floor):
    """Symmetric copy of ``cov`` with eigenvalues raised to at least ``floor``."""
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    if vals[0] < floor:
        cov = (vecs * np.maximum(vals, floor)) @ vecs.T
    cov[1, 0] = cov[0, 1]
    return cov


def m_step(data, r, family, config=EMConfig()):
    """Closed-form weighted MLE of weights and component parameters.

    Normal variances are floored (see EMConfig) so a component cannot
    collapse onto a single point; Poisson rates are floored at 1e-8.
    A component whose total responsibility underflows raises
    EmptyComponentError carrying its 1-based label.
    """
    arr = validate_observations(family, data)
    r = _check_row_stochastic(r, len(arr))
    floor = resolve_variance_floor(arr, family, config)
    weights, params, empty = _m_step_arrays(arr, r, family, floor)
    if empty.size:
        raise EmptyComponentError(int(empty[0]) + 1)
    return _measure_from_params(family, weights / weights.sum(), params)


def _params_at_points(points, data, family, floor):
    """Parameter arrays of components centred at ``points`` with the data's spread."""
    arr = np.asarray(data, dtype=float)
    points = np.asarray(points, dtype=float)
    k = len(points)
    if family == "normal":
        return points, np.full(k, math.sqrt(max(float(arr.var()), floor)))
    if family == "poisson":
        return (np.maximum(points, POISSON_RATE_FLOOR),)
    cov = _floor_eigenvalues(np.cov(arr.T, ddof=0), floor)
    return points, np.broadcast_to(cov, (k, 2, 2)).copy()


def _initial_params(data, G, family, config, rng, floor):
    """(weights, parameter arrays) a run starts from."""
    init = config.init
    if isinstance(init, MixingMeasure):
        if init.G != G or init.family != family:
            raise DomainError("supplied initial measure does not match G and family")
        return init.weights, _measure_params(init)
    if init == "random-responsibilities":
        r = rng.dirichlet(np.ones(G), size=len(data))
        weights, params, empty = _m_step_arrays(data, r, family, floor)
        if empty.size:
            raise EmptyComponentError(int(empty[0]) + 1)
        return weights / weights.sum(), params
    if init == "k-points":
        uniq = np.unique(np.asarray(data, dtype=float), axis=0)
        if len(uniq) < G:
            raise DomainError(f"need at least {G} distinct data points to seed {G} components")
        picks = uniq[rng.choice(len(uniq), size=G, replace=False)]
        return np.full(G, 1.0 / G), _params_at_points(picks, data, family, floor)
    raise DomainError(f"unknown init {init!r}")


def _reseed_empty(weights, params, empty, data, family, floor, rng):
    """Replace collapsed components by fresh seeds at random data points."""
    n = len(data)
    picks = np.asarray(data, dtype=float)[[rng.integers(n) for _ in empty]]
    for p, fresh in zip(params, _params_at_points(picks, data, family, floor)):
        p[empty] = fresh
    weights = weights.copy()
    weights[empty] = 1.0 / n
    return weights / weights.sum()


def _single_em_run(data, G, family, config, rng, floor, log_fact):
    """One seeded run on parameter arrays; objects are built for the result only.

    With restarts=0 an emptied component raises instead of being re-seeded.
    """
    weights, params = _initial_params(data, G, family, config, rng, floor)
    L = _component_log_densities(family, params, data, log_fact) + _logs(weights)
    r, norm = _responsibilities(L)
    ll = _exact_sum(norm)
    trace = [ll]
    reseeds = []
    converged = False
    for _ in range(config.max_iter):
        weights, params, empty = _m_step_arrays(data, r, family, floor)
        if empty.size:
            if config.restarts == 0:
                raise EmptyComponentError(
                    int(empty[0]) + 1,
                    f"component {int(empty[0]) + 1} emptied at iteration {len(trace)}",
                )
            reseeds += [(len(trace), int(g) + 1) for g in empty]
            weights = _reseed_empty(weights, params, empty, data, family, floor, rng)
        else:
            weights = weights / weights.sum()
        L = _component_log_densities(family, params, data, log_fact) + _logs(weights)
        r, norm = _responsibilities(L)
        ll_new = _exact_sum(norm)
        trace.append(ll_new)
        if abs(ll_new - ll) / (1.0 + abs(ll_new)) < config.tol:
            converged = True
            break
        ll = ll_new
    return EMState(
        model=MixtureModel(_measure_from_params(family, weights, params)),
        responsibilities=r,
        loglik_trace=tuple(trace),
        iteration=len(trace) - 1,
        converged=converged,
        reseeds=tuple(reseeds),
    )


def _best_of_restarts(run, data, G, family, config):
    """Best final log-likelihood of ``run`` over the seeded restarts.

    The data are validated, and the variance floor and Poisson log y! are
    computed, once for all runs; each run gets its own spawned generator.
    """
    arr = validate_observations(family, data)
    G = _require_count("G", G, 1)
    if len(arr) < G:
        raise DomainError("need at least G observations")
    floor = resolve_variance_floor(arr, family, config)
    log_fact = _log_factorials(family, arr)
    best = None
    for child in np.random.SeedSequence(config.seed).spawn(max(config.restarts, 1)):
        state = run(arr, G, family, config, np.random.default_rng(child), floor, log_fact)
        if best is None or state.loglik > best.loglik:
            best = state
    return best


def run_em(data, G, family="normal", config=EMConfig()):
    """Fit a G-component mixture, keeping the best of the seeded restarts."""
    return _best_of_restarts(_single_em_run, data, G, family, config)


def _atom_argmax(L):
    """np.argmax(L, axis=1) as one pass per atom column; ties go to the lowest."""
    best = L[:, 0].copy()
    idx = np.zeros(len(L), dtype=np.int64)
    for g in range(1, L.shape[1]):
        col = L[:, g]
        better = col > best
        idx[better] = g
        np.maximum(best, col, out=best)
    return idx


def hard_allocations(model, data):
    """1-based labels maximizing the component density; ties go to the lowest."""
    arr = validate_observations(model.family, data)
    L = _component_log_densities(model.family, _measure_params(model.measure), arr)
    return _atom_argmax(L) + 1


def _hard_step(L):
    """Argmax labels and the classification log-likelihood, from one matrix."""
    idx = _atom_argmax(L)
    return idx + 1, _exact_sum(L[np.arange(len(L)), idx])


def _one_hot(z, G):
    onehot = np.zeros((len(z), G), order="F")
    onehot[np.arange(len(z)), z - 1] = 1.0
    return onehot


def _single_hard_em_run(data, G, family, config, rng, floor, log_fact):
    """One seeded hard-EM run; it stops once the allocations stop changing."""
    weights, params = _initial_params(data, G, family, config, rng, floor)
    z, ll = _hard_step(_component_log_densities(family, params, data, log_fact))
    trace = [ll]
    converged = False
    for _ in range(config.max_iter):
        weights, params, empty = _m_step_arrays(data, _one_hot(z, G), family, floor)
        if empty.size:
            raise EmptyComponentError(
                int(empty[0]) + 1,
                f"group {int(empty[0]) + 1} emptied after reallocation",
            )
        weights = weights / weights.sum()
        z_new, ll = _hard_step(_component_log_densities(family, params, data, log_fact))
        trace.append(ll)
        converged = np.array_equal(z_new, z)
        z = z_new
        if converged:
            break
    return EMState(
        model=MixtureModel(_measure_from_params(family, weights, params)),
        responsibilities=_one_hot(z, G),
        loglik_trace=tuple(trace),
        iteration=len(trace) - 1,
        converged=converged,
    )


def run_hard_em(data, G, family="normal", config=EMConfig()):
    """Decision-directed variant: argmax allocation, per-group MLE refit.

    Stops once the allocation vector stops changing.  An empty group raises
    EmptyComponentError; the trace holds the classification log-likelihood.
    """
    return _best_of_restarts(_single_hard_em_run, data, G, family, config)


def fit_report(state, config):
    """Plain-dict summary of a finished run, with the measure in canonical form."""
    canon = canonicalize(state.model.measure)
    cfg = {
        "max_iter": config.max_iter,
        "tol": config.tol,
        "init": config.init if isinstance(config.init, str) else model_to_dict(MixtureModel(config.init)),
        "variance_floor": config.variance_floor,
        "restarts": config.restarts,
        "seed": config.seed,
    }
    return {
        "measure": model_to_dict(MixtureModel(canon)),
        "loglik_trace": list(state.loglik_trace),
        "iterations": state.iteration,
        "converged": state.converged,
        "config": cfg,
        "seed": config.seed,
    }
