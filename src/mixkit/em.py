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

from .components import BivariateNormal, Poisson, UnivariateNormal, validate_observations
from .errors import DegeneratePointError, DomainError, EmptyComponentError
from .models import MixingMeasure, MixtureModel, canonicalize, log_weighted_densities, model_to_dict
from .models import _component_log_densities, _logsumexp

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
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")
        if not self.tol > 0.0:
            raise DomainError("tol must be positive")
        if self.variance_floor is not None and not self.variance_floor > 0.0:
            raise DomainError("variance_floor must be positive")
        if self.restarts < 0:
            raise DomainError("restarts must be non-negative")
        if isinstance(self.init, str) and self.init not in ("k-points", "random-responsibilities"):
            raise DomainError(f"unknown init {self.init!r}")
        if not isinstance(self.init, (str, MixingMeasure)):
            raise DomainError("init must be a strategy name or a MixingMeasure")


@dataclass(frozen=True)
class EMState:
    """Result of a run: fitted model, responsibilities, trace, stop reason."""

    model: MixtureModel
    responsibilities: np.ndarray
    loglik_trace: tuple
    iteration: int
    converged: bool

    @property
    def loglik(self):
        return self.loglik_trace[-1]


def _responsibilities_and_loglik(model, data):
    L = log_weighted_densities(model, data)
    norm = _logsumexp(L)
    bad = np.flatnonzero(np.isneginf(norm))
    if bad.size:
        raise DegeneratePointError(int(bad[0]))
    r = np.exp(L - norm[:, None])
    r /= r.sum(axis=1, keepdims=True)
    return r, math.fsum(norm.tolist())


def e_step(model, data):
    """Posterior allocation probabilities, one row per observation."""
    r, _ = _responsibilities_and_loglik(model, data)
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


def _m_step_core(data, r, family, floor):
    """Weighted maximum-likelihood update; returns (weights, components, empty)."""
    n = len(data)
    totals = r.sum(axis=0)
    empty = np.flatnonzero(totals < EMPTY_RESPONSIBILITY)
    safe = np.where(totals < EMPTY_RESPONSIBILITY, 1.0, totals)
    weights = totals / n
    comps = []
    if family == "normal":
        y = np.asarray(data, dtype=float)
        mus = (r * y[:, None]).sum(axis=0) / safe
        dev = y[:, None] - mus[None, :]
        vars_ = (r * dev * dev).sum(axis=0) / safe
        vars_ = np.maximum(vars_, floor)
        comps = [UnivariateNormal(m, math.sqrt(v)) for m, v in zip(mus, vars_)]
    elif family == "poisson":
        y = np.asarray(data, dtype=float)
        lams = np.maximum((r * y[:, None]).sum(axis=0) / safe, POISSON_RATE_FLOOR)
        comps = [Poisson(l) for l in lams]
    elif family == "bivariate_normal":
        Y = np.asarray(data, dtype=float)
        for g in range(r.shape[1]):
            rg = r[:, g]
            mean = rg @ Y / safe[g]
            dev = Y - mean
            cov = (rg[:, None] * dev).T @ dev / safe[g]
            cov = _floor_eigenvalues(cov, floor)
            comps.append(BivariateNormal(tuple(mean), tuple(map(tuple, cov))))
    else:
        raise DomainError(f"unknown family {family!r}")
    return weights, comps, empty


def _floor_eigenvalues(cov, floor):
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    if vals[0] >= floor:
        return cov
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T


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
    weights, comps, empty = _m_step_core(arr, r, family, floor)
    if empty.size:
        raise EmptyComponentError(int(empty[0]) + 1)
    weights = weights / weights.sum()
    return MixingMeasure(tuple(zip(weights.tolist(), comps)))


def _pooled_component(data, family, floor):
    arr = np.asarray(data, dtype=float)
    if family == "normal":
        return UnivariateNormal(float(arr.mean()), math.sqrt(max(float(arr.var()), floor)))
    if family == "poisson":
        return Poisson(max(float(arr.mean()), POISSON_RATE_FLOOR))
    mean = arr.mean(axis=0)
    cov = _floor_eigenvalues(np.cov(arr.T, ddof=0), floor)
    return BivariateNormal(tuple(mean), tuple(map(tuple, cov)))


def _component_at_point(point, data, family, floor):
    arr = np.asarray(data, dtype=float)
    if family == "normal":
        return UnivariateNormal(float(point), math.sqrt(max(float(arr.var()), floor)))
    if family == "poisson":
        return Poisson(max(float(point), POISSON_RATE_FLOOR))
    cov = _floor_eigenvalues(np.cov(arr.T, ddof=0), floor)
    return BivariateNormal(tuple(np.asarray(point, dtype=float)), tuple(map(tuple, cov)))


def _initial_measure(data, G, family, config, rng, floor):
    init = config.init
    if isinstance(init, MixingMeasure):
        if init.G != G or init.family != family:
            raise DomainError("supplied initial measure does not match G and family")
        return init
    if init == "random-responsibilities":
        r = rng.dirichlet(np.ones(G), size=len(data))
        weights, comps, empty = _m_step_core(data, r, family, floor)
        if empty.size:
            raise EmptyComponentError(int(empty[0]) + 1)
        return MixingMeasure(tuple(zip((weights / weights.sum()).tolist(), comps)))
    if init == "k-points":
        uniq = np.unique(np.asarray(data, dtype=float), axis=0)
        if len(uniq) < G:
            raise DomainError(f"need at least {G} distinct data points to seed {G} components")
        picks = uniq[rng.choice(len(uniq), size=G, replace=False)]
        comps = [_component_at_point(p, data, family, floor) for p in picks]
        weights = np.full(G, 1.0 / G)
        return MixingMeasure(tuple(zip(weights.tolist(), comps)))
    raise DomainError(f"unknown init {init!r}")


def _reseed_empty(weights, comps, empty, data, family, floor, rng):
    """Replace collapsed components by fresh seeds at random data points."""
    n = len(data)
    weights = weights.copy()
    comps = list(comps)
    for g in empty:
        point = np.asarray(data, dtype=float)[rng.integers(n)]
        comps[g] = _component_at_point(point, data, family, floor)
        weights[g] = 1.0 / n
    weights = weights / weights.sum()
    return MixingMeasure(tuple(zip(weights.tolist(), comps)))


def _single_em_run(data, G, family, config, rng, reseed_allowed):
    floor = resolve_variance_floor(data, family, config)
    model = MixtureModel(_initial_measure(data, G, family, config, rng, floor))
    r, ll = _responsibilities_and_loglik(model, data)
    trace = [ll]
    converged = False
    for _ in range(config.max_iter):
        weights, comps, empty = _m_step_core(data, r, family, floor)
        if empty.size:
            if not reseed_allowed:
                raise EmptyComponentError(
                    int(empty[0]) + 1,
                    f"component {int(empty[0]) + 1} emptied at iteration {len(trace)}",
                )
            measure = _reseed_empty(weights, comps, empty, data, family, floor, rng)
        else:
            measure = MixingMeasure(tuple(zip((weights / weights.sum()).tolist(), comps)))
        model = MixtureModel(measure)
        r, ll_new = _responsibilities_and_loglik(model, data)
        trace.append(ll_new)
        if abs(ll_new - ll) / (1.0 + abs(ll_new)) < config.tol:
            converged = True
            break
        ll = ll_new
    return EMState(
        model=model,
        responsibilities=r,
        loglik_trace=tuple(trace),
        iteration=len(trace) - 1,
        converged=converged,
    )


def run_em(data, G, family="normal", config=EMConfig()):
    """Fit a G-component mixture, keeping the best of the seeded restarts."""
    arr = validate_observations(family, data)
    G = int(G)
    if G < 1:
        raise DomainError("G must be at least 1")
    if len(arr) < G:
        raise DomainError("need at least G observations")
    runs = max(config.restarts, 1)
    reseed_allowed = config.restarts > 0
    children = np.random.SeedSequence(config.seed).spawn(runs)
    best = None
    for child in children:
        state = _single_em_run(arr, G, family, config, np.random.default_rng(child), reseed_allowed)
        if best is None or state.loglik > best.loglik:
            best = state
    return best


def hard_allocations(model, data):
    """1-based labels maximizing the component density; ties go to the lowest."""
    arr = validate_observations(model.family, data)
    return np.argmax(_component_log_densities(model, arr), axis=1) + 1


def _hard_step(model, arr):
    """Argmax labels and the classification log-likelihood, from one matrix."""
    L = _component_log_densities(model, arr)
    idx = np.argmax(L, axis=1)
    return idx + 1, math.fsum(L[np.arange(len(arr)), idx].tolist())


def run_hard_em(data, G, family="normal", config=EMConfig()):
    """Decision-directed variant: argmax allocation, per-group MLE refit.

    Stops once the allocation vector stops changing.  An empty group raises
    EmptyComponentError; the trace holds the classification log-likelihood.
    """
    arr = validate_observations(family, data)
    G = int(G)
    if G < 1:
        raise DomainError("G must be at least 1")
    if len(arr) < G:
        raise DomainError("need at least G observations")
    runs = max(config.restarts, 1)
    children = np.random.SeedSequence(config.seed).spawn(runs)
    floor = resolve_variance_floor(arr, family, config)
    best = None
    for child in children:
        rng = np.random.default_rng(child)
        model = MixtureModel(_initial_measure(arr, G, family, config, rng, floor))
        z, ll = _hard_step(model, arr)
        trace = [ll]
        converged = False
        for _ in range(config.max_iter):
            onehot = np.zeros((len(arr), G))
            onehot[np.arange(len(arr)), z - 1] = 1.0
            weights, comps, empty = _m_step_core(arr, onehot, family, floor)
            if empty.size:
                raise EmptyComponentError(
                    int(empty[0]) + 1,
                    f"group {int(empty[0]) + 1} emptied after reallocation",
                )
            model = MixtureModel(MixingMeasure(tuple(zip((weights / weights.sum()).tolist(), comps))))
            z_new, ll = _hard_step(model, arr)
            trace.append(ll)
            if np.array_equal(z_new, z):
                converged = True
                z = z_new
                break
            z = z_new
        onehot = np.zeros((len(arr), G))
        onehot[np.arange(len(arr)), z - 1] = 1.0
        state = EMState(
            model=model,
            responsibilities=onehot,
            loglik_trace=tuple(trace),
            iteration=len(trace) - 1,
            converged=converged,
        )
        if best is None or state.loglik > best.loglik:
            best = state
    return best


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
