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

from dataclasses import dataclass

import numpy as np

from .components import FAMILIES, validate_observations
from .errors import DegeneratePointError, DomainError, EmptyComponentError
from .errors import _require_count, _require_positive, _require_seed
from .models import MixingMeasure, MixtureModel, canonicalize, log_weighted_densities, model_to_dict
from .models import (
    _atom_sum,
    _component_log_densities,
    _exact_sum,
    _logs,
    _logsumexp,
    _logsumexp_into,
    _measure_from_params,
    _measure_params,
)

EMPTY_RESPONSIBILITY = 1e-300


@dataclass(frozen=True)
class EMConfig:
    """Knobs for a run: stopping rule, initialization, floors, restarts.

    ``init`` is "k-points" (distinct data points as seeds), or
    "random-responsibilities", or a MixingMeasure supplied by the caller.
    ``variance_floor`` of None means 1e-6 times the overall sample variance.
    ``restarts`` counts independent seeded initializations, run side by side
    in batches, each with the bits it has alone; the best final
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
    """Translate the config's floor (or its default, scaled by the data's mean variance) to a number."""
    if config.variance_floor is not None:
        return float(config.variance_floor)
    arr = np.asarray(validate_observations(family, data), dtype=float)
    base = float(np.mean(np.var(arr, axis=0)))
    return 1e-6 * base if base > 0.0 else 1e-12


def _m_step_arrays(data, r, family, floor):
    """Weighted maximum-likelihood update on arrays.

    Returns (weights, params, empty): unnormalised weights, the family's
    parameter arrays (see models._measure_params) and the 0-based indices of
    components whose total responsibility underflowed.
    """
    rT = r.T  # (G, n): contiguous rows when r is atom-major
    totals = rT.sum(axis=1)
    empty = np.flatnonzero(totals < EMPTY_RESPONSIBILITY)
    safe = np.where(totals < EMPTY_RESPONSIBILITY, 1.0, totals)
    params = FAMILIES[family]._m_step(rT, np.asarray(data, dtype=float), safe, floor)
    return totals / len(data), params, empty


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
        y = np.asarray(data, dtype=float)
        uniq = np.unique(y, axis=0)
        if len(uniq) < G:
            raise DomainError(f"need at least {G} distinct data points to seed {G} components")
        picks = uniq[rng.choice(len(uniq), size=G, replace=False)]
        return np.full(G, 1.0 / G), FAMILIES[family]._at_points(picks, y, floor)
    raise DomainError(f"unknown init {init!r}")


def _reseed_empty(weights, params, empty, data, family, floor, rng):
    """Replace collapsed components by fresh seeds at random data points."""
    n = len(data)
    y = np.asarray(data, dtype=float)
    picks = y[[rng.integers(n) for _ in empty]]
    for p, fresh in zip(params, FAMILIES[family]._at_points(picks, y, floor)):
        p[empty] = fresh
    weights = weights.copy()
    weights[empty] = 1.0 / n
    return weights / weights.sum()


# A restart batch holds at most this many values in each of its (runs*G, n)
# matrices; further restarts run in later batches, so the workspace stays
# bounded whatever ``restarts`` is (one restart is always let in).  Normal EM,
# G=3, medians of 7 interleaved rounds, single-threaded on a 2-vCPU x86-64 VM,
# per run and iteration (the same bits at every size): n=2000 with 10
# restarts, 6,000 values (one run a batch) 129 us, 12,000 109, 24,000 103,
# 65,536 98; n=20,000 with 4 restarts, 60,000 values 650 us, 120,000 675,
# 240,000 740: past this size a batch only leaves the cache sooner.
BATCH_VALUES = 65_536


def _keep_runs(keep, *arrays):
    """In place, the blocks of the runs the boolean list ``keep`` selects, moved
    to the front of each array (its leading axis one equal block per run);
    returns the shortened arrays."""
    kept = []
    for a in arrays:
        blocks = a.reshape(len(keep), -1, *a.shape[1:])[keep]
        a = a[: blocks.shape[0] * blocks.shape[1]]
        a[...] = blocks.reshape(a.shape)
        kept.append(a)
    return kept


def _restart_batch(hard, arr, G, family, config, rngs, floor, terms):
    """EM (hard EM when ``hard``) from each generator's start, all in lockstep;
    returns the runs' EMStates in run order.

    The A runs still active are stacked run-major: (A*G,) parameter arrays,
    (A, G) weights, and the (A*G, n) log-density and responsibility rows of
    a workspace allocated once here, reduced across atoms as (A, n, G)
    views.  An iteration is one kernel call, one log-sum-exp and one M-step
    for the whole batch, and each run keeps its own generator for its start
    and reseeds.
    Every operation is elementwise, reduces within one run's rows, or (the
    trace entries) sums one run's own norm row, so each run's bits are those
    of running it alone.  A run leaves the batch once it converges or fails.
    A failure drops every later run, and the lowest-numbered one is raised
    after the runs before it have finished: the exception a loop over the
    runs, one after another, would raise.  With restarts=0 (one strict run)
    an emptied component raises instead of being re-seeded; in hard EM an
    empty group always raises.
    """
    n = len(arr)
    # four arrays, not one block of their total size: the allocator then keeps
    # less freed memory, and the em_fit commands' peak RSS was 0.25 MB lower
    # (in-process, medians of 6 runs)
    dens, resp = np.empty((len(rngs) * G, n)), np.empty((len(rngs) * G, n))
    shift, norm = np.empty((len(rngs), n)), np.empty((len(rngs), n))
    starts, failed = [], None
    for k, rng in enumerate(rngs):
        try:
            starts.append(_initial_params(arr, G, family, config, rng, floor))
        except EmptyComponentError as exc:
            failed = (k, exc)
            break
    live = list(range(len(starts)))
    weights = np.array([w for w, _ in starts]).reshape(len(live), G)
    params = [np.concatenate(p) for p in zip(*(p for _, p in starts))]
    labels = np.zeros((len(live), n if hard else 1), dtype=np.int64)  # hard EM's 0-based allocations
    traces = {k: [] for k in live}
    reseeds = {k: [] for k in live}
    done = {}

    def leave(keep):
        nonlocal live, weights, labels, params
        A = len(live)
        weights, labels, *params = _keep_runs(keep, weights, labels, *params)
        _keep_runs(keep, dens[: A * G], resp[: A * G], norm[:A])
        live = [k for k, kept in zip(live, keep) if kept]

    def fail(a, exc):
        nonlocal failed
        failed = (live[a], exc)
        leave([b < a for b in range(len(live))])

    def finish(a, converged):
        k, atoms = live[a], slice(a * G, (a + 1) * G)
        done[k] = EMState(
            model=MixtureModel(_measure_from_params(family, weights[a], [p[atoms] for p in params])),
            responsibilities=resp[atoms].T.copy(order="F"),
            loglik_trace=tuple(traces[k]),
            iteration=len(traces[k]) - 1,
            converged=converged,
            reseeds=tuple(reseeds[k]),
        )

    for it in range(config.max_iter + 1):
        if it and live:
            A = len(live)
            raw, params, empty = _m_step_arrays(arr, resp[: A * G].T, family, floor)
            raw, params = raw.reshape(A, G), list(params)
            weights = raw / raw.sum(axis=1, keepdims=True)  # each row's sum is a lone run's weights.sum()
            for a in sorted({int(e) // G for e in empty}):
                emptied = empty[empty // G == a] - a * G
                g = int(emptied[0]) + 1
                if hard:
                    fail(a, EmptyComponentError(g, f"group {g} emptied after reallocation"))
                    break
                if config.restarts == 0:
                    fail(a, EmptyComponentError(g, f"component {g} emptied at iteration {it}"))
                    break
                k, atoms = live[a], slice(a * G, (a + 1) * G)
                reseeds[k] += [(it, int(e) + 1) for e in emptied]
                own = [p[atoms] for p in params]  # views: the reseed writes into the batch's arrays
                weights[a] = _reseed_empty(raw[a], own, emptied, arr, family, floor, rngs[k])
        if not live:
            break
        A = len(live)
        _component_log_densities(family, params, arr, terms, out=dens[: A * G])
        L = dens[: A * G].reshape(A, G, n).transpose(0, 2, 1)
        if hard:
            z = _atom_argmax(L)
            picks = z * n + (np.arange(A)[:, None] * (G * n) + np.arange(n))
            lls = [_exact_sum(row) for row in dens[: A * G].ravel().take(picks)]
            stop = [it > 0 and np.array_equal(new, old) for new, old in zip(z, labels)]
            labels = z
            np.equal(z[:, None, :], np.arange(G)[:, None], out=resp[: A * G].reshape(A, G, n))
        else:
            dens[: A * G] += _logs(weights.ravel())[:, None]
            _logsumexp_into(L, resp[: A * G].reshape(A, G, n).transpose(0, 2, 1), shift[:A], norm[:A])
            bad = np.isneginf(norm[:A])
            if bad.any():
                a = int(np.argmax(bad.any(axis=1)))
                fail(a, DegeneratePointError(int(np.argmax(bad[a]))))
                if not live:
                    break
                A = len(live)
                L = dens[: A * G].reshape(A, G, n).transpose(0, 2, 1)
            r = resp[: A * G].reshape(A, G, n).transpose(0, 2, 1)
            np.subtract(L, norm[:A, :, None], out=r)
            np.exp(r, out=r)
            r /= _atom_sum(r, out=shift[:A])[..., None]
            lls = [_exact_sum(row) for row in norm[:A]]
            stop = [it > 0 and abs(ll - traces[k][-1]) / (1.0 + abs(ll)) < config.tol
                    for k, ll in zip(live, lls)]
        for k, ll in zip(live, lls):
            traces[k].append(ll)
        if any(stop):
            for a in np.flatnonzero(stop).tolist():
                finish(a, True)
            leave([not s for s in stop])
    for a in range(len(live)):
        finish(a, False)
    if failed is not None:
        raise failed[1]
    return [done[k] for k in sorted(done)]


def _best_of_restarts(hard, data, G, family, config):
    """Best final log-likelihood over the seeded restarts; the lowest-numbered run wins a tie.

    The data are validated, and the variance floor and the family's
    per-observation term (the Poisson log y!) are computed, once for all runs;
    each run gets its own spawned generator.  The runs go in batches of at
    most BATCH_VALUES values per matrix (see _restart_batch).
    """
    arr = validate_observations(family, data)
    G = _require_count("G", G, 1)
    if len(arr) < G:
        raise DomainError("need at least G observations")
    floor = resolve_variance_floor(arr, family, config)
    terms = FAMILIES[family]._observation_terms(arr)
    seeds = np.random.SeedSequence(config.seed).spawn(max(config.restarts, 1))
    rngs = [np.random.default_rng(child) for child in seeds]
    step = max(1, BATCH_VALUES // (G * len(arr)))
    best = None
    for start in range(0, len(rngs), step):
        for state in _restart_batch(hard, arr, G, family, config, rngs[start : start + step], floor, terms):
            if best is None or state.loglik > best.loglik:
                best = state
    return best


def run_em(data, G, family="normal", config=EMConfig()):
    """Fit a G-component mixture, keeping the best of the seeded restarts."""
    return _best_of_restarts(False, data, G, family, config)


def _atom_argmax(L):
    """np.argmax(L, axis=-1) as one pass per atom column; ties go to the lowest."""
    best = L[..., 0].copy()
    idx = np.zeros(best.shape, dtype=np.int64)
    for g in range(1, L.shape[-1]):
        col = L[..., g]
        better = col > best
        idx[better] = g
        np.maximum(best, col, out=best)
    return idx


def run_hard_em(data, G, family="normal", config=EMConfig()):
    """Decision-directed variant: argmax allocation, per-group MLE refit.

    Stops once the allocation vector stops changing.  An empty group raises
    EmptyComponentError; the trace holds the classification log-likelihood.
    """
    return _best_of_restarts(True, data, G, family, config)


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
