"""Generative samplers.

Covers two-stage latent-allocation sampling from a mixture, hidden Markov
sequence generation, scale mixtures of Normals (Student-t and Laplace arise
as special cases) and the uniform-mixture construction of non-increasing
densities.  Every sampler is a pure function of its inputs and a seed;
categorical draws use inverse-cdf lookup on the stored atom order so output
streams are reproducible bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidMeasureError, _require_count, _require_finite
from .errors import _require_positive, _require_probabilities, _rng


def _categorical(rng, weights, n):
    """Inverse-cdf categorical draw; returns 0-based indices."""
    cum = np.cumsum(weights)
    idx = np.searchsorted(cum, rng.random(n), side="right")
    return np.minimum(idx, len(weights) - 1)


@dataclass(frozen=True)
class LabeledSample:
    """Observations together with the latent component labels that made them."""

    data: np.ndarray
    z: np.ndarray  # 1-based component labels
    seed: object = None

    def __post_init__(self):
        if len(self.data) != len(self.z):
            raise DomainError("data and z must have equal length")

    def __len__(self):
        return len(self.z)


@dataclass(frozen=True)
class HMMSpec:
    """Hidden Markov chain: initial law, transition matrix, per-state emissions."""

    initial: tuple
    xi: tuple
    components: tuple

    def __post_init__(self):
        initial = tuple(_require_probabilities("initial", self.initial))
        xi = tuple(tuple(_require_probabilities(f"xi row {g}", row)) for g, row in enumerate(self.xi, 1))
        comps = tuple(self.components)
        G = len(comps)
        if G < 1:
            raise DomainError("at least one state is required")
        if len({c.family for c in comps}) > 1:
            raise DomainError("emission components must share one family")
        if len(initial) != G or len(xi) != G or any(len(row) != G for row in xi):
            raise DomainError("initial and xi must match the number of states")
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "components", comps)

    @property
    def G(self):
        return len(self.components)

    @property
    def family(self):
        return self.components[0].family


@dataclass(frozen=True)
class InverseGamma:
    """Inverse-Gamma mixing law for the Normal variance (shape, scale)."""

    shape: float
    scale: float

    def __post_init__(self):
        _require_positive("shape", self.shape)
        _require_positive("scale", self.scale)


@dataclass(frozen=True)
class Exponential:
    """Exponential mixing law for the Normal variance (rate)."""

    rate: float

    def __post_init__(self):
        _require_positive("rate", self.rate)


def _emit(components, labels, rng):
    """Observations for the 0-based ``labels``, drawn component by component."""
    family, n = type(components[0]), len(labels)
    data = np.empty((n, family.dim) if family.dim > 1 else n, dtype=np.int64 if family.discrete else float)
    for g, comp in enumerate(components):
        members = np.flatnonzero(labels == g)
        if members.size:
            data[members] = comp.sample(rng, members.size)
    return data


def sample_mixture(model, n, seed):
    """Draw n observations by the two-stage scheme: label first, value second.

    z_i is categorical in the mixture weights and y_i | z_i comes from the
    allocated component.  Labels are 1-based.
    """
    n = _require_count("n", n)
    rng = _rng(seed)
    measure = model.measure
    idx = _categorical(rng, measure.weights, n)
    data = _emit(measure.components, idx, rng)
    stored_seed = None if isinstance(seed, np.random.Generator) else seed
    return LabeledSample(data=data, z=idx + 1, seed=stored_seed)


def sample_hmm(spec, T, seed):
    """Simulate T steps of the hidden chain and its emissions.

    Returns (states, observations); states are 1-based and depend only on
    the previous state through the transition matrix.  Step t draws one
    uniform u_t and moves to the first state whose cumulative probability in
    the current row exceeds u_t (inverse-cdf lookup); the chain is stepped on
    Python floats with ``bisect_right``, which makes the same comparisons as
    ``np.searchsorted(..., side="right")``.  Emissions follow, state by state.
    """
    T = _require_count("T", T, 1)
    rng = _rng(seed)
    last = spec.G - 1
    cum_init = np.cumsum(spec.initial).tolist()
    cum_rows = np.cumsum(np.asarray(spec.xi, dtype=float), axis=1).tolist()
    u = rng.random(T).tolist()
    state = min(bisect_right(cum_init, u[0]), last)
    path = [state]
    for x in u[1:]:
        state = min(bisect_right(cum_rows[state], x), last)
        path.append(state)
    states = np.array(path, dtype=np.int64)
    return states + 1, _emit(spec.components, states, rng)


def sample_scale_mixture(mu, mixing, n, seed):
    """Normal draws whose variance is itself drawn from a mixing law.

    InverseGamma(shape=nu/2, scale=nu/2) on the variance gives Student-t
    with nu degrees of freedom; Exponential(rate) on the variance gives the
    Laplace distribution.  Both mixing laws act on the variance, not the sd.
    """
    n = _require_count("n", n)
    mu = _require_finite("mu", mu)
    rng = _rng(seed)
    if isinstance(mixing, InverseGamma):
        variances = 1.0 / rng.gamma(mixing.shape, 1.0 / mixing.scale, size=n)
    elif isinstance(mixing, Exponential):
        variances = rng.exponential(1.0 / mixing.rate, size=n)
    else:
        raise DomainError(f"unsupported mixing law {mixing!r}")
    return mu + np.sqrt(variances) * rng.standard_normal(n)


def sample_monotone_density(thetas, n, seed):
    """Mixture of Uniform[0, theta] draws; the marginal density never increases.

    ``thetas`` is a sequence of (weight, theta) pairs with positive theta
    and weights on the simplex.
    """
    n = _require_count("n", n)
    pairs = [(w, _require_positive("theta", t)) for w, t in thetas]
    if not pairs:
        raise DomainError("at least one atom is required")
    weights = np.array(_require_probabilities("weights", [w for w, _ in pairs], InvalidMeasureError))
    rng = _rng(seed)
    uppers = np.array([t for _, t in pairs])
    idx = _categorical(rng, weights, n)
    return rng.random(n) * uppers[idx]

