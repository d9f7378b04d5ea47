"""Closed-form compound distributions.

Mixing a binomial over a Beta law, a multinomial over a Dirichlet, or a
Poisson over a Gamma integrates to the beta-binomial, Dirichlet-multinomial
and negative-binomial pmfs.  All pmfs are evaluated through log-gamma terms
combined with compensated summation; the Gamma mixing uses the rate
parameterization, so the negative binomial's success probability is
p = 1 / (1 + beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammaln

from .errors import DomainError, _require_count, _require_positive


def _observed_count(name, value):
    """A count observation checked as a count; an integral float such as 4.0
    is an observation of 4."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _require_count(name, value)


@dataclass(frozen=True)
class BetaBinomialParams:
    trials: int
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "trials", _require_count("trials", self.trials))
        _require_positive("alpha", self.alpha)
        _require_positive("beta", self.beta)


@dataclass(frozen=True)
class NegativeBinomialParams:
    alpha: float
    beta: float

    def __post_init__(self):
        _require_positive("alpha", self.alpha)
        _require_positive("beta", self.beta)

    @property
    def p(self):
        return 1.0 / (1.0 + self.beta)


@dataclass(frozen=True)
class DirichletMultinomialParams:
    trials: int
    concentration: tuple

    def __post_init__(self):
        object.__setattr__(self, "trials", _require_count("trials", self.trials))
        conc = tuple(_require_positive("concentration entry", a) for a in self.concentration)
        if len(conc) < 2:
            raise DomainError("concentration needs at least two entries")
        object.__setattr__(self, "concentration", conc)


def betabinom_pmf(params, y):
    """Beta-mixed binomial: C(n,y) B(alpha+y, beta+n-y) / B(alpha, beta)."""
    y = _observed_count("y", y)
    n, a, b = params.trials, params.alpha, params.beta
    if y > n:
        raise DomainError(f"y must lie in 0..{n}")
    s = a + b
    terms = [
        gammaln(n + 1.0), -gammaln(y + 1.0), -gammaln((n - y) + 1.0),
        gammaln(a + y), gammaln(b + (n - y)), -gammaln(s + n),
        gammaln(s), -gammaln(a), -gammaln(b),
    ]
    return math.exp(math.fsum(terms))


def negbinom_pmf(params, y):
    """Gamma-mixed Poisson with p = 1/(1+beta)."""
    y = _observed_count("y", y)
    a, b = params.alpha, params.beta
    log_p = -math.log1p(b)
    log_q = math.log(b) - math.log1p(b)
    terms = [gammaln(a + y), -gammaln(y + 1.0), -gammaln(a), y * log_p, a * log_q]
    return math.exp(math.fsum(terms))


def dirmult_pmf(params, counts):
    """Dirichlet-mixed multinomial; reduces exactly to the beta-binomial at K=2."""
    counts = [_observed_count("counts entry", c) for c in counts]
    conc = params.concentration
    if len(counts) != len(conc):
        raise DomainError("counts and concentration must have equal length")
    n = sum(counts)
    if n != params.trials:
        raise DomainError(f"counts sum to {n}, expected {params.trials}")
    total = math.fsum(conc)
    terms = [gammaln(n + 1.0)]
    terms += [-gammaln(c + 1.0) for c in counts]
    terms += [gammaln(a + c) for a, c in zip(conc, counts)]
    terms += [-gammaln(total + n)]
    terms += [gammaln(total)]
    terms += [-gammaln(a) for a in conc]
    return math.exp(math.fsum(terms))


def over_dispersion_ratio(params):
    """Variance of the compound law over the base law's variance at the same mean.

    Always at least 1: mixing can only add spread.
    """
    if isinstance(params, BetaBinomialParams):
        n = params.trials
        if n <= 1:
            return 1.0
        return 1.0 + (n - 1.0) / (params.alpha + params.beta + 1.0)
    if isinstance(params, NegativeBinomialParams):
        return 1.0 + 1.0 / params.beta
    raise DomainError(f"no over-dispersion ratio for {type(params).__name__}")


def negbinom_mean(params):
    return params.alpha / params.beta


def negbinom_variance(params):
    return params.alpha * (1.0 + params.beta) / (params.beta * params.beta)


def negbinom_support_bound(params, sd_multiples=20.0):
    """Truncation point mean + k sd used when tabulating or normalizing."""
    sd_multiples = _require_positive("sd_multiples", sd_multiples)
    return int(math.ceil(negbinom_mean(params) + sd_multiples * math.sqrt(negbinom_variance(params))))
