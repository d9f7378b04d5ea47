"""The argument contract of every public entry point, as tables.

Counts and sizes are Python or numpy integers: never a bool, never a float,
not even 2.0.  Count observations (the y of a count pmf) may be integral
floats.  Reals are numbers, never str, bytes or bool, and finite; scales,
shapes, rates, concentrations and tolerances are also greater than 0.  Seeds
are what ``numpy.random.SeedSequence`` takes, and the functions that take a
seed also take a Generator.  Every violation is a DomainError naming the
argument, or a SpecDocumentError when the value comes through a document.

``test_every_public_callable_is_tabled_or_exempt`` keeps the tables complete:
a new name in ``mixkit.__all__`` must join a table or the exemption list.
"""

import dataclasses
import json
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

import mixkit as mk

Y = np.array([0.0, 0.1, 5.0, 5.2, 9.0, 9.1])
MEASURE = mk.MixingMeasure(((0.5, mk.UnivariateNormal(0.0, 1.0)), (0.5, mk.UnivariateNormal(3.0, 1.0))))
MODEL = mk.MixtureModel(MEASURE)
HMM = mk.HMMSpec(initial=(0.5, 0.5), xi=((0.9, 0.1), (0.2, 0.8)), components=MEASURE.components)
PRIOR_FIELDS = {"dirichlet_weights": (1.0, 1.0), "normal_mean_loc": 0.0, "normal_mean_scale": 10.0,
                "ig_shape": 2.0, "ig_scale": 4.0}
PRIOR = mk.ConjugatePrior(**PRIOR_FIELDS)
STATE = mk.GibbsState(z=np.array([1, 1, 2, 2, 2, 2]), measure=MEASURE, iteration=0)
EM = mk.EMConfig(max_iter=5, seed=1)
GIBBS = mk.GibbsConfig(burn_in=2, n_samples=3, seed=1)
EVIDENCE = mk.EvidenceConfig(n_prior_draws=1000, seed=1)
EXPONENTIAL = mk.Exponential(2.0)
NEGBINOM = mk.NegativeBinomialParams(3.0, 2.0)
PRIOR_REALS = ("normal_mean_loc", "normal_mean_scale", "ig_shape", "ig_scale")
SPEC = mk.SpecDocumentError


def builder(G):
    return mk.default_prior(Y, G)


def doc(kind, **fields):
    """A specification document's text; json writes nan and inf as NaN and Infinity."""
    return json.dumps({"schema_version": 1, "kind": kind, **fields}, default=lambda x: x.item())


def mixture_doc(**atom):
    return doc("mixture", family="normal", atoms=[{"weight": 1.0, "mu": 0.0, "sigma": 1.0, **atom}])


def prior(**fields):
    return mk.ConjugatePrior(**{**PRIOR_FIELDS, **fields})


def prior_doc(**fields):
    return doc("prior", **{**PRIOR_FIELDS, **fields})


def nb_doc(**fields):
    return doc("negative_binomial", **{"alpha": 3.0, "beta": 2.0, **fields})


class Count(NamedTuple):
    call: Callable
    valid: int
    error: type = mk.DomainError
    bad: tuple = ()  # bad values beyond BAD_COUNTS


class Real(NamedTuple):
    call: Callable
    positive: bool
    error: type = mk.DomainError


# entry point -> {argument: Count(call with the count, a valid count)}
COUNTS = {
    "sample_mixture": {"n": Count(lambda v: mk.sample_mixture(MODEL, v, 0), 3)},
    "sample_hmm": {"T": Count(lambda v: mk.sample_hmm(HMM, v, 0), 3)},
    "sample_scale_mixture": {"n": Count(lambda v: mk.sample_scale_mixture(0.0, EXPONENTIAL, v, 0), 3)},
    "sample_monotone_density": {"n": Count(lambda v: mk.sample_monotone_density(((1.0, 2.0),), v, 0), 3)},
    "run_em": {"G": Count(lambda v: mk.run_em(Y, v, "normal", EM), 2)},
    "run_hard_em": {"G": Count(lambda v: mk.run_hard_em(Y, v, "normal", EM), 2)},
    "EMConfig": {
        "max_iter": Count(lambda v: mk.run_em(Y, 2, "normal", mk.EMConfig(max_iter=v, seed=1)), 2),
        "restarts": Count(lambda v: mk.run_em(Y, 2, "normal", mk.EMConfig(max_iter=3, restarts=v)), 2),
    },
    "default_prior": {"G": Count(lambda v: mk.default_prior(Y, v), 2, bad=(2.9,))},
    "run_gibbs": {"G": Count(lambda v: mk.run_gibbs(Y, v, PRIOR, GIBBS), 2)},
    "GibbsConfig": {
        "burn_in": Count(lambda v: mk.run_gibbs(Y, 2, PRIOR, mk.GibbsConfig(burn_in=v, n_samples=2)), 2),
        "n_samples": Count(lambda v: mk.run_gibbs(Y, 2, PRIOR, mk.GibbsConfig(burn_in=1, n_samples=v)), 2),
        "thin": Count(lambda v: mk.run_gibbs(Y, 2, PRIOR, mk.GibbsConfig(burn_in=1, n_samples=2, thin=v)), 2),
    },
    "log_marginal_likelihood": {"G": Count(lambda v: mk.log_marginal_likelihood(Y, v, PRIOR, EVIDENCE), 2)},
    "evidence_over_G": {
        "G_range": Count(lambda v: mk.evidence_over_G(Y, (v, 2), builder, EVIDENCE), 1, bad=(1.5,)),
    },
    "posterior_over_G": {
        "G_range": Count(lambda v: mk.posterior_over_G(Y, (v, 2), builder, (0.5, 0.5), EVIDENCE), 1),
    },
    "EvidenceConfig": {
        "n_prior_draws": Count(lambda v: mk.log_marginal_likelihood(Y, 2, PRIOR, mk.EvidenceConfig(v)), 1000),
    },
    "permute": {"perm": Count(lambda v: mk.permute(MEASURE, (v, 2)), 1, bad=(1.5,))},
    "find_modes": {"grid_points": Count(lambda v: mk.find_modes(MODEL, None, v), 1000, bad=(4096.7, "5000"))},
    "count_modes": {"grid_points": Count(lambda v: mk.count_modes(MODEL, None, v), 1000, bad=(4096.7, "5000"))},
    "Partition": {"blocks": Count(lambda v: mk.Partition(((v, 3), (2,))), 1)},
    "enumerate_partitions": {"n": Count(lambda v: list(mk.enumerate_partitions(v)), 3)},
    "CRPConfig": {"n": Count(lambda v: mk.sample_crp(mk.CRPConfig(alpha=1.0, n=v, seed=1)), 3)},
    "sample_crp_labels": {
        "n": Count(lambda v: mk.sample_crp_labels(1.0, v, 2, 0), 3),
        "runs": Count(lambda v: mk.sample_crp_labels(1.0, 3, v, 0), 2),
    },
    "crp_block_counts": {
        "n": Count(lambda v: mk.crp_block_counts(1.0, v, 2, 0), 3),
        "runs": Count(lambda v: mk.crp_block_counts(1.0, 3, v, 0), 2),
    },
    "expected_cluster_count": {"n": Count(lambda v: mk.expected_cluster_count(1.0, v), 3)},
    "BetaBinomialParams": {"trials": Count(lambda v: mk.BetaBinomialParams(v, 1.0, 2.0), 3)},
    "DirichletMultinomialParams": {
        "trials": Count(lambda v: mk.DirichletMultinomialParams(v, (1.0, 2.0)), 3),
    },
    "parse_document": {
        "trials": Count(lambda v: mk.parse_document(doc("beta_binomial", trials=v, alpha=1.0, beta=2.0)),
                        3, SPEC),
    },
}

# count observations: an integral float is the same observation as its integer
OBSERVED_COUNTS = {
    "betabinom_pmf": {"y": Count(lambda v: mk.betabinom_pmf(mk.BetaBinomialParams(5, 1.0, 2.0), v), 2)},
    "negbinom_pmf": {"y": Count(lambda v: mk.negbinom_pmf(NEGBINOM, v), 2)},
    "dirmult_pmf": {
        "counts": Count(lambda v: mk.dirmult_pmf(mk.DirichletMultinomialParams(4, (1.0, 2.0)), (v, 2)), 2),
    },
}

# entry point -> {argument: Real(call with the real, whether it must be > 0)}
REALS = {
    "UnivariateNormal": {
        "mu": Real(lambda v: mk.UnivariateNormal(v, 1.0), False),
        "sigma": Real(lambda v: mk.UnivariateNormal(0.0, v), True),
    },
    "Poisson": {"lam": Real(lambda v: mk.Poisson(v), True)},
    "BivariateNormal": {
        "mean": Real(lambda v: mk.BivariateNormal((v, 0.0), ((1.0, 0.0), (0.0, 1.0))), False),
        "cov": Real(lambda v: mk.BivariateNormal((0.0, 0.0), ((v, 0.0), (0.0, 1.0))), True),
    },
    "component_from_dict": {
        "mu": Real(lambda v: mk.component_from_dict("normal", {"mu": v, "sigma": 1.0}), False, SPEC),
    },
    "model_from_dict": {"sigma": Real(lambda v: mk.model_from_dict(
        {"family": "normal", "atoms": [{"weight": 1.0, "mu": 0.0, "sigma": v}]}), True, SPEC)},
    "model_from_json": {"lam": Real(lambda v: mk.model_from_json(json.dumps(
        {"family": "poisson", "atoms": [{"weight": 1.0, "lam": v}]})), True, SPEC)},
    "HMMSpec": {
        "initial": Real(lambda v: mk.HMMSpec((v, 0.5), HMM.xi, HMM.components), False),
        "xi": Real(lambda v: mk.HMMSpec(HMM.initial, ((v, 0.1), (0.2, 0.8)), HMM.components), False),
    },
    "InverseGamma": {
        "shape": Real(lambda v: mk.InverseGamma(v, 1.0), True),
        "scale": Real(lambda v: mk.InverseGamma(1.0, v), True),
    },
    "Exponential": {"rate": Real(lambda v: mk.Exponential(v), True)},
    "sample_scale_mixture": {"mu": Real(lambda v: mk.sample_scale_mixture(v, EXPONENTIAL, 3, 0), False)},
    "sample_monotone_density": {"theta": Real(lambda v: mk.sample_monotone_density(((1.0, v),), 3, 0), True)},
    "EMConfig": {
        "tol": Real(lambda v: mk.EMConfig(tol=v), True),
        "variance_floor": Real(lambda v: mk.EMConfig(variance_floor=v), True),
    },
    "ConjugatePrior": {
        "dirichlet_weights": Real(lambda v: prior(dirichlet_weights=(1.0, v)), True),
        **{name: Real(lambda v, name=name: prior(**{name: v}), name != "normal_mean_loc") for name in PRIOR_REALS},
    },
    "parse_document": {
        **{name: Real(lambda v, name=name: mk.parse_document(prior_doc(**{name: v})),
                      name != "normal_mean_loc", SPEC) for name in PRIOR_REALS},
        "dirichlet_weights": Real(lambda v: mk.parse_document(prior_doc(dirichlet_weights=[1.0, v])), True,
                                  SPEC),
        "alpha": Real(lambda v: mk.parse_document(nb_doc(alpha=v)), True, SPEC),
        "beta": Real(lambda v: mk.parse_document(nb_doc(beta=v)), True, SPEC),
        "concentration": Real(lambda v: mk.parse_document(doc("dirichlet_multinomial", trials=3,
                                                              concentration=[1.0, v])), True, SPEC),
        "mu": Real(lambda v: mk.parse_document(mixture_doc(mu=v)), False, SPEC),
        "sigma": Real(lambda v: mk.parse_document(mixture_doc(sigma=v)), True, SPEC),
    },
    "PredictiveDensityAt": {"points": Real(lambda v: mk.PredictiveDensityAt((0.0, v)), False)},
    "default_search_interval": {"padding": Real(lambda v: mk.default_search_interval(MODEL, v), True)},
    "find_modes": {"search_interval": Real(lambda v: mk.find_modes(MODEL, (v, 20.0), 1000), False)},
    "count_modes": {"search_interval": Real(lambda v: mk.count_modes(MODEL, (-20.0, v), 1000), False)},
    "CRPConfig": {"alpha": Real(lambda v: mk.CRPConfig(alpha=v, n=3), True)},
    "partition_log_prob": {"alpha": Real(lambda v: mk.partition_log_prob(mk.Partition(((1, 2),)), v), True)},
    "sample_crp_labels": {"alpha": Real(lambda v: mk.sample_crp_labels(v, 3, 2, 0), True)},
    "crp_block_counts": {"alpha": Real(lambda v: mk.crp_block_counts(v, 3, 2, 0), True)},
    "expected_cluster_count": {"alpha": Real(lambda v: mk.expected_cluster_count(v, 3), True)},
    "BetaBinomialParams": {
        "alpha": Real(lambda v: mk.BetaBinomialParams(3, v, 1.0), True),
        "beta": Real(lambda v: mk.BetaBinomialParams(3, 1.0, v), True),
    },
    "NegativeBinomialParams": {
        "alpha": Real(lambda v: mk.NegativeBinomialParams(v, 1.0), True),
        "beta": Real(lambda v: mk.NegativeBinomialParams(1.0, v), True),
    },
    "DirichletMultinomialParams": {
        "concentration": Real(lambda v: mk.DirichletMultinomialParams(3, (1.0, v)), True),
    },
    "negbinom_support_bound": {
        "sd_multiples": Real(lambda v: mk.negbinom_support_bound(NEGBINOM, v), True),
    },
}

# entry point -> call with the seed, giving its draws; configs store seeds and take no Generator
SEEDED = {
    "sample_mixture": lambda s: dataclasses.astuple(mk.sample_mixture(MODEL, 3, s))[:2],
    "sample_hmm": lambda s: mk.sample_hmm(HMM, 3, s),
    "sample_scale_mixture": lambda s: mk.sample_scale_mixture(0.0, mk.InverseGamma(2.0, 2.0), 3, s),
    "sample_monotone_density": lambda s: mk.sample_monotone_density(((0.5, 1.0), (0.5, 2.0)), 3, s),
    "gibbs_allocations": lambda s: mk.gibbs_allocations(MEASURE, Y, s),
    "gibbs_sweep": lambda s: mk.gibbs_sweep(STATE, Y, PRIOR, s),
    "prior_draw": lambda s: mk.prior_draw(PRIOR, s),
    "sample_crp_labels": lambda s: mk.sample_crp_labels(1.0, 4, 2, s),
    "crp_block_counts": lambda s: mk.crp_block_counts(1.0, 4, 2, s),
}
SEEDED_CONFIGS = {
    "EMConfig": lambda s: mk.EMConfig(seed=s),
    "GibbsConfig": lambda s: mk.GibbsConfig(seed=s),
    "EvidenceConfig": lambda s: mk.EvidenceConfig(seed=s),
    "CRPConfig": lambda s: mk.CRPConfig(alpha=1.0, n=3, seed=s),
}

EXEMPT = {
    **{name: "an exception type" for name in ("MixtureError", "DomainError", "InvalidMeasureError",
                                               "IntervalTooSmallError", "DegeneratePointError",
                                               "EmptyComponentError", "SpecDocumentError", "DataFileError")},
    "MixingMeasure": "its weights are measure invariants: InvalidMeasureError, tested below",
    "MixtureModel": "takes a checked MixingMeasure and a family tag",
    "canonicalize": "takes a checked MixingMeasure",
    "validate_observations": "the check of observations itself",
    "density": "takes observations, checked by validate_observations",
    "log_density": "takes observations, checked by validate_observations",
    "log_likelihood": "takes observations, checked by validate_observations",
    "log_weighted_densities": "takes observations, checked by validate_observations",
    "e_step": "takes observations, checked by validate_observations",
    "hard_allocations": "takes observations, checked by validate_observations",
    "allocation_probabilities": "takes observations, checked by validate_observations",
    "m_step": "observations and a responsibility matrix; its config is an EMConfig",
    "mixture_cdf": "the cdf of an observation array, nan giving nan as in numpy",
    "fit_report": "formats a finished EMState",
    "summarize_H": "takes a PosteriorSample and a functional",
    "combine_log_marginals": "vectors: -inf log evidence is valid; prior_on_G is checked as a simplex",
    "ParamRegion": "extended-real bounds (+-inf is valid); nan bounds are tested below",
    "AtomCountInSet": "a functional tag holding a ParamRegion",
    "TotalWeightInSet": "a functional tag holding a ParamRegion",
    "WeightOfLargestVarianceComponent": "a functional tag with no argument",
    "GibbsState": "a result record",
    "PosteriorSample": "a result record",
    "EvidenceEstimate": "a result record",
    "SummaryStatistics": "a result record",
    "EMState": "a result record",
    "LabeledSample": "a result record",
    "sample_crp": "takes a CRPConfig, checked on construction",
    "negbinom_mean": "takes a checked NegativeBinomialParams",
    "negbinom_variance": "takes a checked NegativeBinomialParams",
    "over_dispersion_ratio": "takes checked compound parameters",
    "load_document": "reads a file and hands its text to parse_document",
    "document_for": "serialises a checked object",
    "dump_document": "serialises a checked object",
    "model_to_dict": "serialises a checked model",
    "model_to_json": "serialises a checked model",
}

BAD_COUNTS = [2.5, 2.0, math.nan, math.inf, -math.inf, -1, True, "2"]
BAD_OBSERVED_COUNTS = [2.5, math.nan, math.inf, -math.inf, -1, True, "2"]
BAD_REALS = [math.nan, math.inf, -math.inf, "1", True]
BAD_POSITIVE_REALS = [0.0, -1.0] + BAD_REALS
BAD_SEEDS = [1.5, -1, "7", [1, -2]]


def rows(table):
    return [pytest.param(row, name, id=f"{entry}-{name}") for entry, args in table.items()
            for name, row in args.items()]


def cases(table, bad):
    """One case per entry point, argument and bad value; ``bad(row)`` lists the values."""
    return [pytest.param(row, name, value, id=f"{entry}-{name}-{value!r}") for entry, args in table.items()
            for name, row in args.items() for value in bad(row)]


def plain(x):
    """A comparable form of a result: arrays by dtype, shape and bytes, floats by bits."""
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, tuple(plain(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, (list, tuple)):
        return tuple(plain(v) for v in x)
    if isinstance(x, np.generic):
        x = x.item()
    return x.hex() if isinstance(x, float) else x


def raises_naming(error, name, call, value):
    with pytest.raises(error) as info:
        call(value)
    assert name in str(info.value), (value, str(info.value))


@pytest.mark.parametrize("row, name, value", cases(COUNTS, lambda row: BAD_COUNTS + list(row.bad)))
def test_a_count_that_is_no_integer_or_too_small_raises(row, name, value):
    raises_naming(row.error, name, row.call, value)


@pytest.mark.parametrize("row, name", rows(COUNTS))
def test_a_numpy_integer_count_gives_the_result_of_its_int(row, name):
    assert plain(row.call(np.int64(row.valid))) == plain(row.call(row.valid))


@pytest.mark.parametrize("row, name, value", cases(OBSERVED_COUNTS, lambda row: BAD_OBSERVED_COUNTS))
def test_a_bad_count_observation_raises(row, name, value):
    raises_naming(row.error, name, row.call, value)


@pytest.mark.parametrize("row, name", rows(OBSERVED_COUNTS))
def test_count_observations_may_be_integral_floats(row, name):
    want = plain(row.call(row.valid))
    assert plain(row.call(np.int64(row.valid))) == want
    assert plain(row.call(float(row.valid))) == want


@pytest.mark.parametrize("row, name, value",
                         cases(REALS, lambda row: BAD_POSITIVE_REALS if row.positive else BAD_REALS))
def test_a_real_that_is_no_finite_number_or_not_positive_raises(row, name, value):
    raises_naming(row.error, name, row.call, value)


SEED_CASES = [pytest.param(call, seed, id=f"{entry}-{seed!r}") for table, bad in
              ((SEEDED, BAD_SEEDS), (SEEDED_CONFIGS, BAD_SEEDS + [np.random.default_rng(5)]))
              for entry, call in table.items() for seed in bad]


@pytest.mark.parametrize("call, seed", SEED_CASES)
def test_a_bad_seed_raises(call, seed):
    raises_naming(mk.DomainError, "seed", call, seed)


@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED.keys())
def test_a_generator_or_numpy_integer_seed_gives_the_same_draws(call):
    want = plain(call(5))
    assert plain(call(np.random.default_rng(5))) == want
    assert plain(call(np.uint8(5))) == want


@pytest.mark.parametrize("weight", [math.nan, -0.5, "1", True])
def test_measure_weights_are_measure_invariants(weight):
    with pytest.raises(mk.InvalidMeasureError):
        mk.MixingMeasure(((weight, mk.UnivariateNormal(0.0, 1.0)),))
    with pytest.raises(mk.InvalidMeasureError):
        mk.sample_monotone_density(((weight, 1.0),), 3, 0)


@pytest.mark.parametrize("bound", ["mu_min", "mu_max", "sigma_min", "sigma_max"])
def test_param_region_bounds_are_never_nan(bound):
    with pytest.raises(mk.DomainError, match="nan"):
        mk.ParamRegion(**{bound: math.nan})


def test_every_public_callable_is_tabled_or_exempt():
    public = {name for name in mk.__all__ if callable(getattr(mk, name))}
    tabled = set(COUNTS) | set(OBSERVED_COUNTS) | set(REALS) | set(SEEDED) | set(SEEDED_CONFIGS)
    assert sorted(public - tabled - set(EXEMPT)) == []
    assert sorted(tabled & set(EXEMPT)) == []
    assert sorted((tabled | set(EXEMPT)) - public) == []
    assert all(EXEMPT.values())
