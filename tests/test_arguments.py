"""The argument contract of every public entry point, as tables.

Counts and sizes are Python or numpy integers: never a bool, never a float,
not even 2.0.  Count observations (the y of a count pmf) may be integral
floats.  Reals are numbers, never str, bytes or bool, and finite; scales,
shapes, rates, concentrations and tolerances are also greater than 0.  A
probability vector holds finite non-negative reals whose math.fsum is within
1e-12 of 1, under one rule for every caller.  Seeds are what
``numpy.random.SeedSequence`` takes, and the functions that take a seed also
take a Generator.  Every violation is a DomainError naming the argument (an
InvalidMeasureError for measure weights), or a SpecDocumentError when the
value comes through a document.

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
    "model_from_dict": {
        "sigma": Real(lambda v: mk.model_from_dict(
            {"family": "normal", "atoms": [{"weight": 1.0, "mu": 0.0, "sigma": v}]}), True, SPEC),
        "lam": Real(lambda v: mk.model_from_dict(
            {"family": "poisson", "atoms": [{"weight": 1.0, "lam": v}]}), True, SPEC),
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

# entry point -> {argument: call with one entry of the array}; -inf, the log of 0, is a valid entry
LOG_VALUES = {
    "combine_log_marginals": {"log_marginals": lambda v: mk.combine_log_marginals([v, 0.0], (0.5, 0.5))},
}


class Probabilities(NamedTuple):
    call: Callable  # takes a probability vector of two entries
    error: type = mk.DomainError


# entry point -> {argument: Probabilities(call with the vector, the error it raises)}
PROBABILITIES = {
    "MixingMeasure": {
        "weights": Probabilities(lambda p: mk.MixingMeasure(tuple(zip(p, MEASURE.components))),
                                 mk.InvalidMeasureError),
    },
    "HMMSpec": {
        "initial": Probabilities(lambda p: mk.HMMSpec(p, HMM.xi, HMM.components)),
        "xi": Probabilities(lambda p: mk.HMMSpec(HMM.initial, (HMM.xi[0], p), HMM.components)),
    },
    "sample_monotone_density": {
        "weights": Probabilities(lambda p: mk.sample_monotone_density(tuple(zip(p, (1.0, 2.0))), 3, 0),
                                 mk.InvalidMeasureError),
    },
    "combine_log_marginals": {"prior_on_G": Probabilities(lambda p: mk.combine_log_marginals([0.0, -1.0], p))},
    "posterior_over_G": {
        "prior_on_G": Probabilities(lambda p: mk.posterior_over_G(Y, (1, 2), builder, p, EVIDENCE)),
    },
}

# entry point -> call with the seed, giving its draws; configs store seeds and take no Generator
SEEDED = {
    "sample_mixture": lambda s: dataclasses.astuple(mk.sample_mixture(MODEL, 3, s))[:2],
    "sample_hmm": lambda s: mk.sample_hmm(HMM, 3, s),
    "sample_scale_mixture": lambda s: mk.sample_scale_mixture(0.0, mk.InverseGamma(2.0, 2.0), 3, s),
    "sample_monotone_density": lambda s: mk.sample_monotone_density(((0.5, 1.0), (0.5, 2.0)), 3, s),
    "gibbs_sweep": lambda s: mk.gibbs_sweep(STATE, Y, PRIOR, s),
    "prior_draw": lambda s: mk.prior_draw(PRIOR, s),
    "sample_crp_labels": lambda s: mk.sample_crp_labels(1.0, 4, 2, s),
    "crp_block_counts": lambda s: mk.crp_block_counts(1.0, 4, 2, s),
}
SEEDED_CONFIGS = {
    "EMConfig": lambda s: mk.EMConfig(seed=s),
    "GibbsConfig": lambda s: mk.GibbsConfig(seed=s),
    "EvidenceConfig": lambda s: mk.EvidenceConfig(seed=s),
}

EXEMPT = {
    **{name: "an exception type" for name in ("MixtureError", "DomainError", "InvalidMeasureError",
                                               "IntervalTooSmallError", "DegeneratePointError",
                                               "EmptyComponentError", "SpecDocumentError", "DataFileError")},
    "MixtureModel": "takes a checked MixingMeasure and a family tag",
    "canonicalize": "takes a checked MixingMeasure",
    "validate_observations": "the check of observations itself",
    "density": "takes observations, checked by validate_observations",
    "log_density": "takes observations, checked by validate_observations",
    "log_likelihood": "takes observations, checked by validate_observations",
    "log_weighted_densities": "takes observations, checked by validate_observations",
    "e_step": "takes observations, checked by validate_observations",
    "allocation_probabilities": "takes observations, checked by validate_observations",
    "fit_report": "formats a finished EMState",
    "summarize_H": "takes a PosteriorSample and a functional",
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
    "negbinom_mean": "takes a checked NegativeBinomialParams",
    "negbinom_variance": "takes a checked NegativeBinomialParams",
    "over_dispersion_ratio": "takes checked compound parameters",
    "load_document": "reads a file and hands its text to parse_document",
    "document_for": "serialises a checked object",
    "dump_document": "serialises a checked object",
    "model_to_dict": "serialises a checked model",
}

BAD_COUNTS = [2.5, 2.0, math.nan, math.inf, -math.inf, -1, True, "2"]
BAD_OBSERVED_COUNTS = [2.5, math.nan, math.inf, -math.inf, -1, True, "2"]
BAD_REALS = [math.nan, math.inf, -math.inf, "1", True]
BAD_POSITIVE_REALS = [0.0, -1.0] + BAD_REALS
BAD_LOG_VALUES = [math.nan, math.inf, "1", b"1", True]
BAD_PROBABILITIES = ["0.5", b"0.5", True, math.nan, math.inf, -math.inf, -0.5, 1.5]
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


@pytest.mark.parametrize("call, name, value", cases(LOG_VALUES, lambda call: BAD_LOG_VALUES))
def test_a_log_value_that_is_no_real_below_inf_raises(call, name, value):
    raises_naming(mk.DomainError, name, call, value)


@pytest.mark.parametrize("call, name", rows(LOG_VALUES))
def test_a_log_value_may_be_minus_inf(call, name):
    assert plain(call(-math.inf)) == plain(call(np.float64(-math.inf))) == plain(np.array([0.0, 1.0]))


@pytest.mark.parametrize("row, name, value", cases(PROBABILITIES, lambda row: BAD_PROBABILITIES))
def test_a_probability_that_is_no_real_in_the_unit_interval_raises(row, name, value):
    # the message names the argument and the entry, never "the log normalizer is nan"
    raises_naming(row.error, name, lambda v: row.call((v, 0.5)), value)
    raises_naming(row.error, repr(value), lambda v: row.call((v, 0.5)), value)


@pytest.mark.parametrize("row, name", rows(PROBABILITIES))
def test_a_probability_may_be_a_numpy_float(row, name):
    assert plain(row.call((np.float64(0.5), 0.5))) == plain(row.call((0.5, 0.5)))


# (vector, whether it is a probability vector): math.fsum within 1e-12 of 1,
# and an entry may exceed 1 by as much
SIMPLEX_EDGE = [((0.5, 0.5 + 5e-13), True), ((0.5, 0.5 - 5e-13), True), ((1.0 + 5e-13, 0.0), True),
                ((1.0000000000000002, 0.0), True), ((0.5, 0.5 + 2e-12), False), ((0.5, 0.5 - 2e-12), False),
                ((1.0 + 2e-12, 0.0), False), ((1.0 - 2e-12, 0.0), False)]


@pytest.mark.parametrize("vector, valid", SIMPLEX_EDGE, ids=[repr(v) for v, _ in SIMPLEX_EDGE])
@pytest.mark.parametrize("row, name", rows(PROBABILITIES))
def test_every_caller_takes_the_same_edge_of_the_simplex(row, name, vector, valid):
    if valid:
        row.call(vector)
    else:
        with pytest.raises(row.error):
            row.call(vector)


def test_a_merge_that_rounds_one_weight_above_1_still_builds():
    # 0.26682361617308975 + 0.7331763838269104 rounds to 1.0000000000000002
    atom = mk.UnivariateNormal(0.0, 1.0)
    merged = mk.canonicalize(mk.MixingMeasure(((0.26682361617308975, atom), (0.7331763838269104, atom))))
    assert merged.atoms == ((1.0000000000000002, atom),)


@pytest.mark.parametrize("prior_on_G", [[True, False], [np.True_, np.False_], ["0.5", "0.5"], [b"1", 0.0]])
def test_prior_on_G_entries_that_only_convert_to_probabilities_raise(prior_on_G):
    raises_naming(mk.DomainError, "prior_on_G", lambda v: mk.combine_log_marginals([0.0, -1.0], v), prior_on_G)


def seed_id(seed):
    """A case id that stays the same from run to run: a Generator's repr holds its address."""
    return "Generator" if isinstance(seed, np.random.Generator) else repr(seed)


SEED_CASES = [pytest.param(call, seed, id=f"{entry}-{seed_id(seed)}") for table, bad in
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


@pytest.mark.parametrize("bound", ["mu_min", "mu_max", "sigma_min", "sigma_max"])
def test_param_region_bounds_are_never_nan(bound):
    with pytest.raises(mk.DomainError, match="nan"):
        mk.ParamRegion(**{bound: math.nan})


def test_every_public_callable_is_tabled_or_exempt():
    public = {name for name in mk.__all__ if callable(getattr(mk, name))}
    tabled = (set(COUNTS) | set(OBSERVED_COUNTS) | set(REALS) | set(LOG_VALUES) | set(PROBABILITIES) | set(SEEDED)
              | set(SEEDED_CONFIGS))
    assert sorted(public - tabled - set(EXEMPT)) == []
    assert sorted(tabled & set(EXEMPT)) == []
    assert sorted((tabled | set(EXEMPT)) - public) == []
    assert all(EXEMPT.values())
