"""Finite-mixture modeling toolkit.

Mixtures of a parametric family with a discrete mixing measure: density and
likelihood evaluation, labeled simulation, EM and conjugate Gibbs fitting,
relabeling-invariant posterior summaries, marginal-likelihood model choice,
compound count distributions, sequential random partitions, Markov-switching
simulation and exact mode counting for Normal mixtures.
"""

__version__ = "0.1.0"

from .bayes import (
    AtomCountInSet,
    ConjugatePrior,
    EvidenceConfig,
    EvidenceEstimate,
    GibbsConfig,
    GibbsState,
    ParamRegion,
    PosteriorSample,
    PredictiveDensityAt,
    SummaryStatistics,
    TotalWeightInSet,
    WeightOfLargestVarianceComponent,
    allocation_probabilities,
    combine_log_marginals,
    default_prior,
    evidence_over_G,
    gibbs_sweep,
    log_marginal_likelihood,
    posterior_over_G,
    prior_draw,
    run_gibbs,
    summarize_H,
)
from .components import (
    BivariateNormal,
    Poisson,
    UnivariateNormal,
    component_from_dict,
    validate_observations,
)
from .compound import (
    BetaBinomialParams,
    DirichletMultinomialParams,
    NegativeBinomialParams,
    betabinom_pmf,
    dirmult_pmf,
    negbinom_mean,
    negbinom_pmf,
    negbinom_support_bound,
    negbinom_variance,
    over_dispersion_ratio,
)
from .dp import (
    Partition,
    crp_block_counts,
    enumerate_partitions,
    expected_cluster_count,
    partition_log_prob,
    sample_crp_labels,
)
from .em import (
    EMConfig,
    EMState,
    e_step,
    fit_report,
    run_em,
    run_hard_em,
)
from .errors import (
    DataFileError,
    DegeneratePointError,
    DomainError,
    EmptyComponentError,
    IntervalTooSmallError,
    InvalidMeasureError,
    MixtureError,
    SpecDocumentError,
)
from .models import (
    MixingMeasure,
    MixtureModel,
    canonicalize,
    density,
    log_density,
    log_likelihood,
    log_weighted_densities,
    model_from_dict,
    model_to_dict,
    permute,
)
from .modelspec import document_for, dump_document, load_document, parse_document
from .modes import count_modes, default_search_interval, find_modes
from .sampling import (
    Exponential,
    HMMSpec,
    InverseGamma,
    LabeledSample,
    sample_hmm,
    sample_mixture,
    sample_monotone_density,
    sample_scale_mixture,
)

__all__ = [
    "__version__",
    # errors
    "MixtureError",
    "DomainError",
    "InvalidMeasureError",
    "IntervalTooSmallError",
    "DegeneratePointError",
    "EmptyComponentError",
    "SpecDocumentError",
    "DataFileError",
    # components
    "UnivariateNormal",
    "BivariateNormal",
    "Poisson",
    "component_from_dict",
    "validate_observations",
    # models
    "MixingMeasure",
    "MixtureModel",
    "canonicalize",
    "permute",
    "density",
    "log_density",
    "log_likelihood",
    "log_weighted_densities",
    "model_to_dict",
    "model_from_dict",
    # modes
    "find_modes",
    "count_modes",
    "default_search_interval",
    # sampling
    "LabeledSample",
    "HMMSpec",
    "InverseGamma",
    "Exponential",
    "sample_mixture",
    "sample_hmm",
    "sample_scale_mixture",
    "sample_monotone_density",
    # em
    "EMConfig",
    "EMState",
    "e_step",
    "run_em",
    "run_hard_em",
    "fit_report",
    # bayes
    "ConjugatePrior",
    "GibbsConfig",
    "GibbsState",
    "PosteriorSample",
    "default_prior",
    "prior_draw",
    "allocation_probabilities",
    "gibbs_sweep",
    "run_gibbs",
    "ParamRegion",
    "AtomCountInSet",
    "TotalWeightInSet",
    "WeightOfLargestVarianceComponent",
    "PredictiveDensityAt",
    "SummaryStatistics",
    "summarize_H",
    "EvidenceConfig",
    "EvidenceEstimate",
    "log_marginal_likelihood",
    "combine_log_marginals",
    "evidence_over_G",
    "posterior_over_G",
    # compound
    "BetaBinomialParams",
    "NegativeBinomialParams",
    "DirichletMultinomialParams",
    "betabinom_pmf",
    "negbinom_pmf",
    "dirmult_pmf",
    "negbinom_mean",
    "negbinom_variance",
    "negbinom_support_bound",
    "over_dispersion_ratio",
    # dp
    "Partition",
    "partition_log_prob",
    "enumerate_partitions",
    "sample_crp_labels",
    "crp_block_counts",
    "expected_cluster_count",
    # modelspec
    "parse_document",
    "load_document",
    "document_for",
    "dump_document",
]
