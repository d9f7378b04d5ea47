import numpy as np
import pytest

import mixkit as mk

CONFIGS = {
    "EMConfig": lambda seed: mk.EMConfig(seed=seed),
    "GibbsConfig": lambda seed: mk.GibbsConfig(seed=seed),
    "EvidenceConfig": lambda seed: mk.EvidenceConfig(seed=seed),
}


# the CRP samplers take the seed itself, so a Generator is accepted there
SAMPLERS = {
    "sample_crp_labels": lambda seed: mk.sample_crp_labels(1.0, 3, 2, seed),
    "crp_block_counts": lambda seed: mk.crp_block_counts(1.0, 3, 2, seed),
}
BAD_SEEDS = [1.5, 2.0, -1, [1, -2], [0.5], "7", b"7", np.float64(3.0)]
GOOD_SEEDS = [None, 0, 7, True, 2**100, np.int64(3), np.uint32(4), [1, 2], (3,),
              [], np.array([5, 6]), [np.int32(1), 2**70]]


@pytest.mark.parametrize("make", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("seed", BAD_SEEDS + [np.random.default_rng(0)])
def test_configs_reject_what_seed_sequence_rejects(make, seed):
    with pytest.raises(mk.DomainError, match="seed"):
        make(seed)


@pytest.mark.parametrize("make", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("seed", GOOD_SEEDS)
def test_configs_accept_what_seed_sequence_takes(make, seed):
    np.random.SeedSequence(seed)
    assert make(seed).seed is seed


@pytest.mark.parametrize("sample", SAMPLERS.values(), ids=SAMPLERS.keys())
@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_samplers_reject_what_seed_sequence_rejects(sample, seed):
    with pytest.raises(mk.DomainError, match="seed"):
        sample(seed)


@pytest.mark.parametrize("sample", SAMPLERS.values(), ids=SAMPLERS.keys())
@pytest.mark.parametrize("seed", GOOD_SEEDS)
def test_samplers_accept_what_seed_sequence_takes(sample, seed):
    np.random.SeedSequence(seed)
    drawn = sample(seed)
    if seed is not None:  # None draws fresh entropy each call
        assert np.array_equal(drawn, sample(np.random.default_rng(seed)))


def test_a_float_seed_fails_before_the_run():
    y = np.array([0.0, 0.1, 5.0, 5.2, 9.0, 9.1])
    with pytest.raises(mk.DomainError, match="seed"):
        mk.run_em(y, 2, "normal", mk.EMConfig(seed=1.5))


MODEL = mk.MixtureModel(mk.MixingMeasure(((0.5, mk.UnivariateNormal(0.0, 1.0)), (0.5, mk.UnivariateNormal(3.0, 1.0)))))
HMM = mk.HMMSpec(initial=(0.5, 0.5), xi=((0.9, 0.1), (0.2, 0.8)),
                 components=(mk.UnivariateNormal(0.0, 1.0), mk.UnivariateNormal(3.0, 1.0)))
COUNTED = {
    "sample_mixture": lambda n: mk.sample_mixture(MODEL, n, 0).data,
    "sample_hmm": lambda n: mk.sample_hmm(HMM, n, 0)[0],
    "sample_scale_mixture": lambda n: mk.sample_scale_mixture(0.0, mk.Exponential(rate=2.0), n, 0),
    "sample_monotone_density": lambda n: mk.sample_monotone_density(((1.0, 2.0),), n, 0),
    "expected_cluster_count": lambda n: mk.expected_cluster_count(1.0, n),
}


@pytest.mark.parametrize("call", COUNTED.values(), ids=COUNTED.keys())
@pytest.mark.parametrize("n", [2.9, 2.5, 2.0, np.float64(3.0), "3"])
def test_sample_sizes_must_be_integers(call, n):
    with pytest.raises(mk.DomainError, match="must be an integer"):
        call(n)


@pytest.mark.parametrize("call", COUNTED.values(), ids=COUNTED.keys())
def test_integer_sample_sizes_of_any_int_type_agree(call):
    want = call(3)
    for n in (np.int64(3), np.int32(3), np.uint8(3)):
        assert np.array_equal(call(n), want)
