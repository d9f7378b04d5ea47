import numpy as np
import pytest

import mixkit as mk

CONFIGS = {
    "EMConfig": lambda seed: mk.EMConfig(seed=seed),
    "GibbsConfig": lambda seed: mk.GibbsConfig(seed=seed),
    "EvidenceConfig": lambda seed: mk.EvidenceConfig(seed=seed),
    "CRPConfig": lambda seed: mk.CRPConfig(alpha=1.0, n=3, seed=seed),
}


@pytest.mark.parametrize("make", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("seed", [1.5, 2.0, -1, [1, -2], [0.5], "7", b"7", np.float64(3.0),
                                  np.random.default_rng(0)])
def test_configs_reject_what_seed_sequence_rejects(make, seed):
    with pytest.raises(mk.DomainError, match="seed"):
        make(seed)


@pytest.mark.parametrize("make", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("seed", [None, 0, 7, True, 2**100, np.int64(3), np.uint32(4), [1, 2], (3,),
                                  [], np.array([5, 6]), [np.int32(1), 2**70]])
def test_configs_accept_what_seed_sequence_takes(make, seed):
    np.random.SeedSequence(seed)
    assert make(seed).seed is seed


def test_a_float_seed_fails_before_the_run():
    y = np.array([0.0, 0.1, 5.0, 5.2, 9.0, 9.1])
    with pytest.raises(mk.DomainError, match="seed"):
        mk.run_em(y, 2, "normal", mk.EMConfig(seed=1.5))
