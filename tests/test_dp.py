import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import mixkit as mk

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


def test_partition_normalization_and_structure():
    p = mk.Partition.from_labels([2, 1, 2, 3, 1])
    assert p.n == 5
    assert p.d == 3
    assert p.blocks == ((1, 3), (2, 5), (4,))
    assert p.sizes == (2, 2, 1)
    assert list(p.as_labels()) == [0, 1, 0, 2, 1]


def test_partition_rejects_non_covers():
    with pytest.raises(mk.DomainError):
        mk.Partition(((1, 2), (2, 3)))
    with pytest.raises(mk.DomainError):
        mk.Partition(((1, 2), (4,)))
    with pytest.raises(mk.DomainError):
        mk.Partition(())


def test_partition_log_prob_hand_computed():
    # {1,2}{3}{4} with alpha = 3/2: 2 / 35
    p = mk.Partition.from_labels([1, 1, 2, 3])
    assert math.exp(mk.partition_log_prob(p, 1.5)) == pytest.approx(2.0 / 35.0, rel=1e-13)


def test_partition_log_prob_all_in_one_block():
    # single block of size n has probability (n-1)! / prod_{i<n} (alpha + i)
    p = mk.Partition.from_labels([1, 1, 1, 1])
    alpha = 2.0
    want = math.factorial(3) / (alpha * (alpha + 1) * (alpha + 2) * (alpha + 3)) * alpha
    assert math.exp(mk.partition_log_prob(p, alpha)) == pytest.approx(want, rel=1e-13)


def test_enumerate_partitions_counts():
    for n in range(1, 9):
        assert sum(1 for _ in mk.enumerate_partitions(n)) == BELL[n]


def test_enumerate_partitions_unique_and_valid():
    seen = set(mk.enumerate_partitions(5))
    assert len(seen) == BELL[5]
    assert all(p.n == 5 for p in seen)


def test_partition_law_sums_to_one():
    for alpha in (0.4, 1.0, 2.5):
        total = math.fsum(
            math.exp(mk.partition_log_prob(p, alpha)) for p in mk.enumerate_partitions(7)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_sample_crp_reproducible_and_valid():
    a = mk.sample_crp_labels(1.2, 40, 1, 5)
    assert np.array_equal(a, mk.sample_crp_labels(1.2, 40, 1, 5))
    assert mk.Partition.from_labels(a[0].tolist()).n == 40


def test_sample_crp_labels_matrix():
    labels = mk.sample_crp_labels(1.0, 30, 500, 7)
    assert labels.shape == (500, 30)
    assert labels[:, 0].max() == 0  # the first customer always opens block 0
    # labels form a restricted growth sequence in every run
    running_max = np.maximum.accumulate(labels, axis=1)
    assert np.all(labels[:, 1:] <= running_max[:, :-1] + 1)


def test_sampled_cluster_counts_match_the_expectation():
    labels = mk.sample_crp_labels(1.0, 12, 2000, 99)
    matrix_counts = labels.max(axis=1) + 1
    assert abs(np.mean(matrix_counts) - mk.expected_cluster_count(1.0, 12)) < 0.1


def test_expected_cluster_count_small_cases():
    assert mk.expected_cluster_count(1.0, 1) == 1.0
    # 1 + 1/2 + 1/3 + 1/4 and the float sum of those terms is exactly 25/12
    assert mk.expected_cluster_count(1.0, 4) == 25.0 / 12.0
    assert mk.expected_cluster_count(2.0, 2) == pytest.approx(2.0 - 1.0 / 3.0, rel=1e-15)


def test_expected_cluster_count_growth_is_logarithmic():
    alpha = 1.0
    for n in (10, 100, 1000):
        want = alpha * math.log(1.0 + n / alpha)
        assert mk.expected_cluster_count(alpha, n) == pytest.approx(want, abs=1.0)


def test_larger_alpha_opens_more_blocks():
    small = mk.expected_cluster_count(0.5, 100)
    large = mk.expected_cluster_count(5.0, 100)
    assert large > small


def test_crp_sampler_validation():
    with pytest.raises(mk.DomainError):
        mk.sample_crp_labels(0.0, 5, 1, 1)
    with pytest.raises(mk.DomainError):
        mk.sample_crp_labels(1.0, 0, 1, 1)
    with pytest.raises(mk.DomainError):
        mk.sample_crp_labels(1.0, 5, 0, 1)


def test_sampled_partition_frequencies_match_exact_law():
    # all 15 partitions of n = 4, alpha = 1, against their exact probabilities
    runs = 100000
    labels = mk.sample_crp_labels(1.0, 4, runs, 11)
    freq = Counter(tuple(row) for row in labels)
    for p in mk.enumerate_partitions(4):
        want = math.exp(mk.partition_log_prob(p, 1.0))
        got = freq[tuple(p.as_labels())] / runs
        assert got == pytest.approx(want, abs=0.005)


def finite_mixture_partition_log_prob(partition, alpha, G):
    """Exact partition law induced by a symmetric Dirichlet(alpha/G) mixture.

    Derived by integrating the weights out of the allocation likelihood and
    counting the G (G-1) ... (G-d+1) labelings that induce the partition.
    """
    if partition.d > G:
        return -math.inf
    a = alpha / G
    out = gammaln(G + 1.0) - gammaln(G - partition.d + 1.0)
    out += gammaln(alpha) - gammaln(alpha + partition.n)
    for size in partition.sizes:
        out += gammaln(a + size) - gammaln(a)
    return out


def test_finite_mixture_partition_law_is_normalized():
    for G in (3, 50):
        total = math.fsum(
            math.exp(finite_mixture_partition_log_prob(p, 1.0, G))
            for p in mk.enumerate_partitions(5)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_finite_mixture_partition_law_approaches_crp():
    # total variation between the G-component law and the limiting one at n = 6
    tv = 0.5 * math.fsum(
        abs(
            math.exp(finite_mixture_partition_log_prob(p, 1.0, 10000))
            - math.exp(mk.partition_log_prob(p, 1.0))
        )
        for p in mk.enumerate_partitions(6)
    )
    assert tv < 0.01
    # and a small G stays far away
    tv3 = 0.5 * math.fsum(
        abs(
            math.exp(finite_mixture_partition_log_prob(p, 1.0, 3))
            - math.exp(mk.partition_log_prob(p, 1.0))
        )
        for p in mk.enumerate_partitions(6)
    )
    assert tv3 > tv


def _parent_sample_crp_labels(alpha, n, runs, seed):
    """The one-customer-at-a-time label sampler the block counts replaced (the oracle)."""
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    labels = np.zeros((runs, n), dtype=np.int64)
    opened = np.ones(runs, dtype=np.int64)
    rows = np.arange(runs)
    for i in range(1, n):
        u = rng.random(runs) * (alpha + i)
        join = u < i
        source = np.where(join, u, 0.0).astype(np.int64)
        labels[:, i] = np.where(join, labels[rows, source], opened)
        opened += ~join
    return labels


def _assert_seating_matches_the_oracle(alpha, n, runs, seed, use_generator):
    def fresh():
        return np.random.default_rng(seed) if use_generator else seed

    def next_draw(s):
        return s.random() if use_generator else None

    want = _parent_sample_crp_labels(alpha, n, runs, oracle := fresh())
    after = next_draw(oracle)
    counts = mk.crp_block_counts(alpha, n, runs, gen := fresh())
    assert next_draw(gen) == after  # the same number of uniforms was drawn
    assert counts.dtype == np.int64
    assert np.array_equal(counts, want.max(axis=1) + 1)
    labels = mk.sample_crp_labels(alpha, n, runs, gen := fresh())
    assert next_draw(gen) == after
    assert labels.dtype == np.int64
    assert np.array_equal(labels, want)


@st.composite
def _seatings(draw):
    runs = draw(st.integers(1, 5000))
    n = draw(st.integers(1, max(1, min(600, 300_000 // runs))))
    alpha = 10.0 ** draw(st.floats(-3.0, 3.0))
    return alpha, n, runs, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(_seatings())
def test_block_counts_and_labels_equal_the_per_customer_sampler_bit_for_bit(case):
    _assert_seating_matches_the_oracle(*case)


@pytest.mark.parametrize("alpha, n, runs", [
    (1e-3, 1, 1), (1e3, 1, 5000), (1e-3, 600, 1), (1e3, 600, 1), (1.0, 600, 100),
    (0.5, 600, 5000), (1e3, 37, 5000), (1.0, 8, 40000),
])
@pytest.mark.parametrize("use_generator", [False, True])
def test_block_counts_and_labels_at_the_corners(alpha, n, runs, use_generator):
    _assert_seating_matches_the_oracle(alpha, n, runs, 2024, use_generator)


@pytest.mark.parametrize("block", [1, 3, 1000, 10**12])
def test_seating_bits_do_not_depend_on_the_block_size(monkeypatch, block):
    # 1 and 3 give one customer per block, 1000 a short last block, 10**12 one block
    monkeypatch.setattr(mk.dp, "_SEAT_BLOCK", block)
    for alpha, n, runs in ((1.0, 50, 7), (30.0, 200, 3), (0.2, 1, 5)):
        _assert_seating_matches_the_oracle(alpha, n, runs, 17, False)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_concentration_must_be_positive_and_finite(bad):
    p = mk.Partition.from_labels([1, 1, 2])
    calls = (
        lambda: mk.partition_log_prob(p, bad),
        lambda: mk.sample_crp_labels(bad, 5, 3, 0),
        lambda: mk.crp_block_counts(bad, 5, 3, 0),
        lambda: mk.expected_cluster_count(bad, 5),
    )
    for call in calls:
        with pytest.raises(mk.DomainError, match="alpha"):
            call()


def test_crp_counts_and_seeds_must_be_integers():
    for sampler in (mk.sample_crp_labels, mk.crp_block_counts):
        with pytest.raises(mk.DomainError, match="n must be an integer"):
            sampler(1.0, 2.5, 3, 0)
        with pytest.raises(mk.DomainError, match="runs must be an integer"):
            sampler(1.0, 3, 2.0, 0)
        with pytest.raises(mk.DomainError, match="seed"):
            sampler(1.0, 3, 2, -1)
        with pytest.raises(mk.DomainError, match="seed"):
            sampler(1.0, 3, 2, 0.5)
    labels = mk.sample_crp_labels(1.0, np.int32(4), np.int64(2), np.random.default_rng(1))
    assert labels.shape == (2, 4)
