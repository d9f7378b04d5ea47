"""Dirichlet-process partition prior.

The partition of {1..n} induced by ties among sequentially seated indices
has probability alpha^d * prod_j (n_j - 1)! / (alpha (alpha+1) ... (alpha+n-1)),
a function of the block sizes only.  This module evaluates that law exactly,
samples it by sequential seating, enumerates all partitions for small n and
computes the exact expected number of blocks.

Seating uses the copy rule: with probability i/(alpha+i) customer i (0-based)
copies the label of a uniformly chosen earlier customer, which joins block j
with probability n_j/(alpha+i); otherwise it opens a new block.  One uniform
per customer decides both, so a run costs O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.special import gammaln

from .errors import DomainError


@dataclass(frozen=True)
class Partition:
    """Set partition of {1..n}; blocks are stored sorted by least element."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(sorted(int(i) for i in b)) for b in self.blocks)
        if not blocks or any(not b for b in blocks):
            raise DomainError("blocks must be non-empty")
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        seen = sorted(chain.from_iterable(blocks))
        if seen != list(range(1, len(seen) + 1)):
            raise DomainError("blocks must partition 1..n")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_labels(cls, labels):
        groups = {}
        for i, lab in enumerate(labels, start=1):
            groups.setdefault(lab, []).append(i)
        return cls(tuple(tuple(g) for g in groups.values()))

    @property
    def n(self):
        return sum(len(b) for b in self.blocks)

    @property
    def d(self):
        return len(self.blocks)

    @property
    def sizes(self):
        return tuple(len(b) for b in self.blocks)

    def as_labels(self):
        """0-based block index of each element, in element order."""
        labels = [0] * self.n
        for j, block in enumerate(self.blocks):
            for i in block:
                labels[i - 1] = j
        return tuple(labels)


@dataclass(frozen=True)
class CRPConfig:
    alpha: float
    n: int
    seed: int = 0

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise DomainError("alpha must be positive")
        if self.n < 1:
            raise DomainError("n must be at least 1")


def partition_log_prob(partition, alpha):
    """Exact log-probability of a partition under concentration alpha."""
    if not alpha > 0.0:
        raise DomainError("alpha must be positive")
    n = partition.n
    terms = [partition.d * math.log(alpha)]
    terms += [float(gammaln(size)) for size in partition.sizes]
    terms += [float(gammaln(alpha)), -float(gammaln(alpha + n))]
    return math.fsum(terms)


def enumerate_partitions(n):
    """All partitions of {1..n}, generated through restricted-growth strings."""
    if n < 1:
        raise DomainError("n must be at least 1")
    labels = [0] * n

    def rec(k, used):
        if k == n:
            yield Partition.from_labels(labels)
            return
        for j in range(used + 1):
            labels[k] = j
            yield from rec(k + 1, max(used, j + 1))

    yield from rec(1, 1)


def sample_crp(config):
    """One sequentially seated partition: a single run of :func:`sample_crp_labels`."""
    return Partition.from_labels(sample_crp_labels(config.alpha, config.n, 1, config.seed)[0].tolist())


def sample_crp_labels(alpha, n, runs, seed):
    """Vectorized seating across many independent runs.

    Returns a (runs, n) int64 array of 0-based block labels in
    restricted-growth form, suitable for frequency tests against the exact
    law.  Customer i draws u uniform on [0, alpha + i): it copies the label
    of customer floor(u) when u < i and opens the next block otherwise.
    """
    if not alpha > 0.0:
        raise DomainError("alpha must be positive")
    if n < 1 or runs < 1:
        raise DomainError("n and runs must be at least 1")
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


def expected_cluster_count(alpha, n):
    """Exact prior mean number of blocks: sum_{i=1}^{n} alpha/(alpha+i-1).

    Grows like alpha * log(n / alpha) for large n.
    """
    if not alpha > 0.0:
        raise DomainError("alpha must be positive")
    n = int(n)
    if n < 1:
        raise DomainError("n must be at least 1")
    return math.fsum(alpha / (alpha + i) for i in range(n))
