"""Dirichlet-process partition prior.

The partition of {1..n} induced by ties among sequentially seated indices
has probability alpha^d * prod_j (n_j - 1)! / (alpha (alpha+1) ... (alpha+n-1)),
a function of the block sizes only.  This module evaluates that law exactly,
samples it by sequential seating, enumerates all partitions for small n and
computes the exact expected number of blocks.

Seating uses the copy rule: with probability i/(alpha+i) customer i (0-based)
copies the label of a uniformly chosen earlier customer, which joins block j
with probability n_j/(alpha+i); otherwise it opens a new block.  One uniform
per customer decides both, so a run costs O(n).  Whether a customer opens a
block depends on its uniform alone, so block counts need no labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, _require_count, _require_positive, _rng

# uniforms drawn per block of seating steps (256 KiB of float64)
_SEAT_BLOCK = 1 << 15


@dataclass(frozen=True)
class Partition:
    """Set partition of {1..n}; blocks are stored sorted by least element."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(sorted(_require_count("blocks entry", i, 1) for i in b)) for b in self.blocks)
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


def partition_log_prob(partition, alpha):
    """Exact log-probability of a partition under concentration alpha."""
    _require_positive("alpha", alpha)
    n = partition.n
    terms = [partition.d * math.log(alpha)]
    terms += [float(gammaln(size)) for size in partition.sizes]
    terms += [float(gammaln(alpha)), -float(gammaln(alpha + n))]
    return math.fsum(terms)


def enumerate_partitions(n):
    """All partitions of {1..n}, generated through restricted-growth strings."""
    n = _require_count("n", n, 1)
    labels = [0] * n

    def rec(k, used):
        if k == n:
            yield Partition.from_labels(labels)
            return
        for j in range(used + 1):
            labels[k] = j
            yield from rec(k + 1, max(used, j + 1))

    return rec(1, 1)


def _seat(alpha, n, runs, rng, labels=None):
    """Seat n customers in each of ``runs`` runs; the number of blocks per run.

    The uniforms are drawn a cache-sized block of customers at a time, in the
    order of one ``rng.random(runs)`` per customer.  Labels are written into
    ``labels``, a zeroed (runs, n) array, only when one is passed.
    """
    opened = np.ones(runs, dtype=np.int64)
    rows = np.arange(runs)
    step = max(1, _SEAT_BLOCK // runs)
    for lo in range(1, n, step):
        i = np.arange(lo, min(lo + step, n))
        u = rng.random((i.size, runs))
        u *= (alpha + i)[:, None]
        opens = u >= i[:, None]
        if labels is None:
            opened += opens.sum(axis=0)
            continue
        for k, col in enumerate(i.tolist()):
            source = np.where(opens[k], 0.0, u[k]).astype(np.int64)
            labels[:, col] = np.where(opens[k], opened, labels[rows, source])
            opened += opens[k]
    return opened


def _seating(alpha, n, runs, seed):
    """Checked (n, runs, rng) for :func:`_seat`; ``seed`` may be a Generator."""
    _require_positive("alpha", alpha)
    return _require_count("n", n, 1), _require_count("runs", runs, 1), _rng(seed)


def sample_crp_labels(alpha, n, runs, seed):
    """Vectorized seating across many independent runs.

    Returns a (runs, n) int64 array of 0-based block labels in
    restricted-growth form, suitable for frequency tests against the exact
    law.  Customer i draws u uniform on [0, alpha + i): it copies the label
    of customer floor(u) when u < i and opens the next block otherwise.
    The array takes 8 * runs * n bytes; the ``crp`` command does not build
    it but counts blocks with :func:`crp_block_counts`.
    """
    n, runs, rng = _seating(alpha, n, runs, seed)
    labels = np.zeros((runs, n), dtype=np.int64)
    _seat(alpha, n, runs, rng, labels)
    return labels


def crp_block_counts(alpha, n, runs, seed):
    """Number of blocks in each of ``runs`` independent seatings of n customers.

    Bit for bit ``sample_crp_labels(alpha, n, runs, seed).max(axis=1) + 1``
    from the same uniforms, in O(runs) memory instead of the label matrix.
    """
    n, runs, rng = _seating(alpha, n, runs, seed)
    return _seat(alpha, n, runs, rng)


def expected_cluster_count(alpha, n):
    """Exact prior mean number of blocks: sum_{i=1}^{n} alpha/(alpha+i-1).

    Grows like alpha * log(n / alpha) for large n.
    """
    _require_positive("alpha", alpha)
    n = _require_count("n", n, 1)
    return math.fsum(alpha / (alpha + i) for i in range(n))
