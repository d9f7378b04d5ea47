"""Mixing measures and mixture models.

A mixing measure is a finite list of (weight, component) atoms sharing one
parametric family; a mixture model pairs the family tag with such a measure.
The mixture density is the weight-weighted sum of component densities, and
every label-free comparison of two measures goes through :func:`canonicalize`.

Mixture densities are computed here only: every other module (em, bayes,
modes, cli) builds the component matrix with :func:`log_weighted_densities`,
or, in the fit loops and for stacked prior draws or snapshots, with the kernel
it calls (:func:`_component_log_densities` on parameter arrays), and reduces
it across atoms with the order-invariant :func:`_logsumexp_into` (allocating
callers use its wrapper :func:`_logsumexp`).
"""

from __future__ import annotations

import contextvars
import dataclasses
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .components import FAMILIES, _logs, component_from_dict, validate_observations
from .errors import WEIGHT_SUM_TOL, DomainError, InvalidMeasureError, SpecDocumentError, _require_count
from .errors import _require_fields, _require_probabilities

# canonicalize(): atoms lighter than WEIGHT_EPS are dropped; atoms whose
# parameters agree within PARAM_EPS (absolute) are merged.
WEIGHT_EPS = 1e-12
PARAM_EPS = 1e-9


@dataclass(frozen=True)
class MixingMeasure:
    """Finite set of (weight, component) atoms with weights on the simplex."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if len(atoms) < 1:
            raise InvalidMeasureError("a mixing measure needs at least one atom")
        comps = [c for _, c in atoms]
        families = {c.family for c in comps}
        if len(families) > 1:
            raise InvalidMeasureError(f"atoms mix families: {sorted(families)}")
        weights = _require_probabilities("weights", [w for w, _ in atoms], InvalidMeasureError)
        object.__setattr__(self, "atoms", tuple(zip(weights, comps)))

    def __len__(self):
        return len(self.atoms)

    @property
    def G(self):
        return len(self.atoms)

    @property
    def family(self):
        return self.atoms[0][1].family

    @property
    def weights(self):
        return np.array([w for w, _ in self.atoms])

    @property
    def components(self):
        return tuple(c for _, c in self.atoms)


@dataclass(frozen=True)
class MixtureModel:
    """A component family tag paired with a mixing measure over it."""

    measure: MixingMeasure
    family: str = ""

    def __post_init__(self):
        derived = self.measure.family
        if self.family == "":
            object.__setattr__(self, "family", derived)
        elif self.family != derived:
            raise InvalidMeasureError(
                f"family {self.family!r} does not match measure atoms ({derived!r})"
            )

    @property
    def G(self):
        return self.measure.G


def permute(measure, perm):
    """Reorder atoms: position k of the result holds atom ``perm[k]`` (1-based)."""
    G = len(measure)
    perm = [_require_count("perm entry", p, 1) for p in perm]
    if sorted(perm) != list(range(1, G + 1)):
        raise DomainError(f"perm must be a bijection of 1..{G}")
    return MixingMeasure(tuple(measure.atoms[p - 1] for p in perm))


def canonicalize(measure):
    """Reduce a measure to its canonical form.

    Drops atoms below the weight threshold, merges atoms whose parameters
    coincide within ``PARAM_EPS``, sorts by the family's parameter order
    (mean then sd for Normals, rate for Poisson) and re-normalizes.  Two
    measures that represent the same mixing distribution canonicalize to
    equal objects, which is what makes label-free comparison possible.
    """
    kept = [(w, c) for w, c in measure.atoms if w >= WEIGHT_EPS]
    if not kept:
        raise InvalidMeasureError("every atom fell below the weight threshold")
    kept.sort(key=lambda atom: (atom[1].sort_key, atom[0]))
    merged = [list(kept[0])]
    for w, c in kept[1:]:
        head = merged[-1]
        if c.close_to(head[1], PARAM_EPS):
            head[0] += w
        else:
            merged.append([w, c])
    total = math.fsum(w for w, _ in merged)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        # only rescale when mass was actually dropped; an already valid
        # measure passes through bit for bit, so the map is idempotent
        merged = [(w / total, c) for w, c in merged]
    return MixingMeasure(tuple((w, c) for w, c in merged))


def density(model, y):
    """Mixture density at a single observation, summed in stored atom order.

    Uses compensated summation so the result depends only on the multiset of
    atoms, not on how they are ordered.
    """
    point = _one_observation(model, y, "density")[0]
    return math.fsum(w * float(c.density(point)) for w, c in model.measure.atoms)


def _one_observation(model, y, caller):
    """``y`` validated for the model's family; it must hold one observation."""
    arr = validate_observations(model.family, y)
    if arr.shape[0] != 1:
        raise DomainError(f"{caller} expects a single observation")
    return arr


def log_density(model, y):
    """log of :func:`density`, evaluated by log-sum-exp for stability."""
    arr = _one_observation(model, y, "log_density")
    return float(_logsumexp(log_weighted_densities(model, arr))[0])


# numpy's add.reduce sums a contiguous row of fewer than this many terms
# left to right from +0.0 (pairwise, with eight accumulators, beyond it), so
# below it a fold over the atom columns gives ndarray.sum(axis=-1) bit for bit.
_ROW_FOLD_LIMIT = 8


def _sort_atoms(terms):
    """Sort every row of ``terms`` in place along the last (atom) axis.

    Fewer than _ROW_FOLD_LIMIT atoms sort with an odd-even transposition
    network of np.minimum/np.maximum over the atom columns: G vectorised
    passes per round instead of one tiny sort per row, with the same sorted
    values np.sort gives.
    """
    G = terms.shape[-1]
    if G >= _ROW_FOLD_LIMIT:
        terms.sort(axis=-1)
        return
    low = np.empty_like(terms[..., 0])
    for start in range(G):
        for i in range(start % 2, G - 1, 2):
            left, right = terms[..., i], terms[..., i + 1]
            np.minimum(left, right, out=low)
            np.maximum(left, right, out=right)
            left[...] = low


def _atom_sum(terms, out=None):
    """``terms.sum(axis=-1)`` bit for bit, one pass per atom column below _ROW_FOLD_LIMIT."""
    G = terms.shape[-1]
    if G >= _ROW_FOLD_LIMIT:
        return np.add.reduce(np.ascontiguousarray(terms), axis=-1, out=out)
    total = np.add(terms[..., 0], 0.0, out=out)
    for g in range(1, G):
        total += terms[..., g]
    return total


def _logsumexp(a):
    """log(sum(exp(a))) over the last axis; a row of -inf gives -inf.

    The allocating form of :func:`_logsumexp_into`, for callers that keep
    ``a``.  A 1-D input (the prior-draw vector of the evidence, the G-range
    of the posterior over G) is reduced as one row.
    """
    if a.ndim == 1:
        return _logsumexp(a[None, :])[0]
    rows = a.shape[:-1]
    return _logsumexp_into(a, np.empty_like(a), np.empty(rows), np.empty(rows))


def _logsumexp_into(a, terms, shift, out):
    """The one log-sum-exp: ``out`` = log(sum(exp(a))) over the last axis.

    ``terms`` (shaped like ``a``, and ``a`` itself to work in place) receives
    the shifted exponentials, ``shift`` the row maxima, as scratch.  The
    exponentials are sorted before they are summed, so each result depends
    only on the multiset of its row: relabeling atoms cannot change a single
    bit.  One atom needs no sum (log(exp(0)) + a is a + 0.0, -inf and +inf
    included), and a sum of two terms does not depend on their order, so only
    three or more are sorted.  On the atom axis of a matrix the sort and the
    sum run over atom columns (see _sort_atoms, _atom_sum), which an
    atom-major matrix holds contiguously.
    """
    G = a.shape[-1]
    if G == 1:
        return np.add(a[..., 0], 0.0, out=out)
    np.max(a, axis=-1, out=shift)
    shift[~np.isfinite(shift)] = 0.0
    np.subtract(a, shift[..., None], out=terms)
    np.exp(terms, out=terms)
    if G > 2:
        _sort_atoms(terms)
    _atom_sum(terms, out=out)
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    out += shift
    return out


def _exact_sum(x):
    """``math.fsum(x.tolist())`` of a 1-D float64 array, bit for bit, in numpy.

    Error-free vector extraction (Rump, Ogita & Oishi 2008): with every
    |p_i| < 2^e and sigma = 2^(e + floor(log2 n) + 2), q = (p + sigma) - sigma
    rounds each entry to a multiple of ulp(sigma) / 2 no larger than 2^e, so
    q sums exactly in any order, and p - q is the exact remainder, at least
    50 - floor(log2 n) bits shorter.  The few exact partial sums then go to
    math.fsum, whose correctly rounded result is that of the whole array.
    Empty and non-finite input, the region where fsum's own partials could
    overflow, and a zero sum (whose sign fsum decides) go to math.fsum itself.
    """
    n = len(x)
    top = float(np.abs(x).max()) if n else 0.0
    if not 0.0 < top * n < 2.0**1000:
        return math.fsum(x.tolist())
    bits = n.bit_length() + 1
    partials = []
    p = x
    while top:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + bits)
        q = p + sigma
        q -= sigma
        partials.append(float(q.sum()))
        p = p - q
        top = float(np.abs(p, out=q).max())
    total = math.fsum(partials)
    return total if total else math.fsum(x.tolist())


def _measure_params(measure):
    """The family's parameter arrays of a measure, one per dataclass field, in atom order.

    Normal ``(mu[G], sigma[G])``, Poisson ``(lam[G],)``, bivariate Normal
    ``(mean[G, 2], cov[G, 2, 2])``: the form EM, hard EM and Gibbs iterate on.
    """
    comps = measure.components
    return tuple(np.array([getattr(c, f.name) for c in comps]) for f in dataclasses.fields(comps[0]))


def _measure_from_params(family, weights, params):
    """Validated MixingMeasure from weights and the family's parameter arrays."""
    cls = FAMILIES[family]
    comps = [cls(*(p[g] for p in params)) for g in range(len(weights))]
    return MixingMeasure(tuple(zip(weights.tolist(), comps)))


def _component_log_densities(family, params, arr, terms=None, out=None):
    """Unweighted matrix of log f(y_i | theta_g), shape (n, G), atom-major.

    The array-level kernel behind every mixture density: ``params`` are the
    family's parameter arrays (see _measure_params) and ``arr`` observations
    already validated for the family.  The family's rows (one per atom, the
    formulas of the component classes) are transposed into a Fortran-order
    matrix, so each atom's column is contiguous and every reduction across
    atoms runs as G vectorised passes.  ``terms`` is the family's
    per-observation term (its ``_observation_terms``, the Poisson log y!),
    when the caller has it; ``out`` is a (G, n) array for the rows, when the
    caller has one.
    """
    extra = () if terms is None else (terms,)
    with np.errstate(over="ignore", divide="ignore"):
        return FAMILIES[family]._log_density_rows(*params, arr, *extra, out=out).T


# _stacked_log_densities evaluates at most this many values per block: 512 KiB
# of float64.  With its shift and running-total rows (one atom needs no shift
# row) a block's workspace is at most 1 MiB per thread, inside the 4 MiB L2 of
# each core of the VM below.  Evidence for G=1..3 at n=1000 with 2000 draws,
# medians of 25 interleaved rounds on a 2-vCPU x86-64 VM, on one thread / two
# (the same bits at every size and thread count): 16,384 values 84 / 101 ms,
# 32,768 72 / 60, 65,536 67 / 45, 98,304 67 / 41, 131,072 69 / 40, 262,144
# 78 / 47.  Each block's Python holds the GIL, so small blocks keep two threads
# waiting on each other.  Two threads at this size raised the peak memory of the
# benchmark's `select-g` op by 0.7-0.9 MB over one; at 98,304 by 2.0-2.1 MB.
BLOCK_VALUES = 65_536

# The threads a _stacked_log_densities call spreads its blocks over: one per
# CPU this process may use, the calling thread included.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Every thread of a call, the calling one included, has at least this many
# blocks; a call with fewer stays on the calling thread.  Measured as above at
# G=3, one thread / two: 2 blocks 0.73 / 0.90 ms, 4 blocks 1.45 / 1.44, 8
# blocks 2.91 / 2.52, 16 blocks 5.92 / 4.65.
_BLOCKS_PER_WORKER = 4


def _stacked_log_densities(family, weights, params, arr, reduce, out):
    """``reduce(rows, out[block])`` of each block's (k, n) C-order log mixture
    densities of S parameter sets (``weights`` (S, G), each of ``params``
    (S, G, ...)) at ``arr``; returns ``out``.  Column g*k + s of a block's
    component matrix is atom g of set s, so the atom slices of the (G, k, n)
    block are contiguous.  The matrix and its shift and running-total rows
    share one workspace array per thread, allocated by the caller once per
    call, and every block is computed in place in it, so blocks after a
    thread's first touch no fresh pages.

    The blocks are spread over up to WORKERS threads: the calling thread and
    one ``threading.Thread`` per further worker, each taking the next block
    until none is left, all joined before the call returns.  Each block
    writes only its own slice of ``out`` and the block boundaries do not
    depend on the thread count, so a row-wise ``reduce`` gives the same bits
    whatever WORKERS and BLOCK_VALUES are.  An exception raised in a block
    reaches the caller: that of the lowest failing block, the one a single
    thread would have raised."""
    S, G = weights.shape
    n = len(arr)
    step = max(1, min(S, BLOCK_VALUES // max(G * n, 1)))
    starts = iter(range(0, S, step))
    taking = threading.Lock()
    failures = []

    def run(work):
        matrix, shift, total = work[:G].reshape(G * step, n), work[G], work[-1]
        while not failures:
            with taking:
                start = next(starts, None)
            if start is None:
                return
            try:
                w = weights[start : start + step]
                k = len(w)
                flat = [np.swapaxes(p[start : start + step], 0, 1).reshape(w.size, *p.shape[2:]) for p in params]
                L = _component_log_densities(family, flat, arr, out=matrix[: G * k]).T
                L += _logs(w.T.ravel())[:, None]
                atoms = np.moveaxis(L.reshape(G, k, n), 0, -1)
                reduce(_logsumexp_into(atoms, atoms, shift[:k], total[:k]), out[start : start + k])
            except BaseException as exc:
                failures.append((start, exc))

    workers = max(1, min(WORKERS, -(-S // step) // _BLOCKS_PER_WORKER))
    # one atom's log-sum-exp needs no shift row (see _logsumexp_into)
    works = [np.empty((G + min(G, 2), step, n)) for _ in range(workers)]
    threads = [threading.Thread(target=contextvars.copy_context().run, args=(run, work)) for work in works[1:]]
    for thread in threads:
        thread.start()
    run(works[0])
    for thread in threads:
        thread.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return out


def log_weighted_densities(model, data):
    """Matrix of log(eta_g) + log f(y_i | theta_g), shape (n, G), atom-major.

    The shared kernel of log_density, log_likelihood, the E-step, the
    predictive density, the density table and modes.
    """
    arr = validate_observations(model.family, data)
    measure = model.measure
    return _component_log_densities(model.family, _measure_params(measure), arr) + _logs(measure.weights)


def log_likelihood(model, data):
    """Sum over observations of the log mixture density.

    The sum is the correctly rounded exact one (see _exact_sum), so the order
    of the observations cannot change a bit.  The empty dataset has
    log-likelihood 0 by the empty-product convention; -inf is returned (not
    raised) when some observation has zero density.
    """
    arr = validate_observations(model.family, data)
    if arr.shape[0] == 0:
        return 0.0
    return _exact_sum(_logsumexp(log_weighted_densities(model, arr)))


def model_to_dict(model):
    return {
        "family": model.family,
        "atoms": [{"weight": w, **c.params_dict()} for w, c in model.measure.atoms],
    }


def model_from_dict(doc, context="model"):
    _require_fields(doc, ("family", "atoms"), context)
    family, atoms_doc = doc["family"], doc["atoms"]
    if family not in FAMILIES:
        raise SpecDocumentError(f"{context}: unknown family {family!r}")
    if not isinstance(atoms_doc, list) or not atoms_doc:
        raise SpecDocumentError(f"{context}: atoms must be a non-empty list")
    atoms = []
    for k, atom in enumerate(atoms_doc):
        if not isinstance(atom, dict) or "weight" not in atom:
            raise SpecDocumentError(f"{context}: atom {k} needs a weight field")
        params = {key: val for key, val in atom.items() if key != "weight"}
        comp = component_from_dict(family, params, context=f"{context}: atom {k}")
        atoms.append((atom["weight"], comp))
    try:
        return MixtureModel(MixingMeasure(tuple(atoms)))
    except InvalidMeasureError as exc:
        raise SpecDocumentError(f"{context}: {exc}") from exc

