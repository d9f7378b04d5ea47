import itertools
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln

import mixkit as mk
from mixkit.bayes import (
    _draw_from_log_weights,
    _loglik_of_draws,
    _posterior_coefficients,
    _predictive_densities,
    _prior_parameter_draws,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def flat_prior():
    return mk.ConjugatePrior(
        dirichlet_weights=(1.0, 1.0),
        normal_mean_loc=0.0,
        normal_mean_scale=10.0,
        ig_shape=2.0,
        ig_scale=4.0,
    )


def test_prior_validation():
    with pytest.raises(mk.DomainError):
        mk.ConjugatePrior((1.0,), 0.0, 0.0, 2.0, 1.0)
    with pytest.raises(mk.DomainError):
        mk.ConjugatePrior((1.0,), 0.0, 1.0, -2.0, 1.0)
    with pytest.raises(mk.DomainError):
        mk.ConjugatePrior((0.0, 1.0), 0.0, 1.0, 2.0, 1.0)
    with pytest.raises(mk.DomainError):
        mk.ConjugatePrior((), 0.0, 1.0, 2.0, 1.0)


def test_prior_mean_scale_maps_to_precision_factor():
    prior = mk.ConjugatePrior((1.0,), 0.0, 0.5, 2.0, 1.0)
    assert prior.kappa0 == pytest.approx(4.0)


def test_posterior_coefficients_hand_computed():
    # three observations 1, 2, 4 against loc 0, scale 1, shape 2, scale 1
    prior = mk.ConjugatePrior((1.0,), 0.0, 1.0, 2.0, 1.0)
    z = np.ones(3, dtype=np.int64)
    mn, kn, an, bn = (c[0] for c in _posterior_coefficients(prior, np.array([1.0, 2.0, 4.0]), z, np.array([3])))
    assert mn == pytest.approx(1.75, rel=1e-14)
    assert kn == pytest.approx(4.0, rel=1e-14)
    assert an == pytest.approx(3.5, rel=1e-14)
    assert bn == pytest.approx(5.375, rel=1e-14)


def test_posterior_coefficients_with_no_members_reduce_to_prior():
    prior = mk.ConjugatePrior((1.0,), 1.5, 2.0, 3.0, 4.0)
    # no data at all, and an empty first component beside a filled second
    for arr, z, counts in ((np.array([]), np.empty(0, dtype=np.int64), np.array([0])),
                           (np.array([3.0, -1.0]), np.array([2, 2]), np.array([0, 2]))):
        mn, kn, an, bn = (c[0] for c in _posterior_coefficients(prior, arr, z, counts))
        assert (mn, kn, an, bn) == (1.5, prior.kappa0, 3.0, 4.0)


def _parent_posterior_coefficients(prior, arr, z, counts):
    """The same update on G-length numpy arrays (the oracle)."""
    idx = z - 1
    ybar = np.bincount(idx, weights=arr, minlength=len(counts)) / np.maximum(counts, 1)
    dev = arr - ybar[idx]
    ss = np.bincount(idx, weights=dev * dev, minlength=len(counts))
    k0, m0 = prior.kappa0, prior.normal_mean_loc
    kn = k0 + counts
    mn = np.where(counts > 0, (k0 * m0 + counts * ybar) / kn, m0)
    bn = prior.ig_scale + 0.5 * ss + 0.5 * k0 * counts * (ybar - m0) ** 2 / kn
    an = prior.ig_shape + 0.5 * counts
    return mn, kn, an, bn


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 300), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.integers(0, 2**32 - 1))
def test_posterior_coefficients_on_floats_equal_the_array_update_bitwise(G, n, log_scale, log_kappa, seed):
    rng = np.random.default_rng(seed)
    prior = mk.ConjugatePrior((1.0,) * G, rng.normal(0.0, 10.0), 10.0 ** log_kappa, rng.uniform(0.1, 5.0),
                              rng.uniform(0.1, 5.0))
    arr = 10.0 ** log_scale * rng.standard_normal(n) + rng.normal(0.0, 100.0)
    z = rng.integers(1, rng.integers(1, G + 1) + 1, n)
    counts = np.bincount(z - 1, minlength=G)
    got = _posterior_coefficients(prior, arr, z, counts)
    want = _parent_posterior_coefficients(prior, arr, z, counts)
    assert [list(c) for c in got] == [c.tolist() for c in want]


def test_default_prior_centers_on_the_data():
    data = np.array([-2.0, 0.0, 6.0])
    prior = mk.default_prior(data, 3)
    assert prior.G == 3
    assert prior.normal_mean_loc == pytest.approx(2.0)
    assert prior.normal_mean_scale == pytest.approx(8.0)


@pytest.mark.parametrize("data", [[-1e308, 1e308], [1e308, 9e307], [-1e308, -9e307, 0.0],
                                  [1e308] * 200 + [-1e308] * 200])
def test_a_default_prior_on_data_whose_spread_overflows_raises_naming_the_data(data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(mk.DomainError, match="data"):
            mk.default_prior(data, 2)


def test_allocation_probabilities_equal_e_step(two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 200, 51).data
    r_em = mk.e_step(two_normal_separated, data)
    r_gibbs = mk.allocation_probabilities(two_normal_separated.measure, data)
    assert np.array_equal(r_em, r_gibbs)


def _allocation_draws(measure, data, seed):
    """1-based allocations drawn from the weighted log-densities, as a Gibbs sweep draws them."""
    L = mk.log_weighted_densities(mk.MixtureModel(measure), data)
    return _draw_from_log_weights(np.random.default_rng(seed), L)


def test_allocation_draws_follow_responsibilities(two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 4000, 53).data
    z = _allocation_draws(two_normal_separated.measure, data, 55)
    assert z.min() >= 1 and z.max() <= 2
    r = mk.e_step(two_normal_separated, data)
    assert abs((z == 1).mean() - r[:, 0].mean()) < 0.02
    assert np.array_equal(_allocation_draws(two_normal_separated.measure, data, 55), z)


def _parent_responsibilities(L):
    """The normalised responsibilities the allocation draw used to go through (the oracle)."""
    norm = mk.models._logsumexp(L)
    bad = np.flatnonzero(np.isneginf(norm))
    if bad.size:
        raise mk.DegeneratePointError(int(bad[0]))
    r = L - norm[:, None]
    np.exp(r, out=r)
    r /= mk.models._atom_sum(r)[:, None]
    return r


def _parent_draw_allocations(rng, r):
    """The running-sum draw on normalised rows, with its clamp (the oracle)."""
    G = r.shape[1]
    u = rng.random(len(r))
    cum = r[:, 0].copy()
    idx = (u >= cum).astype(np.int64)
    for g in range(1, G):
        cum += r[:, g]
        idx += u >= cum
    return np.minimum(idx, G - 1) + 1


@st.composite
def _log_weight_matrices(draw):
    """Atom-major (n, G) weighted log-densities on scales 1e-3 to 1e3, some
    entries -inf, never a row that is -inf throughout."""
    G, n = draw(st.integers(1, 8)), draw(st.integers(1, 500))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = np.asfortranarray(scale * rng.standard_normal((n, G)) + draw(st.floats(-50.0, 50.0)))
    L[rng.random((n, G)) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = -np.inf
    dead = np.flatnonzero(np.isneginf(L).all(axis=1))
    L[dead, rng.integers(0, G, dead.size)] = scale * rng.standard_normal(dead.size)
    return L, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(_log_weight_matrices())
def test_log_weight_draw_equals_the_normalised_draw_away_from_boundaries(case):
    L, seed = case
    r = _parent_responsibilities(L)
    old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _parent_draw_allocations(old_rng, r)
    got = _draw_from_log_weights(new_rng, L.copy())
    assert got.dtype == np.int64 and got.min() >= 1 and got.max() <= L.shape[1]
    assert np.isfinite(L[np.arange(len(L)), got - 1]).all()
    u = np.random.default_rng(seed).random(len(L))
    clear = (np.abs(u[:, None] - np.cumsum(r, axis=1)) > 1e-12).all(axis=1)
    assert np.array_equal(got[clear], want[clear])
    assert old_rng.bit_generator.state == new_rng.bit_generator.state


class _LargestUniform:
    """A generator stub whose every uniform is the largest double below 1."""

    def random(self, n):
        return np.full(n, 1.0 - 2.0**-53)


def test_a_component_of_zero_weight_is_never_drawn():
    # [0, x, -inf] rows: the normalised running sum can round below the
    # largest uniform, and the clamp then drew component 3 at zero weight
    x = np.random.default_rng(3).uniform(-5.0, 5.0, 20000)
    L = np.asfortranarray(np.column_stack([np.zeros_like(x), x, np.full_like(x, -np.inf)]))
    assert (_parent_draw_allocations(_LargestUniform(), _parent_responsibilities(L)) == 3).any()
    # the largest uniform picks the last component of positive weight
    assert (_draw_from_log_weights(_LargestUniform(), L) == 2).all()


@settings(max_examples=500, deadline=None)
@given(st.floats(1.0, 1e300))
def test_the_largest_uniform_scales_every_total_below_itself(total):
    assert (1.0 - 2.0**-53) * total < total


def test_allocation_frequencies_follow_e_step():
    model = mk.MixtureModel(mk.MixingMeasure((
        (0.3, mk.UnivariateNormal(2.0, 1.0)),
        (0.5, mk.UnivariateNormal(3.0, 0.5)),
        (0.2, mk.UnivariateNormal(3.4, 1.3)),
    )))
    points, reps = np.array([1.5, 2.8, 3.3, 5.0]), 40000
    z = _allocation_draws(model.measure, np.repeat(points, reps), 81).reshape(len(points), reps)
    r = mk.e_step(model, points)
    for row, probs in zip(z, r):
        observed = np.bincount(row - 1, minlength=3)
        assert stats.chisquare(observed, reps * probs).pvalue > 0.01


@pytest.mark.parametrize("data", [[0.0, 5.0, 1.0, 7.0], [9.0, 0.0], [0.0, 1.0, 0.5, 3.0, -2.0]])
def test_degenerate_point_is_the_one_e_step_reports(data):
    # sigma 1e-160: the squared z-score of a point 0.5 or more away overflows,
    # so its log-density is -inf under both components
    measure = mk.MixingMeasure(((0.5, mk.UnivariateNormal(0.0, 1e-160)), (0.5, mk.UnivariateNormal(1.0, 1e-160))))
    with pytest.raises(mk.DegeneratePointError) as want:
        _parent_responsibilities(mk.log_weighted_densities(mk.MixtureModel(measure), data))
    with pytest.raises(mk.DegeneratePointError) as via_e_step:
        mk.e_step(mk.MixtureModel(measure), data)
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(mk.DegeneratePointError) as got:
        _draw_from_log_weights(rng, mk.log_weighted_densities(mk.MixtureModel(measure), data))
    assert got.value.index == want.value.index == via_e_step.value.index
    assert rng.bit_generator.state == before


def test_allocation_draws_are_the_draws_of_a_sweep(flat_prior, two_normal_separated):
    from mixkit.bayes import GibbsState

    data = mk.sample_mixture(two_normal_separated, 300, 83).data
    measure = mk.prior_draw(flat_prior, 5)
    z = _allocation_draws(measure, data, 85)
    state = GibbsState(z=np.ones(len(data), dtype=np.int64), measure=measure, iteration=0)
    assert np.array_equal(mk.gibbs_sweep(state, data, flat_prior, np.random.default_rng(85)).z, z)


def test_prior_draw_structure(flat_prior):
    measure = mk.prior_draw(flat_prior, 3)
    assert measure.G == 2
    assert measure.family == "normal"
    assert math.fsum(measure.weights) == pytest.approx(1.0, abs=1e-12)


def test_gibbs_sweep_advances_iteration(flat_prior, two_normal_separated):
    from mixkit.bayes import GibbsState

    data = mk.sample_mixture(two_normal_separated, 100, 59).data
    state = GibbsState(z=np.ones(100, dtype=np.int64), measure=mk.prior_draw(flat_prior, 1), iteration=0)
    nxt = mk.gibbs_sweep(state, data, flat_prior, 2)
    assert nxt.iteration == 1
    assert nxt.measure.G == 2
    assert sorted(set(nxt.z)) in ([1], [2], [1, 2])


def test_gibbs_handles_empty_components(flat_prior):
    # both observations will sit in one component; the other draws from the prior
    data = np.array([0.0, 0.1])
    post = mk.run_gibbs(data, 2, flat_prior, mk.GibbsConfig(burn_in=10, n_samples=20, seed=7))
    assert len(post) == 20


def test_run_gibbs_shapes_and_determinism(flat_prior, two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 150, 61).data
    config = mk.GibbsConfig(burn_in=20, n_samples=30, thin=2, seed=9)
    a = mk.run_gibbs(data, 2, flat_prior, config)
    b = mk.run_gibbs(data, 2, flat_prior, config)
    assert len(a) == 30
    assert a.snapshots[0].iteration == 22
    assert a.snapshots[-1].iteration == 80
    assert all(s.measure == t.measure for s, t in zip(a.snapshots, b.snapshots))


def test_run_gibbs_recovers_separated_means(two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 800, 63).data
    prior = mk.default_prior(data, 2)
    post = mk.run_gibbs(data, 2, prior, mk.GibbsConfig(burn_in=200, n_samples=400, seed=11))
    mus = np.array(sorted(np.concatenate([[c.mu for c in s.measure.components] for s in post.snapshots])))
    lo, hi = np.array_split(np.sort(mus), 2)
    assert np.median(lo) == pytest.approx(-3.0, abs=0.3)
    assert np.median(hi) == pytest.approx(3.0, abs=0.3)


def test_gibbs_requires_matching_prior_size(flat_prior):
    with pytest.raises(mk.DomainError):
        mk.run_gibbs(np.array([1.0, 2.0]), 3, flat_prior, mk.GibbsConfig(burn_in=1, n_samples=1))


@pytest.mark.parametrize("field, value", [("burn_in", 1.5), ("n_samples", 2.5), ("thin", 1.5)])
def test_gibbs_config_counts_must_be_integers(field, value):
    with pytest.raises(mk.DomainError, match=field):
        mk.GibbsConfig(**{field: value})
    assert getattr(mk.GibbsConfig(**{field: np.int32(2)}), field) == 2


def test_evidence_config_draw_count_must_be_an_integer():
    with pytest.raises(mk.DomainError, match="n_prior_draws"):
        mk.EvidenceConfig(n_prior_draws=1000.5)
    with pytest.raises(mk.DomainError, match="n_prior_draws"):
        mk.EvidenceConfig(n_prior_draws=2000.0)
    assert mk.EvidenceConfig(n_prior_draws=np.int64(1000)).n_prior_draws == 1000


def test_param_region_membership():
    region = mk.ParamRegion(mu_min=0.0, sigma_max=2.0)
    assert region.contains(mk.UnivariateNormal(1.0, 1.0))
    assert not region.contains(mk.UnivariateNormal(-1.0, 1.0))
    assert not region.contains(mk.UnivariateNormal(1.0, 3.0))
    with pytest.raises(mk.DomainError):
        mk.ParamRegion(mu_min=1.0, mu_max=0.0)


def test_summaries_are_label_invariant(flat_prior, two_normal_separated):
    # G=3 as well: any two-term sum commutes, so G=2 alone cannot catch a
    # reduction across atoms that depends on their order
    data = mk.sample_mixture(two_normal_separated, 150, 67).data
    three = mk.ConjugatePrior((1.0, 1.0, 1.0), 0.0, 10.0, 2.0, 4.0)
    functionals = (
        mk.AtomCountInSet(mk.ParamRegion(mu_min=0.0)),
        mk.TotalWeightInSet(mk.ParamRegion(mu_min=0.0)),
        mk.WeightOfLargestVarianceComponent(),
        mk.PredictiveDensityAt((0.0, 1.0)),
    )
    from mixkit.bayes import _evaluate_functional

    for G, prior in ((2, flat_prior), (3, three)):
        post = mk.run_gibbs(data, G, prior, mk.GibbsConfig(burn_in=20, n_samples=50, seed=13))
        for fn in functionals:
            for snap in post.snapshots[:10]:
                direct = _evaluate_functional(fn, snap.measure)
                for perm in itertools.permutations(range(1, G + 1)):
                    flipped = _evaluate_functional(fn, mk.permute(snap.measure, perm))
                    assert np.array_equal(np.asarray(direct), np.asarray(flipped))


def test_summarize_H_on_a_known_chain(flat_prior, two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 400, 69).data
    prior = mk.default_prior(data, 2)
    post = mk.run_gibbs(data, 2, prior, mk.GibbsConfig(burn_in=100, n_samples=300, seed=15))
    weight_pos = mk.summarize_H(post, mk.TotalWeightInSet(mk.ParamRegion(mu_min=0.0)))
    assert weight_pos.values.shape == (300,)
    assert float(weight_pos.mean) == pytest.approx(0.5, abs=0.08)
    assert set(weight_pos.quantiles) == {"2.5%", "25%", "50%", "75%", "97.5%"}
    assert weight_pos.quantiles["2.5%"] <= weight_pos.quantiles["97.5%"]

    pred = mk.summarize_H(post, mk.PredictiveDensityAt((-3.0, 0.0, 3.0)))
    assert pred.mean.shape == (3,)
    want = [mk.density(two_normal_separated, y) for y in (-3.0, 0.0, 3.0)]
    assert np.allclose(pred.mean, want, atol=0.03)


def test_summarize_H_rejects_empty_sample(flat_prior):
    sample = mk.PosteriorSample(snapshots=(), seed=0, config=mk.GibbsConfig())
    with pytest.raises(mk.DomainError):
        mk.summarize_H(sample, mk.WeightOfLargestVarianceComponent())


def nig_log_evidence(y, prior):
    """Closed-form single-component marginal likelihood, used as an oracle."""
    n = len(y)
    k0, m0 = prior.kappa0, prior.normal_mean_loc
    a0, b0 = prior.ig_shape, prior.ig_scale
    kn = k0 + n
    ybar = float(np.mean(y))
    ss = float(np.sum((y - ybar) ** 2))
    bn = b0 + 0.5 * ss + 0.5 * k0 * n * (ybar - m0) ** 2 / kn
    an = a0 + 0.5 * n
    return (
        -0.5 * n * math.log(2.0 * math.pi)
        + 0.5 * (math.log(k0) - math.log(kn))
        + gammaln(an)
        - gammaln(a0)
        + a0 * math.log(b0)
        - an * math.log(bn)
    )


def test_log_marginal_likelihood_matches_closed_form():
    rng = np.random.default_rng(71)
    data = rng.normal(1.0, 2.0, size=40)
    prior = mk.default_prior(data, 1)
    exact = nig_log_evidence(data, prior)
    est = mk.log_marginal_likelihood(data, 1, prior, mk.EvidenceConfig(n_prior_draws=200000, seed=3))
    assert not est.underflowed
    assert est.log_value == pytest.approx(exact, abs=4.0 * max(est.log_se, 0.005))


def test_log_marginal_likelihood_empty_data(flat_prior):
    est = mk.log_marginal_likelihood(np.array([]), 2, flat_prior, mk.EvidenceConfig(seed=1))
    assert est.log_value == 0.0


def test_evidence_config_floor():
    with pytest.raises(mk.DomainError):
        mk.EvidenceConfig(n_prior_draws=10)


def test_combine_log_marginals_hand_computed():
    post = mk.combine_log_marginals([math.log(2.0), 0.0], (0.5, 0.5))
    assert post[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert post[1] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert math.fsum(post.tolist()) == pytest.approx(1.0, abs=1e-12)


def test_combine_log_marginals_validation():
    with pytest.raises(mk.DomainError):
        mk.combine_log_marginals([0.0, 0.0], (0.4, 0.4))
    with pytest.raises(mk.DomainError):
        mk.combine_log_marginals([0.0], (0.5, 0.5))


def test_combine_log_marginals_rejects_all_neginf_evidence():
    # every size underflowed, or the only finite size has prior mass 0:
    # the posterior is undefined and must not come back as NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(mk.DomainError):
            mk.combine_log_marginals([-math.inf, -math.inf], (0.5, 0.5))
        with pytest.raises(mk.DomainError):
            mk.combine_log_marginals([-3.0, -math.inf], (0.0, 1.0))
        post = mk.combine_log_marginals([-3.0, -math.inf], (0.5, 0.5))
    assert post.tolist() == [1.0, 0.0]


@pytest.fixture
def evidence_draws():
    """n=667, G=3, 2000 prior draws: the size at which 4M-value chunks left
    the last draw alone in a block."""
    data = mk.validate_observations("normal", np.random.default_rng(81).normal(0.0, 2.0, 667))
    prior = mk.default_prior(data, 3)
    return data, prior, _prior_parameter_draws(prior, np.random.default_rng(82), 2000)


def test_per_draw_loglik_does_not_depend_on_blocks(evidence_draws, monkeypatch):
    data, prior, (etas, mus, sigmas) = evidence_draws
    batch = _loglik_of_draws(data, etas, mus, sigmas)
    one_by_one = [_loglik_of_draws(data, etas[s : s + 1], mus[s : s + 1], sigmas[s : s + 1])[0]
                  for s in range(len(etas))]
    assert np.array_equal(batch, one_by_one)
    config = mk.EvidenceConfig(n_prior_draws=2000, seed=83)
    results = []
    for block_values in (1, 10**12):
        monkeypatch.setattr(mk.models, "BLOCK_VALUES", block_values)
        results.append(mk.log_marginal_likelihood(data, 3, prior, config))
    assert results[0] == results[1]


def _stacked_calls(data, draws):
    """Both reduces of the stacked kernel on one set of draws, as calls: the
    evidence's per-draw log-likelihoods and the predictive's densities at ``data``."""
    etas, mus, sigmas = draws
    measures = [mk.MixingMeasure(tuple(zip(w.tolist(), map(mk.UnivariateNormal, m, sd))))
                for w, m, sd in zip(etas, mus, sigmas)]
    return lambda: _loglik_of_draws(data, etas, mus, sigmas), lambda: _predictive_densities(measures, data)


def _stacked_reduces(data, draws):
    return tuple(call() for call in _stacked_calls(data, draws))


@pytest.mark.parametrize("G", [1, 2, 3])
def test_stacked_workspace_gives_the_same_bits_for_every_block_size(G, monkeypatch):
    # 500 draws at 300 points: the default size makes several blocks with a
    # short last one, and 10,000 values a short last block at every G
    data = mk.validate_observations("normal", np.random.default_rng(90 + G).normal(0.0, 2.0, 300))
    draws = _prior_parameter_draws(mk.default_prior(data, G), np.random.default_rng(95), 500)
    kept = [a.copy() for a in (data, *draws)]
    default = mk.models.BLOCK_VALUES
    assert 500 % (default // (G * 300)) and 500 % (10_000 // (G * 300))
    results = []
    for block_values in (1, 10_000, default, default, 10**12):
        monkeypatch.setattr(mk.models, "BLOCK_VALUES", block_values)
        results.append(_stacked_reduces(data, draws))
    for lls, densities in results[1:]:
        assert lls.tobytes() == results[0][0].tobytes()
        assert densities.tobytes() == results[0][1].tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(kept, (data, *draws)))


def _block_threads(monkeypatch, workers=1):
    """The identities of the threads that reduce a block, gathered by wrapping
    the kernel's log-sum-exp, which every block calls once.  Each thread's
    first block waits until ``workers`` threads have one, so every thread
    the call starts takes a block (or the wait times out).  One call per
    wrapping: a later call's threads may reuse the identities seen."""
    seen = set()
    arrived = threading.Barrier(workers, timeout=30)
    lse = getattr(mk.models._logsumexp_into, "__wrapped__", mk.models._logsumexp_into)

    def recording(*args):
        if threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            arrived.wait()
        return lse(*args)

    recording.__wrapped__ = lse
    monkeypatch.setattr(mk.models, "_logsumexp_into", recording)
    return seen


@pytest.mark.parametrize("G", [1, 3])
def test_stacked_blocks_give_the_same_bits_on_every_worker_count(G, monkeypatch):
    # every worker takes blocks, however few (_BLOCKS_PER_WORKER at 1)
    data = mk.validate_observations("normal", np.random.default_rng(90 + G).normal(0.0, 2.0, 300))
    draws = _prior_parameter_draws(mk.default_prior(data, G), np.random.default_rng(95), 500)
    monkeypatch.setattr(mk.models, "_BLOCKS_PER_WORKER", 1)
    calls = _stacked_calls(data, draws)
    want = None
    for block_values, workers in itertools.product((1, 10_000, mk.models.BLOCK_VALUES), (1, 2, 3)):
        monkeypatch.setattr(mk.models, "BLOCK_VALUES", block_values)
        monkeypatch.setattr(mk.models, "WORKERS", workers)
        got = []
        for call in calls:
            seen = _block_threads(monkeypatch, workers)
            before = threading.active_count()
            got.append(call().tobytes())
            assert threading.active_count() == before
            assert len(seen) == workers
        assert want is None or got == want, (block_values, workers)
        want = got


def test_every_block_is_taken_once_by_more_threads_than_cpus(monkeypatch):
    # the threads share the next-block counter: a block taken twice or never
    # shows in the starts the reduce sees
    data = mk.validate_observations("normal", np.random.default_rng(7).normal(0.0, 2.0, 50))
    etas, mus, sigmas = _prior_parameter_draws(mk.default_prior(data, 2), np.random.default_rng(8), 600)
    monkeypatch.setattr(mk.models, "WORKERS", 1)
    want = _loglik_of_draws(data, etas, mus, sigmas)
    out = np.empty(len(etas))
    starts = []

    def reduce(rows, dst):
        starts.append((dst.ctypes.data - out.ctypes.data) // out.itemsize)
        rows.sum(axis=-1, out=dst)

    monkeypatch.setattr(mk.models, "_BLOCKS_PER_WORKER", 1)
    monkeypatch.setattr(mk.models, "WORKERS", 4 * os.cpu_count())
    monkeypatch.setattr(mk.models, "BLOCK_VALUES", 3 * 2 * 50)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            starts.clear()
            mk.models._stacked_log_densities("normal", etas, (mus, sigmas), data, reduce, out)
            assert sorted(starts) == list(range(0, 600, 3))
            assert out.tobytes() == want.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_a_failing_block_raises_the_error_a_single_thread_would(monkeypatch):
    # blocks starting at draw 120 or later fail; whichever thread meets one
    # first, the caller gets the failure of the lowest failing block, and no
    # thread is left running
    data = mk.validate_observations("normal", np.random.default_rng(7).normal(0.0, 2.0, 100))
    etas, mus, sigmas = _prior_parameter_draws(mk.default_prior(data, 2), np.random.default_rng(8), 400)
    out = np.empty(len(etas))

    def reduce(rows, dst):
        start = (dst.ctypes.data - out.ctypes.data) // out.itemsize
        if start >= 120:
            raise ArithmeticError(start)
        rows.sum(axis=-1, out=dst)

    monkeypatch.setattr(mk.models, "_BLOCKS_PER_WORKER", 1)
    monkeypatch.setattr(mk.models, "WORKERS", 2)
    for step in (1, 10, 100, 110):
        monkeypatch.setattr(mk.models, "BLOCK_VALUES", step * 2 * 100)
        before = threading.active_count()
        with pytest.raises(ArithmeticError) as info:
            mk.models._stacked_log_densities("normal", etas, (mus, sigmas), data, reduce, out)
        assert info.value.args == (-(-120 // step) * step,)
        assert threading.active_count() == before


def test_an_error_in_a_further_thread_reaches_the_caller(monkeypatch):
    data = mk.validate_observations("normal", np.random.default_rng(7).normal(0.0, 2.0, 100))
    etas, mus, sigmas = _prior_parameter_draws(mk.default_prior(data, 2), np.random.default_rng(8), 400)

    def reduce(rows, dst):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("in a further thread")
        rows.sum(axis=-1, out=dst)

    monkeypatch.setattr(mk.models, "_BLOCKS_PER_WORKER", 1)
    monkeypatch.setattr(mk.models, "WORKERS", 2)
    monkeypatch.setattr(mk.models, "BLOCK_VALUES", 200)
    _block_threads(monkeypatch, 2)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="in a further thread"):
        mk.models._stacked_log_densities("normal", etas, (mus, sigmas), data, reduce, np.empty(len(etas)))
    assert threading.active_count() == before


def test_further_threads_run_under_the_callers_numpy_error_state(monkeypatch):
    # numpy's error state is a context variable: a thread started bare would
    # warn where the caller asked for an error
    data = mk.validate_observations("normal", np.random.default_rng(7).normal(0.0, 2.0, 100))
    etas, mus, sigmas = _prior_parameter_draws(mk.default_prior(data, 2), np.random.default_rng(8), 400)

    def reduce(rows, dst):
        rows.sum(axis=-1, out=dst)
        if threading.current_thread() is not threading.main_thread():
            np.exp(np.full(1, 1000.0))

    monkeypatch.setattr(mk.models, "_BLOCKS_PER_WORKER", 1)
    monkeypatch.setattr(mk.models, "WORKERS", 2)
    monkeypatch.setattr(mk.models, "BLOCK_VALUES", 200)
    seen = _block_threads(monkeypatch, 2)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        mk.models._stacked_log_densities("normal", etas, (mus, sigmas), data, reduce, np.empty(len(etas)))
    assert len(seen) == 2


def test_a_call_of_few_blocks_stays_on_the_calling_thread(monkeypatch):
    # the Gibbs predictive's handful of blocks: a further thread would cost
    # more than it saves
    data = mk.validate_observations("normal", np.random.default_rng(7).normal(0.0, 2.0, 100))
    step = mk.models.BLOCK_VALUES // (2 * 100)
    monkeypatch.setattr(mk.models, "WORKERS", 2)
    least = 2 * mk.models._BLOCKS_PER_WORKER
    for blocks, threads in ((1, 1), (least - 1, 1), (least, 2)):
        draws = _prior_parameter_draws(mk.default_prior(data, 2), np.random.default_rng(8), blocks * step)
        seen = _block_threads(monkeypatch, threads)
        _loglik_of_draws(data, *draws)
        assert len(seen) == threads


# minor page faults of one _loglik_of_draws call at n=1000, with 1000 and then
# 8000 prior draws, in a fresh interpreter (the allocator's history decides
# whether freed memory goes back to the kernel, so it must not depend on the
# tests run before); prints the second count minus the first
_FAULT_PROBE = """
import resource, sys
import numpy as np
import mixkit as mk
from mixkit.bayes import _loglik_of_draws, _prior_parameter_draws
data = mk.validate_observations("normal", np.random.default_rng(97).normal(0.0, 2.0, 1000))
prior = mk.default_prior(data, int(sys.argv[1]))
counts = []
for m in (1000, 8000):
    draws = _prior_parameter_draws(prior, np.random.default_rng(98), m)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _loglik_of_draws(data, *draws)
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(counts[1] - counts[0])
"""


@pytest.mark.parametrize("G", [1, 3])
def test_evidence_blocks_add_no_page_faults_with_more_draws(G):
    # the blocks of one call reuse one workspace, so eight times the draws
    # must not fault in fresh pages block after block (a fresh workspace per
    # block added over 30,000 minor faults)
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE, str(G)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert int(proc.stdout) < 256


def test_per_draw_loglik_ignores_atom_order(evidence_draws):
    data, _, (etas, mus, sigmas) = evidence_draws
    perm = np.argsort(np.random.default_rng(84).random(etas.shape), axis=1)
    permuted = [np.take_along_axis(p, perm, axis=1) for p in (etas, mus, sigmas)]
    assert not np.array_equal(permuted[1], mus)
    assert np.array_equal(_loglik_of_draws(data, *permuted), _loglik_of_draws(data, etas, mus, sigmas))


def test_per_draw_loglik_matches_public_log_likelihood(evidence_draws):
    data, _, (etas, mus, sigmas) = evidence_draws
    lls = _loglik_of_draws(data, etas, mus, sigmas)
    for s in range(0, len(etas), 40):
        comps = [mk.UnivariateNormal(m, sd) for m, sd in zip(mus[s], sigmas[s])]
        model = mk.MixtureModel(mk.MixingMeasure(tuple(zip(etas[s].tolist(), comps))))
        assert lls[s] == pytest.approx(mk.log_likelihood(model, data), rel=1e-12)


def test_posterior_over_G_prefers_the_truth(two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 300, 73).data
    post = mk.posterior_over_G(
        data,
        (1, 2),
        lambda G: mk.default_prior(data, G),
        (0.5, 0.5),
        mk.EvidenceConfig(n_prior_draws=20000, seed=5),
    )
    assert math.fsum(post.tolist()) == pytest.approx(1.0, abs=1e-12)
    assert post[1] > 0.9


def test_run_gibbs_chain_equals_repeated_public_sweeps(two_normal_separated):
    from mixkit.bayes import GibbsState

    data = mk.sample_mixture(two_normal_separated, 300, 75).data
    prior = mk.ConjugatePrior((1.0, 1.0, 1.0), 0.0, 10.0, 2.0, 4.0)
    config = mk.GibbsConfig(burn_in=15, n_samples=20, thin=2, seed=21)
    post = mk.run_gibbs(data, 3, prior, config)
    rng = np.random.default_rng(config.seed)
    start = mk.prior_draw(prior, rng)
    state = GibbsState(z=np.ones(len(data), dtype=np.int64), measure=start, iteration=0)
    kept = []
    for sweep in range(1, config.burn_in + config.n_samples * config.thin + 1):
        state = mk.gibbs_sweep(state, data, prior, rng)
        if sweep > config.burn_in and (sweep - config.burn_in) % config.thin == 0:
            kept.append(state)
    assert len(kept) == len(post)
    for a, b in zip(post.snapshots, kept):
        assert a.iteration == b.iteration
        assert a.measure == b.measure
        assert np.array_equal(a.z, b.z)


def test_batched_predictive_equals_per_snapshot_bitwise(two_normal_separated):
    from mixkit.bayes import _evaluate_functional

    data = mk.sample_mixture(two_normal_separated, 200, 77).data
    prior = mk.default_prior(data, 3)
    post = mk.run_gibbs(data, 3, prior, mk.GibbsConfig(burn_in=20, n_samples=40, seed=3))
    fn = mk.PredictiveDensityAt(tuple(np.linspace(-6.0, 6.0, 33)))
    per_snapshot = np.array([_evaluate_functional(fn, s.measure) for s in post.snapshots])
    for s in post.snapshots[:5]:
        L = mk.log_weighted_densities(mk.MixtureModel(s.measure), fn.points)
        direct = np.exp(mk.models._logsumexp(L))
        assert np.array_equal(_evaluate_functional(fn, s.measure), direct)
    assert np.array_equal(mk.summarize_H(post, fn).values, per_snapshot)


def test_evidence_reports_kish_effective_sample_size(flat_prior):
    config = mk.EvidenceConfig(n_prior_draws=2000, seed=4)
    few = mk.log_marginal_likelihood(np.array([0.3, -0.2]), 2, flat_prior, config)
    many = mk.log_marginal_likelihood(np.linspace(-2.0, 2.0, 400), 2, flat_prior, config)
    for est in (few, many):
        # sum w^2 <= max w * sum w, so (sum w)^2 / sum w^2 lies between
        # 1 / (max w / sum w) >= 1 and the draw count
        assert 1.0 <= 1.0 / est.max_weight_share <= est.ess * (1.0 + 1e-12)
        assert est.ess <= 2000 * (1.0 + 1e-12)
    assert few.ess > many.ess
    empty = mk.log_marginal_likelihood(np.array([]), 2, flat_prior, config)
    assert empty.ess == 2000 and empty.max_weight_share == 1.0 / 2000
