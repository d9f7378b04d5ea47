import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

import mixkit as mk
from mixkit.bayes import _loglik_of_draws, _posterior_coefficients, _prior_parameter_draws


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
    mn, kn, an, bn = _posterior_coefficients(prior, np.array([1.0, 2.0, 4.0]))
    assert mn == pytest.approx(1.75, rel=1e-14)
    assert kn == pytest.approx(4.0, rel=1e-14)
    assert an == pytest.approx(3.5, rel=1e-14)
    assert bn == pytest.approx(5.375, rel=1e-14)


def test_posterior_coefficients_with_no_members_reduce_to_prior():
    prior = mk.ConjugatePrior((1.0,), 1.5, 2.0, 3.0, 4.0)
    mn, kn, an, bn = _posterior_coefficients(prior, np.array([]))
    assert (mn, kn, an, bn) == (1.5, prior.kappa0, 3.0, 4.0)


def test_default_prior_centers_on_the_data():
    data = np.array([-2.0, 0.0, 6.0])
    prior = mk.default_prior(data, 3)
    assert prior.G == 3
    assert prior.normal_mean_loc == pytest.approx(2.0)
    assert prior.normal_mean_scale == pytest.approx(8.0)


def test_allocation_probabilities_equal_e_step(two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 200, 51).data
    r_em = mk.e_step(two_normal_separated, data)
    r_gibbs = mk.allocation_probabilities(two_normal_separated.measure, data)
    assert np.array_equal(r_em, r_gibbs)


def test_gibbs_allocations_follow_responsibilities(two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 4000, 53).data
    z = mk.gibbs_allocations(two_normal_separated.measure, data, 55)
    assert z.min() >= 1 and z.max() <= 2
    r = mk.e_step(two_normal_separated, data)
    assert abs((z == 1).mean() - r[:, 0].mean()) < 0.02


def test_gibbs_allocations_reproducible(two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 100, 57).data
    a = mk.gibbs_allocations(two_normal_separated.measure, data, 5)
    b = mk.gibbs_allocations(two_normal_separated.measure, data, 5)
    assert np.array_equal(a, b)


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
