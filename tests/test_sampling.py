import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import mixkit as mk


def mixture_cdf(model, y):
    """Exact cdf of a univariate Normal mixture at ``y``: the oracle of the sampler tests."""
    return math.fsum(w * norm.cdf((y - c.mu) / c.sigma) for w, c in model.measure.atoms)


def test_sample_mixture_is_reproducible(two_normal_separated):
    a = mk.sample_mixture(two_normal_separated, 100, 42)
    b = mk.sample_mixture(two_normal_separated, 100, 42)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.z, b.z)
    c = mk.sample_mixture(two_normal_separated, 100, 43)
    assert not np.array_equal(a.data, c.data)


def test_sample_mixture_labels_are_one_based_and_consistent(two_normal_separated):
    s = mk.sample_mixture(two_normal_separated, 500, 7)
    assert s.z.min() >= 1 and s.z.max() <= 2
    # components are 6 sigma apart, so the sign of y identifies the label
    assert all((z == 1) == (y < 0) for y, z in zip(s.data, s.z))


def test_sample_mixture_label_frequencies(two_normal_separated):
    s = mk.sample_mixture(two_normal_separated, 20000, 3)
    assert abs((s.z == 1).mean() - 0.5) < 0.02


def test_sample_mixture_empty_and_negative(two_normal_separated):
    s = mk.sample_mixture(two_normal_separated, 0, 1)
    assert s.data.shape == (0,) and s.z.shape == (0,)
    with pytest.raises(mk.DomainError):
        mk.sample_mixture(two_normal_separated, -1, 1)


def test_sample_mixture_bivariate_shape(two_bivariate):
    s = mk.sample_mixture(two_bivariate, 2000, 5)
    assert s.data.shape == (2000, 2)
    members = s.data[s.z == 1]
    assert abs(np.corrcoef(members.T)[0, 1] - 0.3) < 0.1


def test_sample_mixture_poisson_dtype(two_poisson):
    s = mk.sample_mixture(two_poisson, 50, 9)
    assert s.data.dtype.kind == "i"
    assert s.data.min() >= 0


@pytest.mark.parametrize("lam", [9.3e18, 1e19, 1e300])
def test_a_poisson_rate_numpy_cannot_sample_raises_naming_lam(lam):
    # the rate is a valid component (its pmf is tabulated); only drawing from it fails
    huge = mk.Poisson(lam)
    model = mk.MixtureModel(mk.MixingMeasure(((0.5, mk.Poisson(4.0)), (0.5, huge))))
    with pytest.raises(mk.DomainError, match="lam"):
        mk.sample_mixture(model, 20, 1)
    spec = mk.HMMSpec(initial=(0.0, 1.0), xi=((0.5, 0.5), (0.5, 0.5)), components=(mk.Poisson(4.0), huge))
    with pytest.raises(mk.DomainError, match="lam"):
        mk.sample_hmm(spec, 20, 1)


def test_hmm_spec_validation():
    comps = (mk.UnivariateNormal(0.0, 1.0), mk.UnivariateNormal(5.0, 1.0))
    with pytest.raises(mk.DomainError):
        mk.HMMSpec(initial=(0.7, 0.2), xi=((0.9, 0.1), (0.2, 0.8)), components=comps)
    with pytest.raises(mk.DomainError):
        mk.HMMSpec(initial=(0.5, 0.5), xi=((0.9, 0.2), (0.2, 0.8)), components=comps)
    with pytest.raises(mk.DomainError):
        mk.HMMSpec(initial=(0.5, 0.5), xi=((0.9, 0.1), (0.2, 0.8)), components=comps[:1])


def test_hmm_transition_counts_match_matrix():
    spec = mk.HMMSpec(
        initial=(0.5, 0.5),
        xi=((0.9, 0.1), (0.2, 0.8)),
        components=(mk.UnivariateNormal(0.0, 1.0), mk.UnivariateNormal(8.0, 1.0)),
    )
    states, obs = mk.sample_hmm(spec, 40000, 11)
    assert states.min() >= 1 and states.max() <= 2
    assert obs.shape == (40000,)
    stay = [(states[1:] == s)[states[:-1] == s].mean() for s in (1, 2)]
    assert stay[0] == pytest.approx(0.9, abs=0.01)
    assert stay[1] == pytest.approx(0.8, abs=0.01)


def test_hmm_occupancy_matches_stationary_law():
    # stationary point of this chain puts mass 2/3 on state 1
    spec = mk.HMMSpec(
        initial=(2.0 / 3.0, 1.0 / 3.0),
        xi=((0.9, 0.1), (0.2, 0.8)),
        components=(mk.UnivariateNormal(0.0, 1.0), mk.UnivariateNormal(8.0, 1.0)),
    )
    states, _ = mk.sample_hmm(spec, 60000, 13)
    assert abs((states == 1).mean() - 2.0 / 3.0) < 0.02


def test_hmm_emissions_follow_states():
    spec = mk.HMMSpec(
        initial=(0.5, 0.5),
        xi=((0.5, 0.5), (0.5, 0.5)),
        components=(mk.UnivariateNormal(0.0, 1.0), mk.UnivariateNormal(100.0, 1.0)),
    )
    states, obs = mk.sample_hmm(spec, 2000, 17)
    assert all((obs[k] > 50.0) == (states[k] == 2) for k in range(2000))


def test_inverse_gamma_mixing_gives_student_t_moments():
    # variance mixed with InverseGamma(v/2, v/2) has marginal variance v/(v-2)
    v = 5.0
    y = mk.sample_scale_mixture(0.0, mk.InverseGamma(shape=v / 2, scale=v / 2), 200000, 19)
    assert abs(float(np.mean(y))) < 0.02
    assert float(np.var(y)) == pytest.approx(v / (v - 2.0), abs=0.05)
    # heavier than Normal tails: standardized fourth moment above 3
    kurt = float(np.mean(y**4) / np.var(y) ** 2)
    assert kurt > 4.0


def test_exponential_mixing_gives_laplace_moments():
    # variance ~ Exponential(rate) gives marginal variance 1/rate
    y = mk.sample_scale_mixture(1.0, mk.Exponential(rate=2.0), 200000, 23)
    assert float(np.mean(y)) == pytest.approx(1.0, abs=0.02)
    assert float(np.var(y)) == pytest.approx(0.5, abs=0.02)


def test_scale_mixture_parameter_validation():
    with pytest.raises(mk.DomainError):
        mk.InverseGamma(shape=0.0, scale=1.0)
    with pytest.raises(mk.DomainError):
        mk.Exponential(rate=-1.0)
    with pytest.raises(mk.DomainError):
        mk.sample_scale_mixture(0.0, "not a mixing law", 10, 1)


def test_monotone_density_sampler_uniform_case():
    # a single uniform block is the trivial case
    y = mk.sample_monotone_density(((1.0, 2.0),), 50000, 29)
    assert y.min() >= 0.0 and y.max() <= 2.0
    assert float(np.mean(y)) == pytest.approx(1.0, abs=0.02)


def test_monotone_density_sampler_is_decreasing():
    # mixing uniforms on [0, theta] always yields a non-increasing density
    y = mk.sample_monotone_density(((0.4, 0.5), (0.4, 2.0), (0.2, 5.0)), 200000, 31)
    hist, _ = np.histogram(y, bins=np.linspace(0.0, 5.0, 26))
    for a, b in zip(hist[:-1], hist[1:]):
        assert b <= a * 1.05 + 200.0
    mean_want = 0.4 * 0.25 + 0.4 * 1.0 + 0.2 * 2.5
    assert float(np.mean(y)) == pytest.approx(mean_want, abs=0.02)


def test_monotone_density_sampler_validation():
    with pytest.raises(mk.InvalidMeasureError):
        mk.sample_monotone_density(((0.5, 1.0), (0.4, 2.0)), 10, 1)
    with pytest.raises(mk.DomainError):
        mk.sample_monotone_density(((1.0, -1.0),), 10, 1)


def test_mixture_cdf_matches_quadrature(two_normal_separated):
    from scipy.integrate import quad

    for y in (-3.0, 0.0, 2.0):
        num, _ = quad(lambda t: mk.density(two_normal_separated, t), -30.0, y)
        assert mixture_cdf(two_normal_separated, y) == pytest.approx(num, abs=1e-9)


def test_generator_can_be_passed_in_place_of_seed(two_normal_separated):
    rng = np.random.default_rng(5)
    a = mk.sample_mixture(two_normal_separated, 10, rng)
    b = mk.sample_mixture(two_normal_separated, 10, np.random.default_rng(5))
    assert np.array_equal(a.data, b.data)


def test_empirical_cdf_matches_model_cdf(two_normal_separated):
    s = mk.sample_mixture(two_normal_separated, 50000, 37)
    for q in (-3.0, 0.0, 3.0):
        emp = float((s.data <= q).mean())
        assert abs(emp - mixture_cdf(two_normal_separated, q)) < 0.01


def test_poisson_mixture_moment_identity(two_poisson):
    # E[Y] = sum_g w_g lam_g for a Poisson mixture
    s = mk.sample_mixture(two_poisson, 100000, 41)
    want = 0.7 * 4.0 + 0.3 * 6.0
    assert float(np.mean(s.data)) == pytest.approx(want, abs=0.05)
    # mixing over rates over-disperses: Var(Y) > E[Y]
    spread = 0.7 * 4.0 + 0.3 * 6.0 + 0.7 * 0.3 * (6.0 - 4.0) ** 2
    assert float(np.var(s.data)) == pytest.approx(spread, abs=0.15)
    assert float(np.var(s.data)) > float(np.mean(s.data))


def _parent_sample_hmm(spec, T, seed):
    """The per-step ``np.searchsorted`` stepper that bisection replaced (the oracle)."""
    rng = np.random.default_rng(seed)
    G = spec.G
    cum_init = np.cumsum(spec.initial)
    cum_rows = np.cumsum(np.asarray(spec.xi, dtype=float), axis=1)
    u = rng.random(T)
    states = np.empty(T, dtype=np.int64)
    states[0] = min(int(np.searchsorted(cum_init, u[0], side="right")), G - 1)
    for t in range(1, T):
        row = cum_rows[states[t - 1]]
        states[t] = min(int(np.searchsorted(row, u[t], side="right")), G - 1)
    return states + 1, mk.sampling._emit(spec.components, states, rng)


def _assert_hmm_matches_the_oracle(spec, T, seed):
    want_states, want_obs = _parent_sample_hmm(spec, T, seed)
    states, obs = mk.sample_hmm(spec, T, seed)
    assert states.dtype == want_states.dtype == np.int64
    assert np.array_equal(states, want_states)
    assert obs.dtype == want_obs.dtype
    assert np.array_equal(obs, want_obs)


@st.composite
def _probability_row(draw, G):
    """A row on the simplex with some exact zeros (at least one entry positive)."""
    weights = [draw(st.sampled_from([0.0, 0.0, 1e-9, 0.3, 1.0, 7.0])) for _ in range(G)]
    if not any(weights):
        weights[draw(st.integers(0, G - 1))] = 1.0
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


@st.composite
def _hmm_cases(draw):
    G = draw(st.integers(1, 5))
    family = draw(st.sampled_from(["normal", "poisson"]))
    if family == "normal":
        comps = tuple(mk.UnivariateNormal(5.0 * g, 1.0) for g in range(G))
    else:
        comps = tuple(mk.Poisson(1.0 + 3.0 * g) for g in range(G))
    spec = mk.HMMSpec(
        initial=draw(_probability_row(G)),
        xi=tuple(draw(_probability_row(G)) for _ in range(G)),
        components=comps,
    )
    return spec, draw(st.integers(1, 500)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(_hmm_cases())
def test_hmm_states_and_emissions_equal_the_searchsorted_stepper(case):
    _assert_hmm_matches_the_oracle(*case)


def test_hmm_uniform_on_a_cumulative_boundary_moves_past_it():
    # the first two uniforms of seed 5 are made boundaries of the initial law and
    # of both transition rows; side="right" puts a uniform equal to a boundary in
    # the next state
    seed = 5
    u = np.random.default_rng(seed).random(3)
    spec = mk.HMMSpec(
        initial=(u[0], 1.0 - u[0]),
        xi=((u[1], 1.0 - u[1]), (u[1], 1.0 - u[1])),
        components=(mk.UnivariateNormal(0.0, 1.0), mk.UnivariateNormal(8.0, 1.0)),
    )
    assert np.cumsum(spec.initial)[0] == u[0] and np.cumsum(spec.xi[0])[0] == u[1]
    states, _ = mk.sample_hmm(spec, 3, seed)
    assert states[:2].tolist() == [2, 2]
    _assert_hmm_matches_the_oracle(spec, 3, seed)
