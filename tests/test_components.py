import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mixkit as mk
from mixkit.components import _logs, component_from_dict

STANDARD_NORMAL_AT_ZERO = 0.39894228040143267794


def test_univariate_normal_density_at_zero():
    c = mk.UnivariateNormal(0.0, 1.0)
    assert float(c.density(0.0)) == pytest.approx(STANDARD_NORMAL_AT_ZERO, rel=1e-15)


def test_univariate_normal_log_density_vectorized():
    c = mk.UnivariateNormal(1.0, 2.0)
    ys = np.array([-1.0, 1.0, 4.0])
    expect = -0.5 * ((ys - 1.0) / 2.0) ** 2 - math.log(2.0) - 0.5 * math.log(2 * math.pi)
    assert np.allclose(c.log_density(ys), expect, rtol=1e-15, atol=0)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SIGMAS = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_FINITE, min_size=1, max_size=4),
    st.lists(_SIGMAS, min_size=1, max_size=4),
    st.lists(st.one_of(_FINITE, st.sampled_from([1.4e154, 1.9e154, 2.6e154, -0.0])), max_size=6),
)
@example([0.0, 1e-300], [1.0, 0.5], [1.4e154, 1.5e154, 1.9e154, 2.6e154, 1e-170, -0.0])
def test_normal_rows_in_place_keep_the_bits_of_the_product_formula(mus, sigmas, ys):
    # the in-place rows against -0.5 * z * z - log(sigma) - log(2 pi) / 2,
    # bit for bit, overflow of z * z and of y - mu included
    G = min(len(mus), len(sigmas))
    mu, sigma, y = np.array(mus[:G]), np.array(sigmas[:G]), np.array(ys)
    with np.errstate(over="ignore", under="ignore"):
        z = (y - mu[:, None]) / sigma[:, None]
        want = -0.5 * z * z - _logs(sigma)[:, None] - 0.5 * math.log(2.0 * math.pi)
        got = mk.UnivariateNormal._log_density_rows(mu, sigma, y)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_univariate_normal_rejects_bad_params():
    with pytest.raises(mk.DomainError):
        mk.UnivariateNormal(0.0, 0.0)
    with pytest.raises(mk.DomainError):
        mk.UnivariateNormal(0.0, -1.0)
    with pytest.raises(mk.DomainError):
        mk.UnivariateNormal(math.inf, 1.0)
    with pytest.raises(mk.DomainError):
        mk.UnivariateNormal(0.0, math.nan)


def test_poisson_pmf_matches_direct_formula():
    c = mk.Poisson(4.0)
    for y in range(12):
        direct = math.exp(-4.0 + y * math.log(4.0) - math.lgamma(y + 1))
        assert float(c.density(y)) == pytest.approx(direct, rel=1e-14)


def test_poisson_rejects_nonpositive_rate():
    with pytest.raises(mk.DomainError):
        mk.Poisson(0.0)
    with pytest.raises(mk.DomainError):
        mk.Poisson(-2.0)


def test_bivariate_normal_matches_scipy():
    from scipy.stats import multivariate_normal

    c = mk.BivariateNormal((1.0, -2.0), ((2.0, 0.6), (0.6, 1.5)))
    pts = np.array([[0.0, 0.0], [1.0, -2.0], [3.0, 1.0]])
    ref = multivariate_normal(mean=[1.0, -2.0], cov=[[2.0, 0.6], [0.6, 1.5]]).logpdf(pts)
    assert np.allclose(c.log_density(pts), ref, rtol=1e-12, atol=0)


def test_bivariate_normal_rejects_bad_cov():
    with pytest.raises(mk.DomainError):
        mk.BivariateNormal((0.0, 0.0), ((1.0, 2.0), (2.0, 1.0)))  # not pos. definite
    with pytest.raises(mk.DomainError):
        mk.BivariateNormal((0.0, 0.0), ((1.0, 0.5), (0.4, 1.0)))  # not symmetric
    with pytest.raises(mk.DomainError):
        mk.BivariateNormal((0.0,), ((1.0, 0.0), (0.0, 1.0)))


def test_component_sampling_is_seeded_and_sane():
    rng = np.random.default_rng(0)
    c = mk.UnivariateNormal(5.0, 2.0)
    draws = c.sample(rng, 20000)
    assert abs(draws.mean() - 5.0) < 0.05
    assert abs(draws.std() - 2.0) < 0.05
    again = c.sample(np.random.default_rng(0), 20000)
    assert np.array_equal(draws, again)


def test_poisson_sampling_returns_integers():
    rng = np.random.default_rng(1)
    draws = mk.Poisson(3.0).sample(rng, 100)
    assert draws.dtype.kind == "i"
    assert draws.min() >= 0


def test_validate_observations_by_family():
    out = mk.validate_observations("normal", [1.0, 2.0])
    assert out.shape == (2,)
    out = mk.validate_observations("poisson", [0, 3, 7])
    assert out.dtype == np.int64
    out = mk.validate_observations("bivariate_normal", [[0.0, 1.0], [2.0, 3.0]])
    assert out.shape == (2, 2)

    with pytest.raises(mk.DomainError):
        mk.validate_observations("normal", [np.nan])
    with pytest.raises(mk.DomainError):
        mk.validate_observations("normal", [[1.0, 2.0]])
    with pytest.raises(mk.DomainError):
        mk.validate_observations("poisson", [1.5])
    with pytest.raises(mk.DomainError):
        mk.validate_observations("poisson", [-1])
    with pytest.raises(mk.DomainError):
        mk.validate_observations("bivariate_normal", [1.0, 2.0, 3.0])
    with pytest.raises(mk.DomainError):
        mk.validate_observations("nope", [1.0])


def test_component_from_dict_round_trip_and_strictness():
    c = component_from_dict("normal", {"mu": 1.0, "sigma": 2.0})
    assert c == mk.UnivariateNormal(1.0, 2.0)
    with pytest.raises(mk.SpecDocumentError):
        component_from_dict("normal", {"mu": 1.0})
    with pytest.raises(mk.SpecDocumentError):
        component_from_dict("normal", {"mu": 1.0, "sigma": 2.0, "tau": 3.0})
    with pytest.raises(mk.SpecDocumentError):
        component_from_dict("gaussian", {"mu": 1.0, "sigma": 2.0})


def test_sort_keys_order_components():
    a = mk.UnivariateNormal(1.0, 2.0)
    b = mk.UnivariateNormal(1.0, 3.0)
    c = mk.UnivariateNormal(0.0, 9.0)
    assert sorted([b, a, c], key=lambda x: x.sort_key) == [c, a, b]
