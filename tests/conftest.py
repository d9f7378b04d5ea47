"""Shared fixtures: small reference models used across the test modules.

Every hypothesis property draws the same examples on every run: the profile
loaded here seeds each test's generator from the test itself
(``derandomize``), and each property keeps its own ``max_examples`` and
``deadline``.
"""

import numpy as np
import pytest
from hypothesis import settings

import mixkit as mk

settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


@pytest.fixture
def three_normal_unimodal():
    """Three well-overlapping Normals whose sum has a single peak."""
    return mk.MixtureModel(
        mk.MixingMeasure(
            (
                (0.3, mk.UnivariateNormal(2.0, 1.0)),
                (0.5, mk.UnivariateNormal(3.0, 0.5)),
                (0.2, mk.UnivariateNormal(3.4, 1.3)),
            )
        )
    )


@pytest.fixture
def five_normal_three_modes():
    """Five equally spaced Normals that merge into three peaks."""
    return mk.MixtureModel(
        mk.MixingMeasure(
            (
                (0.1, mk.UnivariateNormal(0.0, 0.6)),
                (0.2, mk.UnivariateNormal(1.5, 0.6)),
                (0.3, mk.UnivariateNormal(3.0, 0.6)),
                (0.3, mk.UnivariateNormal(4.5, 0.6)),
                (0.1, mk.UnivariateNormal(6.0, 0.6)),
            )
        )
    )


@pytest.fixture
def two_normal_separated():
    return mk.MixtureModel(
        mk.MixingMeasure(
            (
                (0.5, mk.UnivariateNormal(-3.0, 1.0)),
                (0.5, mk.UnivariateNormal(3.0, 1.0)),
            )
        )
    )


@pytest.fixture
def two_poisson():
    return mk.MixtureModel(
        mk.MixingMeasure(((0.7, mk.Poisson(4.0)), (0.3, mk.Poisson(6.0))))
    )


@pytest.fixture
def two_bivariate():
    return mk.MixtureModel(
        mk.MixingMeasure(
            (
                (0.5, mk.BivariateNormal((0.0, 0.0), ((1.0, 0.3), (0.3, 1.0)))),
                (0.5, mk.BivariateNormal((4.0, 4.0), ((1.0, -0.2), (-0.2, 0.5)))),
            )
        )
    )


def random_normal_model(rng, max_G=5, mu_span=10.0, sigma_lo=0.3, sigma_hi=3.0):
    """A random valid univariate Normal mixture, for randomized property checks."""
    G = int(rng.integers(1, max_G + 1))
    weights = rng.dirichlet(np.ones(G))
    atoms = tuple(
        (
            float(weights[g]),
            mk.UnivariateNormal(
                float(rng.uniform(-mu_span, mu_span)),
                float(rng.uniform(sigma_lo, sigma_hi)),
            ),
        )
        for g in range(G)
    )
    return mk.MixtureModel(mk.MixingMeasure(atoms))


def random_poisson_model(rng, max_G=5, lam_lo=0.1, lam_hi=30.0):
    G = int(rng.integers(1, max_G + 1))
    weights = rng.dirichlet(np.ones(G))
    atoms = tuple(
        (float(weights[g]), mk.Poisson(float(rng.uniform(lam_lo, lam_hi))))
        for g in range(G)
    )
    return mk.MixtureModel(mk.MixingMeasure(atoms))
