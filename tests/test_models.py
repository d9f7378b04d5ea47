import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixkit as mk
from conftest import random_normal_model
from mixkit.models import _exact_sum, _logsumexp, _logsumexp_into, _sort_atoms

# Reference values computed with 50-digit arithmetic, independent of this
# package, then rounded to double precision.
DENSITY_AT_3 = 0.53007156652549124374
DENSITY_TABLE = {
    1.0: 0.083891037645485004074,
    2.5: 0.3958873298670425962,
    3.0: 0.53007156652549124374,
    4.2: 0.083825179877544780795,
    6.0: 0.0083464576841027849597,
}
LOGLIK_FIVE_POINTS = -11.30454527254224839
POISSON_PMF_AT_5 = 0.15759235860976617803


def test_density_reference_values(three_normal_unimodal):
    for y, want in DENSITY_TABLE.items():
        assert mk.density(three_normal_unimodal, y) == pytest.approx(want, rel=5e-15)


def test_log_density_agrees_with_density(three_normal_unimodal):
    for y in (-1.0, 0.5, 3.0, 7.0):
        assert math.exp(mk.log_density(three_normal_unimodal, y)) == pytest.approx(
            mk.density(three_normal_unimodal, y), rel=1e-12
        )


def test_log_likelihood_reference_value(three_normal_unimodal):
    pts = sorted(DENSITY_TABLE)
    assert mk.log_likelihood(three_normal_unimodal, pts) == pytest.approx(
        LOGLIK_FIVE_POINTS, rel=1e-14
    )


def test_log_likelihood_of_nothing_is_zero(three_normal_unimodal):
    assert mk.log_likelihood(three_normal_unimodal, []) == 0.0


def test_poisson_mixture_pmf_reference_value(two_poisson):
    assert mk.density(two_poisson, 5) == pytest.approx(POISSON_PMF_AT_5, rel=5e-15)


def test_density_rejects_observations_outside_support(two_poisson):
    with pytest.raises(mk.DomainError):
        mk.density(two_poisson, 2.5)
    with pytest.raises(mk.DomainError):
        mk.density(two_poisson, -1)


def test_measure_weight_validation():
    c = mk.UnivariateNormal(0.0, 1.0)
    with pytest.raises(mk.InvalidMeasureError):
        mk.MixingMeasure(((0.5, c), (0.6, mk.UnivariateNormal(1.0, 1.0))))
    with pytest.raises(mk.InvalidMeasureError):
        mk.MixingMeasure(((-0.1, c), (1.1, mk.UnivariateNormal(1.0, 1.0))))
    with pytest.raises(mk.InvalidMeasureError):
        mk.MixingMeasure(())
    with pytest.raises(mk.InvalidMeasureError):
        mk.MixingMeasure(((0.5, c), (0.5, mk.Poisson(2.0))))


def test_permute_is_exactly_invariant(three_normal_unimodal):
    measure = three_normal_unimodal.measure
    permuted = mk.MixtureModel(mk.permute(measure, (3, 1, 2)))
    for y in (-2.0, 0.0, 2.9, 3.0, 10.0):
        assert mk.density(permuted, y) == mk.density(three_normal_unimodal, y)


def test_log_likelihood_and_log_density_ignore_atom_order():
    # random overlapping G=4 mixtures, each against all 24 relabelings, bit for bit
    rng = np.random.default_rng(1)
    perms = list(itertools.permutations(range(1, 5)))
    for _ in range(300):
        weights = rng.dirichlet(np.ones(4))
        atoms = tuple(
            (float(w), mk.UnivariateNormal(float(rng.uniform(-10.0, 10.0)), float(rng.uniform(0.3, 3.0))))
            for w in weights
        )
        model = mk.MixtureModel(mk.MixingMeasure(atoms))
        y = mk.sample_mixture(model, 200, rng).data
        loglik = mk.log_likelihood(model, y)
        logdens = mk.log_density(model, y[0])
        for perm in perms:
            permuted = mk.MixtureModel(mk.permute(model.measure, perm))
            assert mk.log_likelihood(permuted, y) == loglik
            assert mk.log_density(permuted, y[0]) == logdens


def test_permute_rejects_non_bijections(three_normal_unimodal):
    measure = three_normal_unimodal.measure
    with pytest.raises(mk.DomainError):
        mk.permute(measure, (1, 1, 2))
    with pytest.raises(mk.DomainError):
        mk.permute(measure, (1, 2))
    with pytest.raises(mk.DomainError):
        mk.permute(measure, (0, 1, 2))


def test_zero_weight_atom_changes_nothing(three_normal_unimodal):
    atoms = three_normal_unimodal.measure.atoms + ((0.0, mk.UnivariateNormal(50.0, 1.0)),)
    padded = mk.MixtureModel(mk.MixingMeasure(atoms))
    for y in (-2.0, 3.0, 10.0):
        assert mk.density(padded, y) == mk.density(three_normal_unimodal, y)


def test_duplicate_split_changes_nothing(three_normal_unimodal):
    w, c = three_normal_unimodal.measure.atoms[1]
    atoms = (
        three_normal_unimodal.measure.atoms[:1]
        + ((w / 2.0, c), (w / 2.0, c))
        + three_normal_unimodal.measure.atoms[2:]
    )
    split = mk.MixtureModel(mk.MixingMeasure(atoms))
    for y in (-2.0, 3.0, 10.0):
        assert mk.density(split, y) == mk.density(three_normal_unimodal, y)


def test_canonicalize_sorts_merges_and_drops():
    measure = mk.MixingMeasure(
        (
            (0.3, mk.UnivariateNormal(2.0, 1.0)),
            (0.2, mk.UnivariateNormal(2.0, 1.0)),
            (0.5 - 1e-13, mk.UnivariateNormal(-1.0, 0.5)),
            (1e-13, mk.UnivariateNormal(40.0, 1.0)),
        )
    )
    canon = mk.canonicalize(measure)
    assert canon.G == 2
    assert canon.components[0] == mk.UnivariateNormal(-1.0, 0.5)
    assert canon.components[1] == mk.UnivariateNormal(2.0, 1.0)
    assert canon.weights[1] == pytest.approx(0.5, rel=1e-12)
    assert math.fsum(canon.weights) == pytest.approx(1.0, abs=1e-12)


def test_canonicalize_merges_within_parameter_tolerance():
    measure = mk.MixingMeasure(
        (
            (0.5, mk.UnivariateNormal(1.0, 1.0)),
            (0.5, mk.UnivariateNormal(1.0 + 1e-10, 1.0)),
        )
    )
    assert mk.canonicalize(measure).G == 1


def test_canonicalize_is_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(20):
        model = random_normal_model(rng)
        once = mk.canonicalize(model.measure)
        twice = mk.canonicalize(once)
        assert once == twice


def test_canonical_forms_agree_after_permutation():
    rng = np.random.default_rng(8)
    for _ in range(20):
        model = random_normal_model(rng, max_G=4)
        G = model.measure.G
        perm = tuple(int(p) + 1 for p in rng.permutation(G))
        a = mk.canonicalize(model.measure)
        b = mk.canonicalize(mk.permute(model.measure, perm))
        assert a == b


def test_log_weighted_densities_shape(three_normal_unimodal):
    mat = mk.log_weighted_densities(three_normal_unimodal, [0.0, 1.0, 2.0, 3.0])
    assert mat.shape == (4, 3)
    dens = np.exp(mat).sum(axis=1)
    for k, y in enumerate([0.0, 1.0, 2.0, 3.0]):
        assert dens[k] == pytest.approx(mk.density(three_normal_unimodal, y), rel=1e-12)


def test_json_round_trip(three_normal_unimodal, two_bivariate, two_poisson):
    for model in (three_normal_unimodal, two_bivariate, two_poisson):
        assert mk.model_from_dict(json.loads(json.dumps(mk.model_to_dict(model)))) == model


def test_model_from_dict_rejects_malformed_documents():
    good = {"family": "normal", "atoms": [{"weight": 1.0, "mu": 0.0, "sigma": 1.0}]}
    assert mk.model_from_dict(good).family == "normal"
    for bad in (
        {"family": "normal", "atoms": []},
        {"family": "normal", "atoms": [{"mu": 0.0, "sigma": 1.0}]},
        {"family": "normal", "atoms": [{"weight": 1.0, "mu": 0.0}]},
        {"family": "normal", "atoms": [{"weight": 1.0, "mu": 0.0, "sigma": 1.0, "x": 1}]},
        {"family": "normal"},
        {"atoms": [{"weight": 1.0, "mu": 0.0, "sigma": 1.0}]},
        {"family": "normal", "atoms": [{"weight": 1.0, "mu": 0.0, "sigma": 1.0}], "y": 0},
        "not a dict",
    ):
        with pytest.raises(mk.SpecDocumentError):
            mk.model_from_dict(bad)


# ---------------------------------------------------------------------------
# The atom-axis reduction against an np.sort reference, bit for bit.

# a small pool makes ties common; -inf covers zero-weight atoms and rows
_ENTRIES = st.one_of(
    st.sampled_from([-math.inf, -700.0, -3.5, 0.0, 1.0, 2.25]),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)


@st.composite
def _atom_matrices(draw):
    G = draw(st.integers(1, 9))
    n = draw(st.integers(1, 12))
    a = np.array(draw(st.lists(_ENTRIES, min_size=n * G, max_size=n * G))).reshape(n, G)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        a[i] = -math.inf
    return np.asfortranarray(a) if draw(st.booleans()) else a


def _reference_logsumexp(a):
    top = a.max(axis=-1, keepdims=True)
    shift = np.where(np.isfinite(top), top, 0.0)
    terms = np.sort(np.exp(np.ascontiguousarray(a) - shift), axis=-1)
    with np.errstate(divide="ignore"):
        return np.log(terms.sum(axis=-1)) + shift[..., 0]


@settings(max_examples=300, deadline=None)
@given(_atom_matrices())
def test_atom_sort_equals_np_sort(a):
    terms = np.exp(a)
    _sort_atoms(terms)
    assert np.array_equal(terms, np.sort(np.exp(a), axis=-1))


@settings(max_examples=300, deadline=None)
@given(_atom_matrices())
def test_logsumexp_equals_sorted_reference_bitwise(a):
    got = _logsumexp(a)
    want = _reference_logsumexp(a)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.all(np.isneginf(got[np.all(np.isneginf(a), axis=1)]))


def test_logsumexp_of_one_or_two_atoms_skips_the_sort_with_the_same_bits():
    # one atom is a + 0.0 and two are summed unsorted; both must keep the
    # sorted reference's bits at the edges: -inf, +inf, -0.0, |a| up to 800
    rng = np.random.default_rng(11)
    edges = np.array([-math.inf, math.inf, -0.0, 0.0, 800.0, -800.0])
    for G in (1, 2):
        a = rng.normal(size=(3000, G)) * rng.choice([1.0, 30.0, 800.0], size=(3000, 1))
        picked = rng.random(a.shape) < 0.25
        a[picked] = rng.choice(edges, size=picked.sum())
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _logsumexp(a), _reference_logsumexp(a)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(_atom_matrices(), st.integers(1, 4))
def test_logsumexp_in_place_on_an_atom_major_block_equals_the_wrapper(a, k):
    # the stacked kernel's call: a (k, n, G) view of (G, k, n) memory reduced
    # in place, with workspace rows; k copies of the matrix, rolled
    n, G = a.shape
    block = np.stack([np.roll(a, s, axis=0).T for s in range(k)], axis=1)
    atoms = np.moveaxis(block, 0, -1)
    want = _logsumexp(atoms)
    got = _logsumexp_into(atoms, atoms, np.empty((k, n)), np.empty((k, n)))
    assert got.tobytes() == want.tobytes()


def test_logsumexp_of_a_vector_keeps_np_sort():
    a = np.random.default_rng(3).normal(size=1000) * 40.0
    assert _logsumexp(a) == _reference_logsumexp(a)
    assert _logsumexp(np.full(4, -math.inf)) == -math.inf


def test_component_matrix_is_atom_major(three_normal_unimodal, two_poisson, two_bivariate):
    cases = ((three_normal_unimodal, np.linspace(-2.0, 6.0, 50)), (two_poisson, np.arange(20)),
             (two_bivariate, np.random.default_rng(1).normal(size=(30, 2))))
    for model, data in cases:
        L = mk.log_weighted_densities(model, data)
        assert L.shape == (len(data), model.G)
        assert L.flags["F_CONTIGUOUS"]
        for g, (w, c) in enumerate(model.measure.atoms):
            assert np.array_equal(L[:, g], c.log_density(data) + math.log(w))


def _fsum_outcome(total, x):
    """repr of ``total(x)`` (value and sign of zero), or the exception it raised."""
    try:
        return repr(total(x))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def _reference_sum(x):
    return math.fsum(x.tolist())


@st.composite
def _summands(draw):
    """Float64 vectors of any exponent: random draws between two exponents
    (subnormals and signed zeros at the bottom), optional near-cancelling
    negated copies, and a few hypothesis floats, shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 5000))
    lo = draw(st.integers(-1074, 990))
    hi = draw(st.integers(lo, min(lo + draw(st.sampled_from([0, 5, 60, 2100])), 990)))
    x = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(lo, hi + 1, n))
    if draw(st.booleans()):
        k = draw(st.integers(0, n))
        x = np.concatenate([x, -x[:k] * (1.0 + draw(st.sampled_from([0.0, 2.0**-52, 2.0**-30])))])
    extra = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
    return rng.permutation(np.concatenate([x, np.array(extra, dtype=float)]))


@settings(max_examples=400, deadline=None)
@given(_summands())
def test_exact_sum_is_fsum_bit_for_bit(x):
    assert _fsum_outcome(_exact_sum, x) == _fsum_outcome(_reference_sum, x)


@pytest.mark.parametrize("x, want", [
    ([1e16, 1.0, -1e16], 1.0),
    ([1.0, 2.0**-53, 2.0**-106], 1.0 + 2.0**-52),  # just above a half-ulp tie: rounds up
    ([2.0**53, 1.0, 2.0**-60], 2.0**53 + 2.0),
    ([1e100, 1.0, -1e100, 1e-100], 1.0),
])
def test_exact_sum_is_right_where_a_float_sum_is_not(x, want):
    x = np.array(x)
    assert float(np.sum(x)) != want
    assert _exact_sum(x) == want == math.fsum(x.tolist())


def test_exact_sum_of_non_finite_and_overflowing_input_is_fsum():
    assert _exact_sum(np.array([math.inf])) == math.inf
    assert _exact_sum(np.array([1.0, -math.inf])) == -math.inf
    assert math.isnan(_exact_sum(np.array([math.nan])))
    assert math.isnan(_exact_sum(np.array([1.0, math.inf, math.nan])))
    for x, error in (([math.inf, -math.inf], ValueError), ([1e308, 1e308, -1e308], OverflowError)):
        x = np.array(x)
        with pytest.raises(error) as ours:
            _exact_sum(x)
        with pytest.raises(error) as theirs:
            math.fsum(x.tolist())
        assert str(ours.value) == str(theirs.value)


def test_exact_sum_of_zeros_and_of_nothing_has_fsums_sign():
    for x in ([], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0], [-5e-324, 5e-324]):
        x = np.array(x, dtype=float)
        assert repr(_exact_sum(x)) == repr(math.fsum(x.tolist()))


def test_log_likelihood_ignores_observation_order():
    rng = np.random.default_rng(5)
    for _ in range(20):
        model = random_normal_model(rng)
        y = mk.sample_mixture(model, 3000, rng).data
        want = mk.log_likelihood(model, y).hex()
        for _ in range(5):
            assert mk.log_likelihood(model, rng.permutation(y)).hex() == want
