import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixkit as mk
import mixkit.em

# posterior weight of the first component at y = 0 under
# 0.5 N(0,1) + 0.5 N(4,1); equals 1 / (1 + exp(-8))
RESP_AT_ZERO = 0.9996646498695335219


@pytest.fixture
def equal_pair():
    return mk.MixtureModel(
        mk.MixingMeasure(
            ((0.5, mk.UnivariateNormal(0.0, 1.0)), (0.5, mk.UnivariateNormal(4.0, 1.0)))
        )
    )


def test_e_step_reference_value(equal_pair):
    r = mk.e_step(equal_pair, [0.0])
    assert r.shape == (1, 2)
    assert r[0, 0] == pytest.approx(RESP_AT_ZERO, rel=1e-14)


def test_e_step_rows_are_distributions(equal_pair, two_normal_separated):
    for model in (equal_pair, two_normal_separated):
        r = mk.e_step(model, np.linspace(-6.0, 6.0, 101))
        assert np.all(r >= 0.0)
        assert np.allclose(r.sum(axis=1), 1.0, atol=1e-12)


def test_e_step_flags_zero_density_points():
    model = mk.MixtureModel(mk.MixingMeasure(((1.0, mk.UnivariateNormal(-1e308, 1.0)),)))
    with pytest.raises(mk.DegeneratePointError) as exc:
        mk.e_step(model, [1e308])
    assert exc.value.index == 0


def test_m_step_hand_computed():
    data = np.array([0.0, 1.0, 10.0, 12.0])
    r = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    weights, params, empty = mixkit.em._m_step_arrays(data, r, "normal", 1e-12)
    assert weights.tolist() == [0.5, 0.5] and empty.size == 0
    measure = mixkit.em._measure_from_params("normal", weights, params)
    assert measure.components[0].mu == pytest.approx(0.5)
    assert measure.components[0].sigma == pytest.approx(0.5)
    assert measure.components[1].mu == pytest.approx(11.0)
    assert measure.components[1].sigma == pytest.approx(1.0)


def test_m_step_poisson_hand_computed():
    data = np.array([1, 2, 3, 10])
    r = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    weights, (lam,), empty = mixkit.em._m_step_arrays(data, r, "poisson", 1e-12)
    assert lam == pytest.approx([2.0, 10.0]) and empty.size == 0


def test_m_step_reports_an_empty_component():
    data = np.array([0.0, 1.0, 2.0])
    r = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    assert mixkit.em._m_step_arrays(data, r, "normal", 1e-12)[2].tolist() == [1]


def test_run_em_recovers_separated_pair(two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 2000, 101).data
    state = mk.run_em(data, 2, "normal", mk.EMConfig(seed=5))
    assert state.converged
    canon = mk.canonicalize(state.model.measure)
    assert canon.components[0].mu == pytest.approx(-3.0, abs=0.15)
    assert canon.components[1].mu == pytest.approx(3.0, abs=0.15)
    assert canon.weights[0] == pytest.approx(0.5, abs=0.05)


def test_run_em_trace_is_monotone(two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 500, 11).data
    for seed in range(5):
        state = mk.run_em(data, 3, "normal", mk.EMConfig(seed=seed))
        diffs = np.diff(np.array(state.loglik_trace))
        assert np.all(diffs >= -1e-9)


def test_run_em_final_trace_entry_is_model_loglik(two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 300, 13).data
    state = mk.run_em(data, 2, "normal", mk.EMConfig(seed=1))
    assert state.loglik == pytest.approx(mk.log_likelihood(state.model, data), rel=1e-12)


def test_run_em_is_deterministic(two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 400, 17).data
    a = mk.run_em(data, 2, "normal", mk.EMConfig(seed=9))
    b = mk.run_em(data, 2, "normal", mk.EMConfig(seed=9))
    assert a.model == b.model
    assert a.loglik_trace == b.loglik_trace


def test_run_em_restarts_never_hurt(five_normal_three_modes):
    data = mk.sample_mixture(five_normal_three_modes, 600, 23).data
    single = mk.run_em(data, 4, "normal", mk.EMConfig(seed=3, restarts=1))
    multi = mk.run_em(data, 4, "normal", mk.EMConfig(seed=3, restarts=6))
    assert multi.loglik >= single.loglik - 1e-9


def test_run_em_accepts_explicit_initial_measure(two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 300, 29).data
    start = mk.MixingMeasure(
        ((0.5, mk.UnivariateNormal(-1.0, 2.0)), (0.5, mk.UnivariateNormal(1.0, 2.0)))
    )
    state = mk.run_em(data, 2, "normal", mk.EMConfig(init=start, seed=0))
    assert state.converged
    assert state.loglik_trace[0] == pytest.approx(
        mk.log_likelihood(mk.MixtureModel(start), data), rel=1e-12
    )


def test_run_em_argument_validation(two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 10, 1).data
    with pytest.raises(mk.DomainError):
        mk.run_em(data, 0, "normal", mk.EMConfig())
    with pytest.raises(mk.DomainError):
        mk.run_em(data, 11, "normal", mk.EMConfig())
    with pytest.raises(mk.DomainError):
        mk.run_em(data, 2, "weibull", mk.EMConfig())
    with pytest.raises(mk.DomainError):
        mk.EMConfig(tol=-1.0)
    with pytest.raises(mk.DomainError):
        mk.EMConfig(max_iter=0)
    with pytest.raises(mk.DomainError):
        mk.EMConfig(init="nonsense")


@pytest.mark.parametrize("field, value", [("max_iter", 2.5), ("restarts", 1.5), ("max_iter", 3.0)])
def test_em_config_counts_must_be_integers(field, value):
    with pytest.raises(mk.DomainError, match=field):
        mk.EMConfig(**{field: value})
    assert getattr(mk.EMConfig(**{field: np.int64(3)}), field) == 3


def test_run_em_needs_enough_distinct_points():
    data = np.array([1.0, 1.0, 1.0, 2.0])
    with pytest.raises(mk.DomainError):
        mk.run_em(data, 3, "normal", mk.EMConfig(init="k-points", restarts=0))


def test_variance_floor_prevents_collapse():
    # one point sits alone; without a floor its component would degenerate
    data = np.concatenate([np.zeros(50) + np.linspace(-0.1, 0.1, 50), [30.0]])
    state = mk.run_em(data, 2, "normal", mk.EMConfig(seed=2, variance_floor=1e-4))
    assert all(c.sigma >= math.sqrt(1e-4) * 0.999 for c in state.model.measure.components)


def test_poisson_em_recovery(two_poisson):
    big = mk.MixtureModel(
        mk.MixingMeasure(((0.7, mk.Poisson(4.0)), (0.3, mk.Poisson(12.0))))
    )
    data = mk.sample_mixture(big, 2000, 31).data
    state = mk.run_em(data, 2, "poisson", mk.EMConfig(seed=4))
    canon = mk.canonicalize(state.model.measure)
    assert canon.components[0].lam == pytest.approx(4.0, abs=0.5)
    assert canon.components[1].lam == pytest.approx(12.0, abs=0.8)


def test_bivariate_em_recovery(two_bivariate):
    data = mk.sample_mixture(two_bivariate, 1000, 37).data
    state = mk.run_em(data, 2, "bivariate_normal", mk.EMConfig(seed=6))
    canon = mk.canonicalize(state.model.measure)
    assert canon.components[0].mean[0] == pytest.approx(0.0, abs=0.3)
    assert canon.components[1].mean[0] == pytest.approx(4.0, abs=0.3)


def _hard_labels(measure, data):
    """0-based labels of the component of largest density: the argmax a hard-EM iteration takes."""
    em = mixkit.em
    arr = mk.validate_observations(measure.family, data)
    return em._atom_argmax(em._component_log_densities(measure.family, em._measure_params(measure), arr))


def test_hard_labels_ignore_weights():
    lopsided = mk.MixingMeasure(
        ((0.99, mk.UnivariateNormal(-1.0, 1.0)), (0.01, mk.UnivariateNormal(1.0, 1.0)))
    )
    # at y = 0.5 the second component has the higher density; the weight
    # plays no part in the hard rule, and an exact tie (y = 0) goes to the lower label
    assert _hard_labels(lopsided, [0.5, -0.5, 0.0]).tolist() == [1, 0, 0]


def test_run_hard_em_trace_is_monotone(two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 800, 41).data
    state = mk.run_hard_em(data, 2, "normal", mk.EMConfig(seed=8))
    diffs = np.diff(np.array(state.loglik_trace))
    assert np.all(diffs >= -1e-9)
    assert state.converged


def test_run_hard_em_recovery(two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 1500, 43).data
    state = mk.run_hard_em(data, 2, "normal", mk.EMConfig(seed=9))
    canon = mk.canonicalize(state.model.measure)
    assert canon.components[0].mu == pytest.approx(-3.0, abs=0.2)
    assert canon.components[1].mu == pytest.approx(3.0, abs=0.2)


def test_fit_report_shape(two_normal_separated):
    data = mk.sample_mixture(two_normal_separated, 200, 47).data
    config = mk.EMConfig(seed=3)
    state = mk.run_em(data, 2, "normal", config)
    report = mk.fit_report(state, config)
    assert set(report) == {"measure", "loglik_trace", "iterations", "converged", "config", "seed"}
    assert report["measure"]["family"] == "normal"
    assert report["loglik_trace"][-1] == pytest.approx(state.loglik)
    assert report["config"]["seed"] == 3


# ---------------------------------------------------------------------------
# The array loops against the public object-level steps.


FIXTURE_OF = {"normal": "two_normal_separated", "poisson": "two_poisson",
              "bivariate_normal": "two_bivariate"}


def _assert_measures_close(a, b, rel):
    assert a.G == b.G and a.family == b.family
    assert np.allclose(a.weights, b.weights, rtol=rel, atol=0.0)
    for ca, cb in zip(a.components, b.components):
        pa, pb = ca.params_dict(), cb.params_dict()
        for key in pa:
            assert np.allclose(pa[key], pb[key], rtol=rel, atol=0.0), key


@pytest.mark.parametrize("family", ["normal", "poisson", "bivariate_normal"])
def test_one_em_iteration_is_m_step_of_e_step(family, request):
    truth = request.getfixturevalue(FIXTURE_OF[family])
    data = mk.sample_mixture(truth, 400, 71).data
    start = mk.permute(truth.measure, [2, 1])
    config = mk.EMConfig(init=start, max_iter=1, restarts=1, seed=0)
    state = mk.run_em(data, 2, family, config)
    assert state.iteration == 1
    arr = mk.validate_observations(family, data)
    floor = mixkit.em.resolve_variance_floor(arr, family, config)
    weights, params, empty = mixkit.em._m_step_arrays(arr, mk.e_step(mk.MixtureModel(start), arr), family, floor)
    assert empty.size == 0
    stepped = mixkit.em._measure_from_params(family, weights / weights.sum(), params)
    _assert_measures_close(state.model.measure, stepped, 1e-12)
    assert state.loglik == pytest.approx(mk.log_likelihood(mk.MixtureModel(stepped), data), rel=1e-12)


@pytest.mark.parametrize("family", ["normal", "poisson", "bivariate_normal"])
def test_hard_em_labels_are_those_of_its_final_measure(family, request):
    truth = request.getfixturevalue(FIXTURE_OF[family])
    data = mk.sample_mixture(truth, 300, 73).data
    for max_iter in (1, 1000):
        state = mk.run_hard_em(data, 2, family, mk.EMConfig(seed=2, max_iter=max_iter))
        labels = np.argmax(state.responsibilities, axis=1)
        assert np.array_equal(labels, _hard_labels(state.model.measure, data))


def test_atom_argmax_matches_np_argmax():
    from mixkit.em import _atom_argmax

    rng = np.random.default_rng(5)
    for G in range(1, 8):
        L = rng.integers(-3, 3, size=(200, G)).astype(float)
        L[rng.random(L.shape) < 0.2] = -math.inf
        for M in (L, np.asfortranarray(L)):
            assert np.array_equal(_atom_argmax(M), np.argmax(M, axis=1))


def test_reseeds_are_recorded():
    data = np.concatenate([np.linspace(-1.0, 1.0, 60), np.linspace(9.0, 11.0, 60)])
    # the third atom sits so far out that its responsibilities underflow
    start = mk.MixingMeasure(
        (
            (0.4, mk.UnivariateNormal(0.0, 1.0)),
            (0.4, mk.UnivariateNormal(10.0, 1.0)),
            (0.2, mk.UnivariateNormal(1e6, 1.0)),
        )
    )
    state = mk.run_em(data, 3, "normal", mk.EMConfig(init=start, restarts=1, seed=0))
    assert state.reseeds[0] == (1, 3)
    assert all(1 <= it <= state.iteration and 1 <= g <= 3 for it, g in state.reseeds)
    with pytest.raises(mk.EmptyComponentError) as exc:
        mk.run_em(data, 3, "normal", mk.EMConfig(init=start, restarts=0, seed=0))
    assert exc.value.component == 3
    clean = mk.run_em(data, 2, "normal", mk.EMConfig(seed=0))
    assert clean.reseeds == ()


@pytest.mark.parametrize("family", ["normal", "poisson", "bivariate_normal"])
def test_traces_equal_those_of_a_per_point_fsum(family, request, monkeypatch):
    # every EM and hard-EM trace entry is math.fsum of the per-point terms, bit for bit
    truth = request.getfixturevalue(FIXTURE_OF[family])
    data = mk.sample_mixture(truth, 500, 79).data
    configs = [mk.EMConfig(seed=4, restarts=restarts, **budget)
               for restarts in (0, 3) for budget in ({}, {"max_iter": 15, "tol": 1e-300})]
    fits = [(mk.run_em, config) for config in configs] + [(mk.run_hard_em, configs[2])]

    fast = [[v.hex() for v in fit(data, 2, family, config).loglik_trace] for fit, config in fits]
    calls = []
    monkeypatch.setattr(mixkit.em, "_exact_sum", lambda x: calls.append(x) or math.fsum(x.tolist()))
    for (fit, config), want in zip(fits, fast):
        calls.clear()
        trace = fit(data, 2, family, config).loglik_trace
        assert [v.hex() for v in trace] == want
        assert len(calls) >= len(trace)  # every entry went through the patched sum


# ---------------------------------------------------------------------------
# The batched restarts against the loop that ran them one after another.


def _sequential_em_run(data, G, family, config, rng, floor, terms):
    """One soft-EM restart on its own: the loop run_em ran per restart before
    the restarts shared a batch, kept as the oracle of their bits."""
    em = mixkit.em
    weights, params = em._initial_params(data, G, family, config, rng, floor)
    L = em._component_log_densities(family, params, data, terms) + em._logs(weights)
    r, norm = em._responsibilities(L)
    ll = em._exact_sum(norm)
    trace = [ll]
    reseeds = []
    converged = False
    for _ in range(config.max_iter):
        weights, params, empty = em._m_step_arrays(data, r, family, floor)
        if empty.size:
            if config.restarts == 0:
                raise mk.EmptyComponentError(
                    int(empty[0]) + 1,
                    f"component {int(empty[0]) + 1} emptied at iteration {len(trace)}",
                )
            reseeds += [(len(trace), int(g) + 1) for g in empty]
            weights = em._reseed_empty(weights, params, empty, data, family, floor, rng)
        else:
            weights = weights / weights.sum()
        L = em._component_log_densities(family, params, data, terms) + em._logs(weights)
        r, norm = em._responsibilities(L)
        ll_new = em._exact_sum(norm)
        trace.append(ll_new)
        if abs(ll_new - ll) / (1.0 + abs(ll_new)) < config.tol:
            converged = True
            break
        ll = ll_new
    return mk.EMState(
        model=mk.MixtureModel(em._measure_from_params(family, weights, params)),
        responsibilities=r,
        loglik_trace=tuple(trace),
        iteration=len(trace) - 1,
        converged=converged,
        reseeds=tuple(reseeds),
    )


def _one_hot(z, G):
    onehot = np.zeros((len(z), G), order="F")
    onehot[np.arange(len(z)), z - 1] = 1.0
    return onehot


def _hard_step(L):
    idx = mixkit.em._atom_argmax(L)
    return idx + 1, mixkit.em._exact_sum(L[np.arange(len(L)), idx])


def _sequential_hard_em_run(data, G, family, config, rng, floor, terms):
    """One hard-EM restart on its own (see _sequential_em_run)."""
    em = mixkit.em
    weights, params = em._initial_params(data, G, family, config, rng, floor)
    z, ll = _hard_step(em._component_log_densities(family, params, data, terms))
    trace = [ll]
    converged = False
    for _ in range(config.max_iter):
        weights, params, empty = em._m_step_arrays(data, _one_hot(z, G), family, floor)
        if empty.size:
            raise mk.EmptyComponentError(
                int(empty[0]) + 1,
                f"group {int(empty[0]) + 1} emptied after reallocation",
            )
        weights = weights / weights.sum()
        z_new, ll = _hard_step(em._component_log_densities(family, params, data, terms))
        trace.append(ll)
        converged = np.array_equal(z_new, z)
        z = z_new
        if converged:
            break
    return mk.EMState(
        model=mk.MixtureModel(em._measure_from_params(family, weights, params)),
        responsibilities=_one_hot(z, G),
        loglik_trace=tuple(trace),
        iteration=len(trace) - 1,
        converged=converged,
    )


def _each_restart(run, data, G, family, config):
    """Every restart run alone, one after another: its state, or the MixtureError it raised."""
    arr = mk.validate_observations(family, data)
    floor = mixkit.em.resolve_variance_floor(arr, family, config)
    terms = mixkit.em.FAMILIES[family]._observation_terms(arr)
    out = []
    for child in np.random.SeedSequence(config.seed).spawn(max(config.restarts, 1)):
        try:
            out.append(run(arr, G, family, config, np.random.default_rng(child), floor, terms))
        except mk.MixtureError as exc:
            out.append(exc)
    return out


def _sequential_restarts(run, data, G, family, config):
    """Every restart's state, as the sequential loop ran them: the first failure raises."""
    states = _each_restart(run, data, G, family, config)
    for state in states:
        if isinstance(state, Exception):
            raise state
    return states


def _batched_restarts(fit, data, G, family, config):
    """``fit``'s result and every restart's state, in run order, as the batches returned them."""
    states = []
    batch = mixkit.em._restart_batch

    def recording(*args):
        out = batch(*args)
        states.extend(out)
        return out

    with mock.patch.object(mixkit.em, "_restart_batch", recording):
        return fit(data, G, family, config), states


def _bits(state):
    """Everything a run returns, as bytes and exact values."""
    return (
        [v.hex() for v in state.loglik_trace],
        state.model.measure.weights.tobytes(),
        [p.tobytes() for p in mixkit.em._measure_params(state.model.measure)],
        state.responsibilities.tobytes(),
        state.responsibilities.shape,
        state.iteration,
        state.converged,
        state.reseeds,
    )


def _outcome(call):
    """The bits of every state ``call`` returns, or the type, text and label of what it raised."""
    try:
        result = call()
    except mk.MixtureError as exc:
        return type(exc), str(exc), getattr(exc, "component", None), getattr(exc, "index", None)
    return [_bits(s) for s in result]


_SEQUENTIAL = {mk.run_em: _sequential_em_run, mk.run_hard_em: _sequential_hard_em_run}


def _assert_batched_equals_sequential(fit, data, G, family, config):
    """Each restart, the kept best (strict >, so the lowest-numbered run wins a
    tie) and any raised exception are those of the sequential loop."""
    want = _outcome(lambda: _sequential_restarts(_SEQUENTIAL[fit], data, G, family, config))
    got = _outcome(lambda: _batched_restarts(fit, data, G, family, config)[1])
    assert got == want
    if isinstance(want, list):
        best = max(range(len(want)), key=lambda k: (float.fromhex(want[k][0][-1]), -k))
        assert _bits(fit(data, G, family, config)) == want[best]


def _start_measure(data, G, family):
    """A valid G-atom start for ``family`` spread over the data."""
    y = np.asarray(mk.validate_observations(family, data), dtype=float)
    cls = mixkit.em.FAMILIES[family]
    qs = np.quantile(y, (np.arange(G) + 0.5) / G, axis=0)
    if family == "normal":
        comps = [cls(float(q), float(y.std()) + 0.1) for q in qs]
    elif family == "poisson":
        comps = [cls(float(q) + 0.5) for q in qs]
    else:
        comps = [cls(tuple(map(float, q)), ((1.0, 0.0), (0.0, 1.0))) for q in qs]
    return mk.MixingMeasure(tuple((1.0 / G, c) for c in comps))


def _draw(family, n, seed):
    rng = np.random.default_rng(seed)
    shift = rng.random(n) < 0.4
    if family == "normal":
        return rng.normal(0.0, 1.0, n) + 2.5 * shift
    if family == "poisson":
        return rng.poisson(np.where(shift, 9.0, 3.0))
    return rng.normal(0.0, 1.0, (n, 2)) + 3.0 * shift[:, None]


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["normal", "poisson", "bivariate_normal"]),
    G=st.integers(1, 4),
    restarts=st.integers(0, 5),
    init=st.sampled_from(["k-points", "random-responsibilities", "measure"]),
    tol=st.sampled_from([mk.EMConfig().tol, 1e-300]),
    n=st.integers(4, 60),
    data_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
    max_iter=st.integers(1, 40),
)
def test_batched_restarts_give_the_bits_of_each_run_alone(
        family, G, restarts, init, tol, n, data_seed, seed, max_iter):
    data = _draw(family, n, data_seed)
    start = _start_measure(data, G, family) if init == "measure" else init
    config = mk.EMConfig(init=start, tol=tol, restarts=restarts, seed=seed, max_iter=max_iter)
    for fit in (mk.run_em, mk.run_hard_em):
        _assert_batched_equals_sequential(fit, data, G, family, config)


def test_batched_reseeds_give_the_bits_of_each_run_alone():
    data = np.concatenate([np.linspace(-1.0, 1.0, 60), np.linspace(9.0, 11.0, 60)])
    start = mk.MixingMeasure(
        (
            (0.4, mk.UnivariateNormal(0.0, 1.0)),
            (0.4, mk.UnivariateNormal(10.0, 1.0)),
            (0.2, mk.UnivariateNormal(1e6, 1.0)),
        )
    )
    config = mk.EMConfig(init=start, restarts=3, seed=0)
    _, states = _batched_restarts(mk.run_em, data, 3, "normal", config)
    assert len(states) == 3 and all(s.reseeds and s.reseeds[0] == (1, 3) for s in states)
    # the same start, then each run's own generator picks its reseed points
    assert len({s.loglik_trace for s in states}) > 1
    _assert_batched_equals_sequential(mk.run_em, data, 3, "normal", config)


def test_the_lowest_numbered_failing_run_raises():
    # hard EM from random responsibilities: runs 1 and 3 of 5 each empty a
    # group at the first reallocation, group 2 and group 4
    data, config = _draw("normal", 30, 1), mk.EMConfig(restarts=5, seed=0, init="random-responsibilities")
    alone = _each_restart(_sequential_hard_em_run, data, 4, "normal", config)
    failed = {k: exc.component for k, exc in enumerate(alone) if isinstance(exc, mk.EmptyComponentError)}
    assert failed == {1: 2, 3: 4}
    with pytest.raises(mk.EmptyComponentError) as exc:
        mk.run_hard_em(data, 4, "normal", config)
    assert (exc.value.component, str(exc.value)) == (2, "group 2 emptied after reallocation")
    _assert_batched_equals_sequential(mk.run_hard_em, data, 4, "normal", config)
    # alone in its batch, or batched with others, each run fails the same way
    for batch_values in (1, 2 * 4 * len(data)):
        with mock.patch.object(mixkit.em, "BATCH_VALUES", batch_values):
            _assert_batched_equals_sequential(mk.run_hard_em, data, 4, "normal", config)


@pytest.mark.parametrize("restarts", [0, 3])
def test_a_point_of_zero_density_fails_as_it_does_alone(restarts):
    # (1e160 - mu) / sigma squares to inf: the point has density 0 under every atom
    data = np.concatenate([np.linspace(-1.0, 1.0, 20), [1e160], np.linspace(9.0, 11.0, 20)])
    start = mk.MixingMeasure(((0.5, mk.UnivariateNormal(0.0, 1.0)), (0.5, mk.UnivariateNormal(10.0, 1.0))))
    config = mk.EMConfig(init=start, restarts=restarts, variance_floor=1e-6)
    with pytest.raises(mk.DegeneratePointError) as exc:
        mk.run_em(data, 2, "normal", config)
    assert exc.value.index == 20
    _assert_batched_equals_sequential(mk.run_em, data, 2, "normal", config)


@pytest.mark.parametrize("family", ["normal", "poisson", "bivariate_normal"])
@pytest.mark.parametrize("fit", [mk.run_em, mk.run_hard_em])
def test_one_kernel_call_per_iteration_serves_every_restart(family, fit, monkeypatch):
    data = _draw(family, 300, 83)
    cls = mixkit.em.FAMILIES[family]
    kernel = cls._log_density_rows
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))  # atoms evaluated: the first parameter array has one entry each
        return kernel(*args, **kwargs)

    monkeypatch.setattr(cls, "_log_density_rows", staticmethod(counted))
    config = mk.EMConfig(restarts=3, max_iter=15, tol=1e-300, seed=6)
    state = fit(data, 2, family, config)
    if fit is mk.run_em:
        # the initial E-step and 15 iterations, every call for all three runs
        assert state.iteration == 15 and calls == [3 * 2] * 16
    else:
        # runs leave as their allocations settle: one call per iteration of the longest
        calls.clear()
        _, states = _batched_restarts(fit, data, 2, family, config)
        assert len(calls) == 1 + max(s.iteration for s in states) and calls[0] == 3 * 2


@pytest.mark.parametrize("family", ["normal", "poisson", "bivariate_normal"])
def test_batch_memory_limit_keeps_the_bits(family, request, monkeypatch):
    # 5 restarts at G=2, n=200: 400 values a run, so 1 value runs each alone,
    # 800 makes batches of 2, 2 and 1, and the default one batch
    truth = request.getfixturevalue(FIXTURE_OF[family])
    data = mk.sample_mixture(truth, 200, 89).data
    configs = [mk.EMConfig(restarts=5, seed=8), mk.EMConfig(restarts=5, seed=8, max_iter=12, tol=1e-300)]
    default = mixkit.em.BATCH_VALUES
    assert default >= 5 * 2 * 200
    results = []
    for batch_values in (1, 800, default):
        monkeypatch.setattr(mixkit.em, "BATCH_VALUES", batch_values)
        sizes = []
        batch = mixkit.em._restart_batch
        monkeypatch.setattr(mixkit.em, "_restart_batch", lambda hard, arr, G, f, c, rngs, *rest:
                            sizes.append(len(rngs)) or batch(hard, arr, G, f, c, rngs, *rest))
        results.append([[_bits(s) for s in _batched_restarts(fit, data, 2, family, config)[1]]
                        for fit in (mk.run_em, mk.run_hard_em) for config in configs])
        monkeypatch.setattr(mixkit.em, "_restart_batch", batch)
        assert sizes == {1: [1] * 5, 800: [2, 2, 1], default: [5]}[batch_values] * 4
    assert results[0] == results[1] == results[2]
    assert results[0] == [[_bits(s) for s in _sequential_restarts(_SEQUENTIAL[fit], data, 2, family, config)]
                          for fit in (mk.run_em, mk.run_hard_em) for config in configs]
