import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dualfilter import (ConfigError, DimensionError, DualMixture, FilterConfig,
                        ObservationRecord, WFModel, WFParams, propagate, run_filter)
from dualfilter.wf import (block_count_probs, moran_sample_many,
                           typed_death_sample_many, wf_chain_sample_many,
                           wf_diffusion_binned_sample_many,
                           wf_transition_sample_many)

from .oracles import (beta_marginal_logpdf_rows, block_count_path,
                      block_count_series_mp, death_kernel, from_weights_unique,
                      gillespie_jump_chain, kernel_dict,
                      kingman_rates, kingman_transitions, moran_law, moran_path, moran_rates,
                      moran_transitions, quad_wf_marginal, tv_sample_vs_pmf,
                      tv_tuple_samples, typed_kingman_path, update_counts,
                      wf_pd_kernel_rows)
from .oracles import wf_density_ratio as density_ratio


def typed_kernel(m, t, p, tail_eps=0.0) -> dict:
    return kernel_dict(death_kernel(WFModel(p), np.array([m]), None, t, tail_eps))


def log_marginal_at(m, y, p) -> float:
    """The model's log marginal likelihood of ``y`` at the one count vector ``m``."""
    return WFModel(p).log_marginal_point(np.array([m]), None, y)[0]


def stacked(row, n: int) -> np.ndarray:
    """``n`` copies of one start row, one per path."""
    return np.repeat(np.atleast_2d(row), n, axis=0)


# ---------------------------------------------------------------------------
# density ratio and conjugate updates
# ---------------------------------------------------------------------------

def test_density_ratio_is_one_at_origin(wf3_params):
    xs = np.array([[0.2, 0.5, 0.3], [0.9, 0.05, 0.05]])
    np.testing.assert_allclose(density_ratio(xs, (0, 0, 0), wf3_params), 1.0)


def test_density_ratio_times_prior_is_dirichlet(wf3_params):
    from scipy.stats import dirichlet
    p = wf3_params
    n = (2, 0, 1)
    xs = np.array([[0.2, 0.5, 0.3], [0.6, 0.3, 0.1], [0.05, 0.9, 0.05]])
    a = np.asarray(p.alpha)
    lhs = density_ratio(xs, n, p) * np.array([dirichlet.pdf(x, a) for x in xs])
    rhs = np.array([dirichlet.pdf(x, a + np.asarray(n)) for x in xs])
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_density_ratio_direct_value():
    # K=2, alpha=(1,1), n=(1,0), x=(0.3,0.7): Gamma(3)/Gamma(2) * 0.3 = 0.6
    p = WFParams((1.0, 1.0))
    got = density_ratio(np.array([0.3, 0.7]), (1, 0), p)
    assert got == pytest.approx(0.6, rel=1e-12)


def test_density_ratio_zero_coordinate(wf3_params):
    got = density_ratio(np.array([0.0, 0.5, 0.5]), (1, 0, 0), wf3_params)
    assert got == 0.0


def test_update_counts_examples(wf3_params):
    assert update_counts((0, 0, 0), ObservationRecord(0, (0, 1, 0)), wf3_params) \
        == (0, 1, 0)
    p4 = WFParams((3.0, 3.0, 3.0, 3.0))
    assert update_counts((4, 0, 9, 2), ObservationRecord(0, (1, 1, 0, 0)), p4) \
        == (5, 1, 9, 2)


def test_update_counts_merge(wf3_params):
    a = update_counts((1, 0, 2), ObservationRecord(0, (1, 0, 0)), wf3_params)
    a = update_counts(a, ObservationRecord(0, (0, 2, 0)), wf3_params)
    b = update_counts((1, 0, 2), ObservationRecord(0, (1, 2, 0)), wf3_params)
    assert a == b


def test_update_counts_dimension_error(wf3_params):
    with pytest.raises(DimensionError):
        update_counts((1, 0), ObservationRecord(0, (1, 0)), wf3_params)


def test_log_marginal_symmetric_half():
    p = WFParams((1.0, 1.0))
    got = log_marginal_at((0, 0), ObservationRecord(0, (1, 0)), p)
    assert math.exp(got) == pytest.approx(0.5, rel=1e-12)


def test_log_marginal_empty_batch(wf3_params):
    assert log_marginal_at((2, 1, 0), ObservationRecord(0, (0, 0, 0)), wf3_params) == 0.0


def test_log_marginal_matches_quadrature(wf3_params):
    got = math.exp(log_marginal_at((2, 0, 0), ObservationRecord(0, (1, 1, 0)),
                                wf3_params))
    want = quad_wf_marginal((2, 0, 0), (1, 1, 0), wf3_params)
    assert got == pytest.approx(want, abs=1e-6)


def test_log_marginal_matches_quadrature_k2(wf2_params):
    got = math.exp(log_marginal_at((3, 1), ObservationRecord(0, (2, 2)), wf2_params))
    want = quad_wf_marginal((3, 1), (2, 2), wf2_params)
    assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# dual rates
# ---------------------------------------------------------------------------

def test_kingman_rates_example(wf3_params):
    rates = kingman_rates((2, 1, 0), wf3_params)
    assert rates[0] == pytest.approx(5.3)
    assert rates[1] == pytest.approx(2.65)
    assert rates[2] == 0.0


def test_kingman_rates_single_lineage(wf3_params):
    rates = kingman_rates((0, 1, 0), wf3_params)
    assert rates[1] == pytest.approx(wf3_params.theta / 2.0)


def test_kingman_total_rate_identity(wf3_params):
    m = (4, 2, 3)
    tot = sum(m)
    rates = kingman_rates(m, wf3_params)
    want = tot * (wf3_params.theta + tot - 1.0) / 2.0
    assert sum(rates.values()) == pytest.approx(want, rel=1e-12)


def test_moran_rates_example():
    p = WFParams((3.0, 3.0, 3.0, 3.0))
    rates = moran_rates((4, 0, 9, 2), p)
    assert rates[(2, 0)] == pytest.approx(31.5)   # 9 * (3 + 4) / 2
    assert all(i != j for (i, j) in rates)
    assert not any(i == 1 for (i, _) in rates)    # empty type never removed


def test_moran_moves_conserve_total(wf3_params):
    trans = moran_transitions(wf3_params)
    for nxt, _ in trans((3, 2, 1)):
        assert sum(nxt) == 6


# ---------------------------------------------------------------------------
# generic jump-chain simulation
# ---------------------------------------------------------------------------

def test_jump_chain_absorption_time_mean(wf3_params, rng):
    # single lineage absorbs after an Exp(theta/2) time
    trans = kingman_transitions(wf3_params)
    n = 20_000
    times = np.empty(n)
    for i in range(n):
        # bisect the absorption time by simulating at increasing horizons
        # (cheaper: sample the exponential clock directly through the chain)
        t = rng.exponential(2.0 / wf3_params.theta)
        times[i] = t
    # simulate the chain at the mean horizon and compare absorption fraction
    horizon = 2.0 / wf3_params.theta
    absorbed = sum(gillespie_jump_chain(trans, (1, 0, 0), horizon, rng) == (0, 0, 0)
                   for _ in range(n))
    want = 1.0 - math.exp(-1.0)  # P(Exp(rate) <= 1/rate)
    se = math.sqrt(want * (1 - want) / n)
    assert abs(absorbed / n - want) < 4 * se


def test_jump_chain_no_event_limit(wf3_params, rng):
    hits = sum(gillespie_jump_chain(moran_transitions(wf3_params), (2, 1, 0),
                                    1e-12, rng) == (2, 1, 0)
               for _ in range(20_000))
    assert hits == 20_000


def test_jump_chain_absorbing_state(wf3_params, rng):
    assert gillespie_jump_chain(kingman_transitions(wf3_params), (0, 0, 0),
                                5.0, rng) == (0, 0, 0)


# ---------------------------------------------------------------------------
# block-counting chain
# ---------------------------------------------------------------------------

def test_block_count_t_small_is_identity(wf3_params):
    probs = block_count_probs(6, 1e-9, wf3_params)
    assert probs[6] == pytest.approx(1.0, abs=1e-6)


def test_block_count_normalizes(wf3_params):
    for m, t in [(5, 0.5), (40, 0.1), (200, 1.0)]:
        probs = block_count_probs(m, t, wf3_params)
        assert abs(probs.sum() - 1.0) <= 1e-8
        assert np.all(probs >= 0.0)


def test_block_count_two_level_closed_form(wf3_params):
    # m=2: the two-level pure-death chain has an explicit solution
    theta = wf3_params.theta
    t = 0.4
    r2, r1 = theta + 1.0, theta / 2.0
    probs = block_count_probs(2, t, wf3_params)
    assert probs[2] == pytest.approx(math.exp(-r2 * t), rel=1e-10)
    want1 = r2 / (r2 - r1) * (math.exp(-r1 * t) - math.exp(-r2 * t))
    assert probs[1] == pytest.approx(want1, rel=1e-10)


def test_block_count_matches_gillespie(wf3_params):
    rng = np.random.default_rng(21)
    samples = np.array([block_count_path(5, 0.5, wf3_params.theta, rng)
                        for _ in range(100_000)])
    probs = block_count_probs(5, 0.5, wf3_params)
    assert tv_sample_vs_pmf(samples, probs) < 0.02


@pytest.mark.parametrize("m, t, alpha", [(60, 0.05, (1.1,) * 3),
                                          (30, 0.1, (3.0,) * 4),
                                          (120, 0.1, (3.0,) * 4)],
                         ids=["m60", "m30", "m120"])
def test_block_count_matches_high_precision_series(m, t, alpha):
    # short horizons, where the double-precision series cancels away digits
    p = WFParams(alpha)
    want = block_count_series_mp(m, t, p.theta)
    assert np.max(np.abs(block_count_probs(m, t, p) - want)) <= 1e-12


@pytest.mark.parametrize("m, t", [(60, 1.0), (200, 0.5)])
def test_block_count_exponential_is_exact_to_rounding(m, t):
    # a uniformized scaling and squaring is off by 3e-14 in L1 here; the
    # Pade exponential with closed-form bands must hold the 80-digit series
    p = WFParams((1.1,) * 3)
    want = block_count_series_mp(m, t, p.theta)
    assert np.abs(block_count_probs(m, t, p) - want).sum() <= 1e-15


@pytest.mark.parametrize("t", [0.01, 0.5])
@pytest.mark.parametrize("alpha", [(1.1,) * 3, (3.0,) * 4], ids=["theta3.3", "theta12"])
def test_block_count_matches_scipy_expm(t, alpha):
    p, m = WFParams(alpha), 500
    k = np.arange(m + 1, dtype=float)
    rates = k * (p.theta + k - 1.0) / 2.0
    q = np.diag(-rates) + np.diag(rates[1:], -1)
    assert np.max(np.abs(block_count_probs(m, t, p) - expm(q * t)[-1])) <= 1e-14


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(m=st.integers(1, 150),
       log_t=st.floats(math.log(1e-3), math.log(5.0)),
       alpha=st.tuples(*[st.floats(0.1, 5.0)] * 3))
def test_block_count_row_properties(m, log_t, alpha):
    p, t = WFParams(alpha), math.exp(log_t)
    probs = block_count_probs(m, t, p)
    assert len(probs) == m + 1
    assert np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) <= 1e-12
    # no death event: the holding time at level m exceeds t
    stay = math.exp(-m * (p.theta + m - 1.0) * t / 2.0)
    assert abs(probs[m] - stay) <= 1e-13


def test_block_count_zero_start(wf3_params):
    probs = block_count_probs(0, 1.0, wf3_params)
    np.testing.assert_allclose(probs, [1.0])
    assert not probs.flags.writeable


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(alpha=st.sampled_from([(3.0,) * 4, (1.1,) * 3]), data=st.data())
def test_marginal_logpdf_matches_per_row_formula(alpha, data):
    # a few base rows, repeated and with their other coordinates permuted:
    # many rows share (n_1, |n|), and with fractional alpha their float b
    # may still differ in the last bit
    k = len(alpha)
    row = st.lists(st.integers(0, 40), min_size=k, max_size=k)
    pool = data.draw(st.lists(row, min_size=1, max_size=6))
    picks = data.draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                         st.permutations(range(1, k))),
                               min_size=1, max_size=80))
    points = np.array([[pool[i][0]] + [pool[i][j] for j in perm] for i, perm in picks],
                      dtype=np.int64)
    grid = np.concatenate([[-0.1, 0.0, 1.0, 1.1], np.linspace(0.0, 1.0, 33)])
    model = WFModel(WFParams(alpha))
    logpdf, index = model.marginal_component_logpdf(grid, points)
    # one row per distinct (a, b) pair
    pairs = np.unique(np.stack(model._beta_params(points), axis=1), axis=0)
    assert logpdf.shape == (len(pairs), len(grid))
    assert np.array_equal(logpdf[index], beta_marginal_logpdf_rows(grid, points, alpha))


@pytest.mark.parametrize("level", [50, 500])
def test_entrance_descent_time_at_theta_one(level):
    # theta = 1 takes the trigamma branch; the general (digamma) branch
    # must meet it from either side
    from dualfilter.wf import _entrance_descent_time
    theta = WFParams((0.4, 0.6)).theta
    assert theta == 1.0
    got = _entrance_descent_time(level, theta)
    k = np.arange(level + 1, 10 ** 6, dtype=float)
    # sum_{k>level} 2/(k(k+theta-1)), with the tail sum_{k>=N} 2/k^2 ~ 2/(N-1/2)
    direct = math.fsum(2.0 / (k * (k + theta - 1.0))) + 2.0 / (10 ** 6 - 0.5)
    assert got == pytest.approx(direct, rel=1e-12)
    for near in (theta - 1e-6, theta + 1e-6):
        assert _entrance_descent_time(level, near) == pytest.approx(got, rel=1e-6)


# ---------------------------------------------------------------------------
# typed death transitions
# ---------------------------------------------------------------------------

def test_typed_transition_requires_componentwise_order(wf3_params):
    # every reachable type profile lies below its source componentwise
    src = (2, 1, 0)
    kern = typed_kernel(src, 0.5, wf3_params)
    assert all(all(n <= m for n, m in zip(pt, src)) for pt in kern)
    assert (1, 2, 0) not in kern


def test_typed_transition_one_survivor_symmetry():
    p = WFParams((1.3, 1.3))
    kern = typed_kernel((1, 1), 0.7, p)
    assert kern[(1, 0)] == pytest.approx(kern[(0, 1)], rel=1e-12)


def test_typed_kernel_mass_is_one(wf3_params):
    kern = typed_kernel((2, 1, 3), 0.4, wf3_params)
    assert sum(kern.values()) == pytest.approx(1.0, abs=1e-10)


def test_typed_kernel_tail_truncation_close(wf3_params):
    full = typed_kernel((4, 3, 2), 1.0, wf3_params)
    trunc = typed_kernel((4, 3, 2), 1.0, wf3_params, tail_eps=1e-12)
    drop = sum(v for k, v in full.items() if k not in trunc)
    assert drop < 10 * 1e-12
    for k, v in trunc.items():
        assert v == pytest.approx(full[k], rel=1e-9)


@pytest.mark.parametrize("m,t,eps", [((4, 3, 2), 1.0, 1e-12),
                                     ((6, 0, 5), 0.2, 1e-4),
                                     ((9, 7, 8), 2.0, 1e-14)])
def test_typed_kernel_truncation_keeps_whole_levels(wf3_params, m, t, eps):
    # the truncated kernel is the full kernel restricted to the levels whose
    # block-count probability exceeds eps
    full = typed_kernel(m, t, wf3_params)
    trunc = typed_kernel(m, t, wf3_params, tail_eps=eps)
    d = block_count_probs(sum(m), t, wf3_params)
    kept = {k: v for k, v in full.items() if d[sum(k)] > eps}
    assert len(kept) < len(full)
    assert trunc.keys() == kept.keys()
    for k, v in kept.items():
        assert trunc[k] == pytest.approx(v, rel=1e-15)


@pytest.mark.parametrize("eps", [float("nan"), -1.0, 1.0, 2.0, float("inf")])
def test_kernel_tail_eps_outside_unit_interval_raises(wf3_params, eps):
    model = WFModel(wf3_params)
    with pytest.raises(ConfigError, match="kernel_tail_eps"):
        FilterConfig(method="pruned", kernel_tail_eps=eps)
    with pytest.raises(ConfigError, match="kernel_tail_eps"):
        propagate(model.prior_mixture(), 0.5, eps)
    with pytest.raises(ConfigError, match="kernel_tail_eps"):
        propagate(DualMixture.from_weights(model, [[2, 1, 0]], [1.0]), 0.5, eps)


@st.composite
def kernel_cases(draw):
    """(sources, alpha, dt): 1-4 sources of K = 2..9 types, of mixed totals,
    with boxes of at most 5**4 or 3**9 rows."""
    k = draw(st.integers(2, 9))
    row = st.lists(st.integers(0, 4 if k <= 4 else 2), min_size=k, max_size=k)
    sources = np.array(draw(st.lists(row, min_size=1, max_size=4)), dtype=np.int64)
    alpha = tuple(draw(st.lists(st.floats(0.2, 3.0), min_size=k, max_size=k)))
    return sources, alpha, draw(st.floats(0.01, 2.0))


def assert_push_matches_box(mix, dt, eps, rtol) -> None:
    """``propagate`` of a WF mixture has the rows of the frozen box kernel,
    merged, and its weights to ``rtol`` relative above ``1e-250``."""
    got = propagate(mix, dt, eps)
    arrivals, probs, source = wf_pd_kernel_rows(mix.points, dt, mix.model.params, eps)
    rows, weights = from_weights_unique(arrivals, mix.weights[source] * probs)
    assert np.array_equal(got.points, rows)
    big = weights > 1e-250
    np.testing.assert_allclose(got.weights[big], weights[big], rtol=rtol, atol=0)
    np.testing.assert_allclose(got.weights, weights, rtol=rtol, atol=1e-250)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(kernel_cases(), st.sampled_from([0.0, 1e-14, 1e-6]))
# K = 8 and 9 with varied counts, which merge rows at every coordinate
@example((np.array([[3, 2, 1, 3, 0, 2, 1, 2], [1, 0, 2, 2, 1, 3, 2, 0]]),
          (0.5, 1.1, 2.0, 0.3, 1.7, 0.9, 2.5, 1.3), 0.3), 0.0)
@example((np.array([[2, 1, 3, 2, 1, 2, 0, 3, 1], [5, 0, 1, 1, 0, 2, 1, 0, 4]]),
          (1.1,) * 9, 0.7), 1e-14)
def test_push_matches_frozen_vectorized_kernel(case, eps):
    # the coordinate-wise push sums the kernel rows of every source
    sources, alpha, dt = case
    weights = 1.0 / np.arange(1, len(sources) + 1)
    mix = DualMixture.from_weights(WFModel(WFParams(alpha)), sources, weights)
    assert_push_matches_box(mix, dt, eps, rtol=1e-12)


def test_push_keeps_range_above_float_binomials():
    # at a total of 1,120 the thinning's binomial product overflows float64,
    # and log-factorials near 6,700 round at about 1e-12 relative
    with pytest.raises(OverflowError):
        float(math.comb(560, 280) ** 2)
    mix = DualMixture.from_weights(WFModel(WFParams((1.1, 1.1))), [[560, 560]], [1.0])
    assert_push_matches_box(mix, 0.5, 0.0, rtol=1e-11)


def test_kernel_tail_eps_that_drops_a_whole_source_raises():
    records = [ObservationRecord(0.0, (2, 1, 0)), ObservationRecord(0.5, (0, 1, 2))]
    p = WFParams((1.1, 1.1, 1.1))
    model = WFModel(p)
    with pytest.raises(ConfigError, match="kernel_tail_eps"):
        run_filter(records, FilterConfig(method="pruned", kernel_tail_eps=0.9), model)
    # the reference cut keeps every level a source's law puts mass on here
    cut = run_filter(records, FilterConfig(method="pruned", kernel_tail_eps=1e-14), model)
    full = run_filter(records, FilterConfig(method="exact"), model)
    for a, b in zip(cut.filtering, full.filtering, strict=True):
        assert np.array_equal(a.points, b.points) and np.array_equal(a.weights, b.weights)


def test_typed_kernel_matches_typed_gillespie(wf3_params):
    rng = np.random.default_rng(12)
    m0, t = (2, 1, 0), 0.5
    kern = typed_kernel(m0, t, wf3_params)
    n = 100_000
    from collections import Counter
    counts = Counter(typed_kingman_path(m0, t, wf3_params, rng) for _ in range(n))
    tv = 0.5 * sum(abs(counts.get(k, 0) / n - v) for k, v in kern.items())
    tv += 0.5 * sum(c / n for k, c in counts.items() if k not in kern)
    assert tv < 0.03


def test_typed_sampler_matches_kernel(wf3_params):
    m0, t = (3, 2, 1), 0.3
    kern = typed_kernel(m0, t, wf3_params)
    draws = typed_death_sample_many(stacked(m0, 100_000), t, wf3_params,
                                    np.random.default_rng(4))
    from collections import Counter
    counts = Counter(map(tuple, draws.tolist()))
    tv = 0.5 * sum(abs(counts.get(k, 0) / len(draws) - v) for k, v in kern.items())
    tv += 0.5 * sum(c / len(draws) for k, c in counts.items() if k not in kern)
    assert tv < 0.02


def test_kingman_paths_monotone(wf3_params, rng):
    trans = kingman_transitions(wf3_params)
    for _ in range(200):
        out = gillespie_jump_chain(trans, (3, 1, 2), 0.5, rng)
        assert all(o <= s for o, s in zip(out, (3, 1, 2)))


# ---------------------------------------------------------------------------
# Moran dual and its approximations
# ---------------------------------------------------------------------------

def test_moran_conserves_total(wf3_params, rng):
    out = moran_sample_many(stacked((4, 2, 0), 2_000), 1.0, wf3_params, rng)
    assert np.all(out.sum(axis=1) == 6)


def test_moran_vectorized_matches_scalar_oracle(wf3_params):
    n0, t = (2, 1, 0), 0.5
    fast = moran_sample_many(stacked(n0, 30_000), t, wf3_params, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    slow = np.array([moran_path(n0, t, wf3_params, rng) for _ in range(30_000)])
    assert tv_tuple_samples(fast, slow) < 0.03


def test_moran_empty_configuration_is_fixed(wf3_params, rng):
    out = moran_sample_many(stacked((0, 0, 0), 100), 1.0, wf3_params, rng)
    assert np.all(out == 0)


def moran_generator_row(n0, t, p) -> dict:
    """Row ``n0`` of ``expm(Q t)`` for the Moran generator on ``|n| = |n0|``."""
    states = [s for s in itertools.product(range(sum(n0) + 1), repeat=p.k)
              if sum(s) == sum(n0)]
    index = {s: i for i, s in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    for s in states:
        for nxt, rate in moran_transitions(p)(s):
            q[index[s], index[nxt]] += rate
    q[np.diag_indices_from(q)] = -q.sum(axis=1)
    return dict(zip(states, expm(q * t)[index[tuple(n0)]]))


@pytest.mark.parametrize("alpha, n0, t", [((1.1, 1.9), (3, 2), 0.3),
                                          ((1.1, 1.1, 1.1), (4, 2, 0), 0.5),
                                          ((1.1, 1.1, 1.1), (6, 0, 0), 0.05),
                                          ((0.5, 1.0, 2.0, 3.0), (2, 1, 1, 0), 1.0)],
                         ids=["k2", "k3", "k3-short", "k4"])
def test_moran_law_matches_generator_exponential(alpha, n0, t):
    p = WFParams(alpha)
    law, want = moran_law(n0, t, p), moran_generator_row(n0, t, p)
    assert set(law) == set(want)
    assert max(abs(law[s] - v) for s, v in want.items()) <= 1e-12


def test_moran_matches_genealogy_law(wf3_params):
    # a refill that ignores the ancestors' types sits at TV ~0.16 here
    n0, t = (4, 2, 0), 0.5
    law = moran_law(n0, t, wf3_params)
    index = {s: i for i, s in enumerate(law)}
    out = moran_sample_many(stacked(n0, 100_000), t, wf3_params,
                            np.random.default_rng(41))
    codes = np.array([index.get(tuple(r), len(law)) for r in out.tolist()])
    assert tv_sample_vs_pmf(codes, np.array(list(law.values()))) < 0.02


def test_wf_chain_conserves_total(wf3_params, rng):
    out = wf_chain_sample_many(stacked((10, 5, 5), 1_000), 1.0, wf3_params, rng)
    assert np.all(out.sum(axis=1) == 20)


def test_wf_chain_applies_at_least_one_generation(wf3_params):
    # t small enough that round(N*t) = 0 still runs one generation
    out = wf_chain_sample_many(stacked((5, 0, 0), 4_000), 1e-4, wf3_params,
                               np.random.default_rng(0))
    assert np.any(out != np.array([5, 0, 0]))


def test_wf_chain_calibration_against_moran(wf3_params):
    # one-time calibration gate: TV <= 0.05 at N = 20, t = 1
    n0, t = (10, 5, 5), 1.0
    rows = stacked(n0, 100_000)
    moran = moran_sample_many(rows, t, wf3_params, np.random.default_rng(31))
    chain = wf_chain_sample_many(rows, t, wf3_params, np.random.default_rng(32))
    assert tv_tuple_samples(moran, chain) <= 0.05


def test_wf_diffusion_binned_preserves_total(wf3_params, rng):
    out = wf_diffusion_binned_sample_many(stacked((4, 0, 9), 2_000), 0.1, wf3_params,
                                          rng)
    assert np.all(out.sum(axis=1) == 13)


def test_wf_diffusion_binned_distance_to_moran_law(wf3_params):
    # the binned diffusion draw approximates the Moran dual with a bias that
    # 50,000 draws resolve: TV 0.096-0.183 over these cases at this seed
    # (0.094-0.183 at 200,000 draws), where exact Moran draws sit at
    # 0.010-0.020; a change to the approximation can move it out of the band
    rng = np.random.default_rng(2024)
    for n0 in ((4, 0, 9), (2, 3, 5)):
        for t in (0.1, 0.5, 1.0):
            law = moran_law(n0, t, wf3_params)
            index = {s: i for i, s in enumerate(law)}
            out = wf_diffusion_binned_sample_many(stacked(n0, 50_000), t, wf3_params, rng)
            codes = np.array([index.get(tuple(r), len(law)) for r in out.tolist()])
            tv = tv_sample_vs_pmf(codes, np.array(list(law.values())))
            print(f"wf_diffusion n0={n0} t={t}: TV to the Moran law {tv:.4f}")
            assert 0.07 <= tv <= 0.21


def test_wf_diffusion_binned_stationary_mean(wf3_params):
    p = wf3_params
    out = wf_diffusion_binned_sample_many(stacked((8, 2, 2), 100_000), 20.0, p,
                                          np.random.default_rng(6))
    x1 = out[:, 0] / 12.0
    se = x1.std() / math.sqrt(len(x1))
    # binning adds a discretization wobble on top of the MC error
    assert abs(x1.mean() - p.alpha[0] / p.theta) < 3 * se + 0.5 / 12.0


# ---------------------------------------------------------------------------
# WF diffusion transition sampler
# ---------------------------------------------------------------------------

def test_wf_transition_stays_on_simplex(wf3_params, rng):
    xs = wf_transition_sample_many(stacked([0.2, 0.5, 0.3], 5_000), 0.5,
                                   wf3_params, rng)
    assert np.all(xs >= 0.0)
    np.testing.assert_allclose(xs.sum(axis=1), 1.0, atol=1e-10)


def test_wf_transition_stationary_at_large_t(wf3_params):
    p = wf3_params
    xs = wf_transition_sample_many(stacked([0.9, 0.05, 0.05], 200_000), 30.0, p,
                                   np.random.default_rng(13))
    se = xs[:, 0].std() / math.sqrt(len(xs))
    assert abs(xs[:, 0].mean() - p.alpha[0] / p.theta) < 3 * se


def test_wf_transition_mean_identity(wf3_params):
    # E[x1'] = x1 e^{-theta t/2} + (a1/theta)(1 - e^{-theta t/2})
    p = wf3_params
    x = np.array([0.5, 0.2, 0.3])
    t = 0.3
    xs = wf_transition_sample_many(stacked(x, 1_000_000), t, p,
                                   np.random.default_rng(14))
    want = x[0] * math.exp(-p.theta * t / 2) + \
        (p.alpha[0] / p.theta) * (1 - math.exp(-p.theta * t / 2))
    se = xs[:, 0].std() / math.sqrt(len(xs))
    assert abs(xs[:, 0].mean() - want) < 3 * se


def test_wf_transition_scalar_wrapper(wf3_params, rng):
    # one draw from one simplex point is a single simplex row
    out = wf_transition_sample_many(np.array([0.3, 0.3, 0.4]), 0.2, wf3_params,
                                    rng)
    assert out.shape == (1, 3)
    assert abs(out.sum() - 1.0) < 1e-10


@pytest.mark.parametrize("alpha, t", [((3.0,) * 4, 0.1), ((3.0,) * 4, 0.2),
                                      ((1.1,) * 3, 0.1), ((1.1,) * 3, 1.0)])
def test_wf_transition_entrance_level_not_sensitive(alpha, t, caplog):
    from dualfilter import wf
    wf._entrance_block_pmf.cache_clear()
    p = WFParams(alpha)
    with caplog.at_level(logging.WARNING, logger="dualfilter.wf"):
        wf_transition_sample_many(stacked(np.full(p.k, 1.0 / p.k), 10), t, p,
                                  np.random.default_rng(0))
    assert not any("entrance truncation level" in r.getMessage()
                   for r in caplog.records)


def test_wf_transition_entrance_warning_fires_once_per_law(caplog):
    # at t = 0.01 the level is 500, and doubling it shifts a probability by
    # about 1.4e-3; the check runs when the law is built, not on a cache hit
    from dualfilter import wf
    wf._entrance_block_pmf.cache_clear()
    p = WFParams((1.1, 1.1, 1.1))
    with caplog.at_level(logging.WARNING, logger="dualfilter.wf"):
        for seed in (0, 1):
            wf_transition_sample_many(stacked(np.full(p.k, 1.0 / p.k), 10), 0.01, p,
                                      np.random.default_rng(seed))
    warnings = [r.getMessage() for r in caplog.records
                if "entrance truncation level 500" in r.getMessage()]
    assert len(warnings) == 1


# ---------------------------------------------------------------------------
# stationary propagation and emissions
# ---------------------------------------------------------------------------

def test_origin_is_absorbing_for_both_duals(wf3_params, rng):
    zero = (0, 0, 0)
    assert typed_kernel(zero, 1.0, wf3_params) == {zero: 1.0}
    assert moran_rates(zero, wf3_params) == {}
    out = moran_sample_many(stacked(zero, 10), 5.0, wf3_params, rng)
    assert np.all(out == 0)


def test_emission_log_pmf_ordered_sample(wf3_params):
    xs = np.array([[0.5, 0.25, 0.25], [0.1, 0.8, 0.1]])
    y = ObservationRecord(0.0, (2, 1, 0))
    got = WFModel(wf3_params).emission_log_pmf(xs, y)
    want = 2 * np.log(xs[:, 0]) + np.log(xs[:, 1])
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_emission_log_pmf_zero_coordinate(wf3_params):
    xs = np.array([[0.0, 0.5, 0.5]])
    y = ObservationRecord(0.0, (1, 0, 0))
    assert WFModel(wf3_params).emission_log_pmf(xs, y)[0] == -np.inf


# ---------------------------------------------------------------------------
# duality identity (spot check; the full sweep runs in acceptance)
# ---------------------------------------------------------------------------

def test_wf_duality_spot(wf3_params):
    p = wf3_params
    n, t = (2, 1, 0), 0.5
    x = np.array([0.5, 0.2, 0.3])
    rng = np.random.default_rng(15)
    xs = wf_transition_sample_many(stacked(x, 100_000), t, p, rng)
    lhs = density_ratio(xs, n, p)
    lhs_mean, lhs_se = lhs.mean(), lhs.std() / math.sqrt(len(lhs))
    ms = moran_sample_many(stacked(n, 100_000), t, p, rng)
    uniq, inv = np.unique(ms, axis=0, return_inverse=True)
    hvals = np.array([density_ratio(x[None, :], tuple(r), p) for r in uniq])
    rhs = hvals[inv]
    rhs_mean, rhs_se = rhs.mean(), rhs.std() / math.sqrt(len(rhs))
    assert abs(lhs_mean - rhs_mean) <= 4.0 * math.hypot(lhs_se, rhs_se)


# ---------------------------------------------------------------------------
# mixture-level invariants specific to the WF model
# ---------------------------------------------------------------------------

def test_wf_mixture_update_merge_batches(wf3_model):
    from dualfilter.mixtures import DualMixture, update
    model = wf3_model
    mix = DualMixture.from_weights(
        model, [(0, 0, 0), (1, 0, 1), (2, 2, 0)], [0.2, 0.5, 0.3], None)
    seq, _ = update(mix, ObservationRecord(0.0, (1, 0, 0)))
    seq, _ = update(seq, ObservationRecord(0.0, (0, 2, 0)))
    merged, _ = update(mix, ObservationRecord(0.0, (1, 2, 0)))
    np.testing.assert_array_equal(seq.points, merged.points)
    np.testing.assert_allclose(np.asarray(seq.weights),
                               np.asarray(merged.weights), atol=1e-10)


def test_moran_propagation_conserves_total_support(wf3_model, rng):
    from dualfilter.mixtures import DualMixture, dual_particle_propagate
    mix = DualMixture.from_weights(
        wf3_model, [(2, 1, 1), (1, 3, 0)], [0.6, 0.4], None)
    out = dual_particle_propagate(mix, wf3_model.dual_sampler("moran"),
                                  500, 0.5, rng)
    assert all(sum(pt) == 4 for pt in out.points)


def test_kingman_propagation_support_is_downward(wf3_model):
    from dualfilter.mixtures import DualMixture, propagate
    src = (3, 1, 2)
    mix = DualMixture.from_weights(wf3_model, [src], [1.0], None)
    out = propagate(mix, 0.5)
    assert all(all(n <= m for n, m in zip(pt, src)) for pt in out.points)


def test_gillespie_jump_chain_budget(wf3_params, rng):
    from dualfilter import SimulationBudgetExceeded
    with pytest.raises(SimulationBudgetExceeded):
        gillespie_jump_chain(moran_transitions(wf3_params), (5, 5, 5), 50.0,
                             rng, max_events=10)
