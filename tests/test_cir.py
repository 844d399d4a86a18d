import math

import numpy as np
import pytest
from scipy.stats import binom

from dualfilter import InvalidDualParam, ObservationRecord
from dualfilter.cir import (cir_transition_sample_many, emission_log_pmf,
                            gillespie_bd, linear_bd_rates, linear_bd_sample_many,
                            log_marginal, pure_death_pmf, pure_death_survival,
                            pure_death_theta)

from .oracles import (chi2_pvalue_vs_pmf, embedded_up_prob, quad_cir_marginal,
                      quad_survival, rk_pure_death_theta, thinning_death_sample,
                      tv_int_samples, tv_sample_vs_pmf, update_conjugate)
from .oracles import cir_density_ratio as density_ratio
from .oracles import cir_log_density_ratio as log_density_ratio


# ---------------------------------------------------------------------------
# density ratio (conjugate kernel)
# ---------------------------------------------------------------------------

def test_density_ratio_is_one_at_origin(cir_params):
    for x in (0.0, 0.5, 3.0, 20.0):
        assert density_ratio(x, 0, cir_params.beta, cir_params) == pytest.approx(1.0)


def test_density_ratio_times_prior_is_gamma_density(cir_params):
    from .oracles import gamma_pdf
    p = cir_params
    m, theta = 4, p.beta + 2.0
    xs = np.linspace(0.05, 15.0, 200)
    lhs = density_ratio(xs, m, theta, p) * gamma_pdf(xs, p.alpha, p.beta)
    rhs = gamma_pdf(xs, p.alpha + m, theta)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_density_ratio_direct_value(cir_params):
    # delta=11, sigma=1, gamma=1.1, m=1, theta=2.1, x=1
    want = (1.0 / 5.5) * 1.1 ** -5.5 * 2.1 ** 6.5 * math.exp(-1.0)
    got = density_ratio(1.0, 1, 2.1, cir_params)
    assert got == pytest.approx(want, rel=1e-12)


def test_density_ratio_overflow_flags_log_variant(cir_params):
    with pytest.raises(OverflowError):
        density_ratio(1e4, 500, cir_params.beta, cir_params)
    # the log variant stays finite
    assert math.isfinite(log_density_ratio(1e4, 500, cir_params.beta,
                                           cir_params))


# ---------------------------------------------------------------------------
# conjugate updates and marginal likelihoods
# ---------------------------------------------------------------------------

def test_update_conjugate_examples(cir_params):
    beta = cir_params.beta
    assert update_conjugate(0, beta, ObservationRecord(0, (4,)), cir_params) \
        == (4, beta + 1.0)
    assert update_conjugate(4, beta + 1.0, ObservationRecord(0, (0, 0)), cir_params) \
        == (4, beta + 3.0)


def test_update_conjugate_batches_merge(cir_params):
    m1, t1 = update_conjugate(3, 2.0, ObservationRecord(0, (2,)), cir_params)
    m2, t2 = update_conjugate(m1, t1, ObservationRecord(0, (3,)), cir_params)
    assert (m2, t2) == update_conjugate(3, 2.0, ObservationRecord(0, (2, 3)),
                                        cir_params)


def test_log_marginal_exponential_case():
    # shape 1 (delta=2, m=0), theta=1, single zero count: int e^-x e^-x = 1/2
    from dualfilter.cir import CIRParams
    p = CIRParams(2.0, 1.0, 1.0)
    got = log_marginal(0, 1.0, ObservationRecord(0, (0,)), p)
    assert got == pytest.approx(math.log(0.5), abs=1e-12)
    assert math.exp(got) == pytest.approx(
        quad_cir_marginal(0, 1.0, [0], p), rel=1e-9)


def test_log_marginal_empty_batch(cir_params):
    assert log_marginal(7, 3.0, ObservationRecord(0, ()), cir_params) == 0.0


def test_log_marginal_chain_rule(cir_params):
    p = cir_params
    m, theta = 3, p.beta + 1.0
    joint = log_marginal(m, theta, ObservationRecord(0, (2, 5)), p)
    first = log_marginal(m, theta, ObservationRecord(0, (2,)), p)
    m1, t1 = update_conjugate(m, theta, ObservationRecord(0, (2,)), p)
    second = log_marginal(m1, t1, ObservationRecord(0, (5,)), p)
    assert joint == pytest.approx(first + second, abs=1e-12)


def test_log_marginal_matches_quadrature(cir_params):
    p = cir_params
    for m, theta, counts in [(0, p.beta, [4]), (2, p.beta + 1.0, [0, 3]),
                             (6, p.beta + 3.0, [1, 1, 2])]:
        got = math.exp(log_marginal(m, theta, ObservationRecord(0, tuple(counts)), p))
        want = quad_cir_marginal(m, theta, counts, p)
        assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# birth-death dual
# ---------------------------------------------------------------------------

def test_bd_rates_direct_values(cir_params):
    lam, beta_imm, mu = linear_bd_rates(2.1, cir_params)
    assert lam * 3 + beta_imm == pytest.approx(17.0)
    assert mu * 3 == pytest.approx(12.6)


def test_bd_rates_degenerate_cases(cir_params):
    lam, beta_imm, _ = linear_bd_rates(cir_params.beta, cir_params)
    assert lam * 5 + beta_imm == 0.0
    _, _, mu = linear_bd_rates(2.0, cir_params)
    assert mu * 0 == 0.0


def test_bd_rates_rejects_small_theta(cir_params):
    with pytest.raises(InvalidDualParam):
        linear_bd_rates(0.5 * cir_params.beta, cir_params)


def test_bd_total_rate_identity():
    # 2 s^2 th m + 2 s^2 (d/2+m)(th-b) = 2 g m + s^2 (d+4m)(th-b)
    rng = np.random.default_rng(3)
    for _ in range(200):
        delta = rng.uniform(0.5, 20)
        gamma = rng.uniform(0.2, 5)
        sigma = rng.uniform(0.3, 3)
        from dualfilter.cir import CIRParams
        p = CIRParams(delta, gamma, sigma)
        theta = p.beta + rng.uniform(0, 5)
        m = int(rng.integers(0, 50))
        lam, beta_imm, mu = linear_bd_rates(theta, p)
        rhs = 2 * gamma * m + sigma ** 2 * (delta + 4 * m) * (theta - p.beta)
        assert lam * m + beta_imm + mu * m == pytest.approx(rhs, rel=1e-10)


def test_embedded_up_prob_values():
    assert embedded_up_prob(3, 5.5, 1.1, 1) == pytest.approx(8.5 / 14.8)
    assert embedded_up_prob(0, 5.5, 1.1, 1) == 1.0
    # boundary m/k = alpha/beta gives 1/2
    assert embedded_up_prob(5, 5.0, 1.0, 1) == pytest.approx(0.5)
    # m/k above the prior mean ratio pushes the chain down
    assert embedded_up_prob(8, 5.0, 1.0, 1) < 0.5
    assert embedded_up_prob(2, 5.0, 1.0, 1) > 0.5


# ---------------------------------------------------------------------------
# Gillespie and two-stage samplers
# ---------------------------------------------------------------------------

def test_gillespie_no_event_limit(cir_params, rng):
    hits = sum(gillespie_bd(6, 1e-12, cir_params.beta + 1.0, cir_params, rng) == 6
               for _ in range(100_000))
    assert hits >= 100_000 * (1.0 - 1e-6)


def test_gillespie_pure_death_never_increases(cir_params, rng):
    for _ in range(500):
        assert gillespie_bd(5, 0.5, cir_params.beta, cir_params, rng) <= 5


def test_gillespie_matches_two_stage_sampler(cir_params):
    p = cir_params
    theta = p.beta + 1.0
    rng = np.random.default_rng(31)
    a = np.array([gillespie_bd(4, 0.05, theta, p, rng) for _ in range(100_000)])
    b = linear_bd_sample_many(4, 0.05, theta, p, np.random.default_rng(32), 100_000)
    assert tv_int_samples(a, b) < 0.02


def test_linear_bd_rates_decomposition(cir_params):
    p = cir_params
    theta = p.beta + 1.5
    lam, beta_imm, mu = linear_bd_rates(theta, p)
    for m in range(6):
        # the paper's B&D dual rates at state m
        birth = 2 * p.sigma ** 2 * (p.delta / 2 + m) * (theta - p.gamma / p.sigma ** 2)
        death = 2 * p.sigma ** 2 * theta * m
        assert lam * m + beta_imm == pytest.approx(birth, rel=1e-12)
        assert mu * m == pytest.approx(death, rel=1e-12)


def test_linear_bd_birth_rate_never_exceeds_death_rate():
    # fl(theta - beta) <= theta, so the B&D transition needs no lam > mu case
    from dualfilter.cir import CIRParams
    rng = np.random.default_rng(3)
    for _ in range(2000):
        p = CIRParams(*rng.uniform(0.01, 20.0, 3))
        theta = p.beta * (1.0 + 10.0 ** rng.uniform(-16.0, 16.0))
        lam, _, mu = linear_bd_rates(theta, p)
        assert lam <= mu


@pytest.mark.parametrize("ratio", [1e11, 1e13, 1e16])
def test_bd_survival_pair_exact_when_theta_dwarfs_beta(cir_params, ratio):
    # lam - mu = -2*gamma whatever theta, so no rate-tie limit applies: the
    # draw's (g, h) must match the closed form evaluated at 60 digits
    import mpmath

    from dualfilter.cir import _survival_pair
    p = cir_params
    theta = ratio * p.beta
    lam, _, mu = linear_bd_rates(theta, p)
    with mpmath.workdps(60):
        s2 = mpmath.mpf(p.sigma) ** 2
        lam_x = 2 * s2 * (mpmath.mpf(theta) - mpmath.mpf(p.gamma) / s2)
        mu_x = 2 * s2 * mpmath.mpf(theta)
        for t in (1e-3, 0.1, 1.0):
            e = mpmath.exp((lam_x - mu_x) * t)
            h = (lam_x - mu_x) / (lam_x * e - mu_x)
            got = _survival_pair(lam, mu, -2.0 * p.gamma, t)
            np.testing.assert_allclose(got, [float(h * e), float(h)], rtol=1e-12)


def test_linear_bd_pure_death_reduction_is_binomial(cir_params):
    # theta = beta: no births, no immigration; exact binomial thinning law
    p = cir_params
    t, m0 = 0.3, 12
    samples = linear_bd_sample_many(m0, t, p.beta, p,
                                    np.random.default_rng(42), 100_000)
    mu = 2.0 * p.sigma ** 2 * p.beta
    ref = binom.pmf(np.arange(m0 + 1), m0, math.exp(-mu * t))
    assert chi2_pvalue_vs_pmf(samples, ref) > 0.001


def test_linear_bd_zero_start_no_immigration(cir_params, rng):
    out = linear_bd_sample_many(0, 1.0, cir_params.beta, cir_params, rng, 1_000)
    assert np.all(out == 0)


# ---------------------------------------------------------------------------
# pure-death dual: deterministic flow and transitions
# ---------------------------------------------------------------------------

def test_pure_death_theta_endpoints(cir_params):
    assert pure_death_theta(0.0, 2.1, cir_params) == pytest.approx(2.1)
    assert pure_death_theta(1e9, 2.1, cir_params) == pytest.approx(
        cir_params.beta, rel=1e-12)


def test_pure_death_theta_matches_runge_kutta(cir_params):
    for theta0, t in [(2.1, 0.1), (5.0, 0.5), (0.7, 1.0)]:
        want = rk_pure_death_theta(t, theta0, cir_params)
        assert pure_death_theta(t, theta0, cir_params) == pytest.approx(
            want, abs=1e-9)


def test_pure_death_survival_matches_quadrature(cir_params):
    for theta0, t in [(2.1, 0.1), (4.0, 0.7)]:
        want = quad_survival(t, theta0, cir_params,
                             lambda u, th, pp: pure_death_theta(u, th, pp))
        assert pure_death_survival(t, theta0, cir_params) == pytest.approx(
            want, abs=1e-11)


def test_pure_death_pmf_am_t_zero(cir_params):
    pmf = pure_death_pmf([[4]], 0.0, 2.1, cir_params)[1]
    np.testing.assert_allclose(pmf, [0, 0, 0, 0, 1.0])


def test_pure_death_pmf_normalizes(cir_params):
    for m in (1, 4, 17):
        pmf = pure_death_pmf([[m]], 0.2, 2.5, cir_params)[1]
        assert abs(pmf.sum() - 1.0) <= 1e-12


def test_pure_death_transition_out_of_range(cir_params):
    # the pmf lives on 0..m: no mass above the start or below zero
    pmf = pure_death_pmf([[4]], 0.1, 2.1, cir_params)[1]
    assert len(pmf) == 5
    assert np.all(pmf >= 0.0)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_pure_death_pmf_matches_thinning_gillespie(cir_params):
    # oracle: inhomogeneous-rate simulation with RK-integrated flow
    p = cir_params
    m, t, theta0 = 4, 0.05, p.beta + 1.0
    rng = np.random.default_rng(11)
    samples = np.array([
        thinning_death_sample(m, t, theta0, p,
                              lambda u, th, pp: pure_death_theta(u, th, pp), rng)
        for _ in range(100_000)])
    pmf = pure_death_pmf([[m]], t, theta0, p)[1]
    assert tv_sample_vs_pmf(samples, pmf) < 0.02


# ---------------------------------------------------------------------------
# CIR transition sampler
# ---------------------------------------------------------------------------

def test_cir_transition_from_zero_is_gamma(cir_params, rng):
    p = cir_params
    t = 0.2
    xs = cir_transition_sample_many(np.full(200_000, 0.0), t, p, rng)
    r = p.beta / (1.0 - math.exp(-2.0 * p.gamma * t))
    want_mean = p.alpha / r
    assert abs(xs.mean() - want_mean) < 3 * xs.std() / math.sqrt(len(xs))
    want_var = p.alpha / r ** 2
    assert xs.var() == pytest.approx(want_var, rel=0.02)


def test_cir_transition_stationary_at_large_t(cir_params, rng):
    p = cir_params
    xs = cir_transition_sample_many(np.full(200_000, 9.0), 20.0, p, rng)
    want = p.delta * p.sigma ** 2 / (2.0 * p.gamma)
    assert abs(xs.mean() - want) < 3 * xs.std() / math.sqrt(len(xs))


def test_cir_transition_mean_identity(cir_params):
    p = cir_params
    x0, t = 5.0, 0.1
    xs = cir_transition_sample_many(np.full(1_000_000, x0), t, p,
                                    np.random.default_rng(17))
    want = x0 * math.exp(-2 * p.gamma * t) + \
        (p.delta * p.sigma ** 2 / (2 * p.gamma)) * (1 - math.exp(-2 * p.gamma * t))
    assert abs(xs.mean() - want) < 3 * xs.std() / math.sqrt(len(xs))


def test_cir_transition_scalar_wrapper(cir_params, rng):
    # one draw from one scalar state is a single non-negative value
    out = cir_transition_sample_many(2.0, 0.5, cir_params, rng)
    assert out.shape == (1,)
    assert out[0] >= 0.0


# ---------------------------------------------------------------------------
# emission likelihood
# ---------------------------------------------------------------------------

def test_emission_log_pmf_matches_scipy(cir_params):
    from scipy.stats import poisson
    xs = np.array([0.3, 1.7, 6.0])
    y = ObservationRecord(0.0, (2, 0, 5))
    got = emission_log_pmf(xs, y, cir_params)
    want = sum(poisson.logpmf(c, cir_params.tau * xs) for c in (2, 0, 5))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_emission_log_pmf_boundary(cir_params):
    y = ObservationRecord(0.0, (1,))
    assert emission_log_pmf(np.array([0.0]), y, cir_params)[0] == -np.inf
    y0 = ObservationRecord(0.0, (0, 0))
    assert emission_log_pmf(np.array([0.0]), y0, cir_params)[0] == 0.0


def test_emission_log_pmf_empty_batch(cir_params):
    got = emission_log_pmf(np.array([0.0, 0.5, 3.0]), ObservationRecord(0.0, ()),
                           cir_params)
    np.testing.assert_array_equal(got, np.zeros(3))


# ---------------------------------------------------------------------------
# duality identity (spot check; the full sweep runs in acceptance)
# ---------------------------------------------------------------------------

def test_duality_identity_spot(cir_params):
    p = cir_params
    m, x, t, theta = 3, 0.5, 0.5, p.beta + 1.0
    rng = np.random.default_rng(5)
    xs = cir_transition_sample_many(np.full(100_000, x), t, p, rng)
    lhs = density_ratio(xs, m, theta, p)
    lhs_mean, lhs_se = lhs.mean(), lhs.std() / math.sqrt(len(lhs))

    ms = linear_bd_sample_many(m, t, theta, p, rng, 100_000)
    hvals = np.array([density_ratio(x, int(k), theta, p)
                      for k in range(ms.max() + 1)])
    rhs = hvals[ms]
    rhs_mean, rhs_se = rhs.mean(), rhs.std() / math.sqrt(len(rhs))
    assert abs(lhs_mean - rhs_mean) <= 4.0 * math.hypot(lhs_se, rhs_se)


def test_gillespie_bd_budget(cir_params, rng):
    from dualfilter import SimulationBudgetExceeded
    with pytest.raises(SimulationBudgetExceeded):
        gillespie_bd(5, 100.0, cir_params.beta + 2.0, cir_params, rng,
                     max_events=10)
