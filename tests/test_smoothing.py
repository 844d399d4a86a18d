import math

import numpy as np
import pytest
from scipy.special import gammaln

from dualfilter import (FilterConfig, ObservationRecord, UnsupportedModel, WFModel,
                        WFParams, run_filter, smoother)
from dualfilter.experiments import REFERENCE
from dualfilter.mixtures import mixture_pdf

from .oracles import (cir_grid_forward_backward, cir_log_density_ratio, closure_spread,
                      wf_log_density_ratio, wf_spectral_forward_backward)


def cir_records(counts, dt=0.1):
    return [ObservationRecord(i * dt, (c,)) for i, c in enumerate(counts)]


def test_cir_closure_constant_in_x(cir_model):
    # h(x,2,2.1) h(x,3,3.1) / h(x,5,4.1) is constant over a wide grid
    grid = np.linspace(0.1, 10.0, 100)
    spread = closure_spread(cir_model, (2,), (3,), 2.1, 3.1, grid)
    assert spread < 1e-9
    assert cir_model.combine((2,), (3,), 2.1, 3.1)[1] == pytest.approx(4.1)


def test_wf_closure_constant_in_x(wf3_model):
    base = np.linspace(0.05, 0.9, 15)
    grid = np.stack([base, (1 - base) / 3, 2 * (1 - base) / 3], axis=1)
    spread = closure_spread(wf3_model, (2, 0, 1), (1, 1, 0), None, None, grid)
    assert spread < 1e-9


def test_cir_closure_value_identity(cir_model):
    # numeric check of h*h = C*h(combined) at scattered points
    p = cir_model.params
    for x in (0.3, 1.7, 6.0):
        lhs = (cir_log_density_ratio(x, 2, 2.1, p)
               + cir_log_density_ratio(x, 3, 3.1, p))
        rhs = (cir_model.combine((2,), (3,), 2.1, 3.1)[0]
               + cir_log_density_ratio(x, 5, 4.1, p))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_wf_closure_value_identity(wf3_model):
    p = wf3_model.params
    x = np.array([0.2, 0.5, 0.3])
    m, n = (2, 0, 1), (1, 1, 0)
    lhs = wf_log_density_ratio(x, m, p) + wf_log_density_ratio(x, n, p)
    rhs = (wf3_model.combine(m, n)[0]
           + wf_log_density_ratio(x, (3, 1, 1), p))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_combine_matches_the_closure_formulas(cir_model, wf3_model):
    # log C and the combined theta, bit for bit, on all pairs of two random
    # supports shaped as the smoother pairs them
    rng = np.random.default_rng(18)
    p = cir_model.params
    a, beta = p.alpha, p.beta
    m, n = rng.integers(0, 30, (12, 1, 1)), rng.integers(0, 30, (1, 9, 1))
    ta, tb = (beta + rng.uniform(0.0, 5.0, 2)).tolist()
    mi, ni = m[..., 0], n[..., 0]
    want = (gammaln(a) - gammaln(a + mi) - gammaln(a + ni) + gammaln(a + mi + ni)
            - a * math.log(beta)
            + (a + mi) * math.log(ta) + (a + ni) * math.log(tb)
            - (a + mi + ni) * math.log(ta + tb - beta))
    log_c, theta = cir_model.combine(m, n, ta, tb)
    np.testing.assert_array_equal(log_c, want)
    assert theta == ta + tb - beta

    theta_wf, alpha = wf3_model.params.theta, np.asarray(wf3_model.params.alpha)
    m = rng.integers(0, 10, (12, 1, 3)).astype(float)
    n = rng.integers(0, 10, (1, 9, 3)).astype(float)
    mt, nt = m.sum(axis=-1), n.sum(axis=-1)
    want = (gammaln(theta_wf + mt) + gammaln(theta_wf + nt)
            - gammaln(theta_wf) - gammaln(theta_wf + mt + nt)
            + (gammaln(alpha) + gammaln(alpha + m + n)
               - gammaln(alpha + m) - gammaln(alpha + n)).sum(axis=-1))
    log_c, theta = wf3_model.combine(m, n)
    np.testing.assert_array_equal(log_c, want)
    assert theta is None


def test_terminal_smoothing_equals_filtering(cir_model):
    records = cir_records([4, 2, 7, 1])
    cfg = FilterConfig(method="exact")
    trace = run_filter(records, cfg, cir_model)
    out = smoother(trace)
    last = out[-1]
    filt = trace.filtering[-1]
    np.testing.assert_array_equal(last.points, filt.points)
    assert last.theta == pytest.approx(filt.theta, rel=1e-12)
    np.testing.assert_allclose(np.asarray(last.weights),
                               np.asarray(filt.weights), atol=1e-12)


def test_terminal_smoothing_equals_filtering_wf(wf3_model):
    records = [ObservationRecord(0.0, (3, 1, 0)),
               ObservationRecord(0.5, (1, 1, 1))]
    cfg = FilterConfig(method="exact")
    trace = run_filter(records, cfg, wf3_model)
    out = smoother(trace)
    last = out[-1]
    filt = trace.filtering[-1]
    np.testing.assert_array_equal(last.points, filt.points)
    np.testing.assert_allclose(np.asarray(last.weights),
                               np.asarray(filt.weights), atol=1e-12)


def test_single_observation_smoothing_is_filtering(cir_model):
    records = cir_records([4])
    cfg = FilterConfig(method="exact")
    trace = run_filter(records, cfg, cir_model)
    out = smoother(trace)
    assert len(out) == 1
    np.testing.assert_allclose(np.asarray(out[0].weights),
                               np.asarray(trace.filtering[0].weights),
                               atol=1e-14)


def test_smoothing_matches_grid_forward_backward(cir_model):
    records = cir_records([4, 2, 7, 3])
    cfg = FilterConfig(method="exact")
    trace = run_filter(records, cfg, cir_model)
    out = smoother(trace)
    grid = cir_grid_forward_backward(records, cir_model.params, n_grid=600)
    for i, mix in enumerate(out):
        mean, _ = mix.moments()
        assert mean[0] == pytest.approx(grid["smooth_mean"][i], abs=1e-10)
    # pointwise density agreement at the first time
    dens = mixture_pdf(out[0], grid["grid"])
    np.testing.assert_allclose(dens, grid["smooth"][0], atol=1e-10)


@pytest.mark.parametrize("gap", [1.0, 0.1, 0.05, pytest.param(
    np.random.default_rng(11).exponential(0.4, 4), id="exponential")])
@pytest.mark.parametrize("alpha", [(1.1, 1.1), (3.0, 1.5), (0.7, 2.0), (1.1, 0.7, 2.0)])
def test_wf_exact_filter_and_smoother_match_spectral_oracle(alpha, gap):
    # 5 records of 6-20 draws; the K = 3 model sees (c1, 0, 0) only, so its
    # first coordinate is the two-type model (a1, a2 + a3) seeing (c1, 0).
    # ``gap`` is one equal gap or the four irregular gaps 0.092-0.449
    times = ([i * gap for i in range(5)] if np.isscalar(gap)
             else np.cumsum(np.r_[0.0, gap]).tolist())
    rng = np.random.default_rng(7)
    records = []
    for t in times:
        n = int(rng.integers(6, 21))
        c1 = int(rng.binomial(n, 0.35))
        records.append(ObservationRecord(t, (c1, n - c1) if len(alpha) == 2
                                         else (c1, 0, 0)))
    model = WFModel(WFParams(alpha))
    trace = run_filter(records, FilterConfig("exact"), model)
    smooth = [mix.moments()[0][0] for mix in smoother(trace)]
    pairs = [ObservationRecord(r.time, (r.values[0], sum(r.values[1:]))) for r in records]
    want = wf_spectral_forward_backward(pairs, (alpha[0], sum(alpha[1:])))
    np.testing.assert_allclose(trace.filt_mean[:, 0], want["filt_mean"], rtol=0, atol=1e-10)
    np.testing.assert_allclose(trace.loglik, want["loglik"], rtol=0, atol=1e-10)
    np.testing.assert_allclose(smooth, want["smooth_mean"], rtol=0, atol=1e-10)


def test_cir_exact_filter_and_smoother_match_grid_oracle_at_irregular_gaps(cir_model):
    # gaps 0.05, 0.3, 0.05, 0.3 and 0.15: three distinct transitions of the
    # grid oracle, whose trapezoid sums of these smooth laws reach 1e-13 at
    # 600 points
    times = np.cumsum([0.0, 0.05, 0.3, 0.05, 0.3, 0.15]).tolist()
    records = [ObservationRecord(t, (c,)) for t, c in zip(times, [4, 2, 7, 3, 5, 6])]
    trace = run_filter(records, FilterConfig("exact"), cir_model)
    out = smoother(trace)
    grid = cir_grid_forward_backward(records, cir_model.params, n_grid=600)
    np.testing.assert_allclose(trace.filt_mean[:, 0], grid["filt_mean"], rtol=0, atol=1e-10)
    np.testing.assert_allclose(trace.filt_sd[:, 0], grid["filt_sd"], rtol=0, atol=1e-10)
    np.testing.assert_allclose(trace.loglik, grid["loglik"], rtol=0, atol=1e-10)
    smooth = [mix.moments()[0][0] for mix in out]
    np.testing.assert_allclose(smooth, grid["smooth_mean"], rtol=0, atol=1e-10)
    np.testing.assert_allclose(mixture_pdf(out[0], grid["grid"]), grid["smooth"][0],
                               rtol=0, atol=1e-10)


def test_reference_trace_smooths_close_to_the_cir_grid_oracle(cir_model):
    # the irregular-gap records above, filtered and smoothed under the
    # scenarios' reference cuts (errors 9.9e-11 and 1.0e-11 when written)
    times = np.cumsum([0.0, 0.05, 0.3, 0.05, 0.3, 0.15]).tolist()
    records = [ObservationRecord(t, (c,)) for t, c in zip(times, [4, 2, 7, 3, 5, 6])]
    out = smoother(run_filter(records, REFERENCE, cir_model))
    grid = cir_grid_forward_backward(records, cir_model.params, n_grid=600)
    smooth = [mix.moments()[0][0] for mix in out]
    np.testing.assert_allclose(smooth, grid["smooth_mean"], rtol=0, atol=1e-9)
    np.testing.assert_allclose(mixture_pdf(out[0], grid["grid"]), grid["smooth"][0],
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("alpha", [(1.1, 1.1), (3.0, 1.5)])
def test_pruned_wf_smoother_matches_spectral_oracle_at_desk_size(alpha):
    # 10 records of 20 draws at gap 1, as in the wf_filtering desk preset;
    # the smoothed laws keep at most 115 rows (errors below 5e-14 when
    # written)
    rng = np.random.default_rng(5)
    records = []
    for t in range(10):
        c1 = int(rng.binomial(20, 0.35))
        records.append(ObservationRecord(float(t), (c1, 20 - c1)))
    cfg = FilterConfig("pruned", prune_eps=1e-12, kernel_tail_eps=1e-14)
    out = smoother(run_filter(records, cfg, WFModel(WFParams(alpha))))
    want = wf_spectral_forward_backward(records, alpha)
    smooth = [mix.moments()[0][0] for mix in out]
    np.testing.assert_allclose(smooth, want["smooth_mean"], rtol=0, atol=1e-11)


def test_smoothing_moves_toward_future_information(cir_model):
    # a large later observation should pull the time-0 smoothed mean above
    # the filtered mean
    records = cir_records([2, 20])
    cfg = FilterConfig(method="exact")
    trace = run_filter(records, cfg, cir_model)
    out = smoother(trace)
    smooth_mean, _ = out[0].moments()
    assert smooth_mean[0] > trace.filt_mean[0, 0]


def test_smoother_rejects_particle_trace(cir_model):
    records = cir_records([4, 2])
    cfg = FilterConfig(method="bootstrap", n_particles=50, seed=1)
    trace = run_filter(records, cfg, cir_model)
    with pytest.raises(UnsupportedModel):
        smoother(trace)


def test_smoother_of_an_empty_trace_is_empty(cir_model):
    assert smoother(run_filter([], FilterConfig(method="exact"), cir_model)) == []


def test_smoother_takes_a_kernel_cut_wf_trace(wf3_model):
    records = [ObservationRecord(0.0, (2, 1, 0)), ObservationRecord(0.5, (0, 1, 2))]
    cut = FilterConfig(method="pruned", kernel_tail_eps=1e-14)
    assert len(smoother(run_filter(records, cut, wf3_model))) == 2


@pytest.mark.parametrize("name", ["cir", "wf"])
def test_pruned_trace_at_zero_smooths_like_exact(cir_model, wf3_model, name):
    # a pruned trace at eps 0 runs the exact steps, forward and backward
    if name == "cir":
        model, records = cir_model, cir_records([4, 2, 7, 3, 5, 1])
    else:
        model = wf3_model
        records = [ObservationRecord(0.0, (3, 1, 0)), ObservationRecord(0.5, (1, 1, 1)),
                   ObservationRecord(1.0, (0, 2, 1))]
    zero = FilterConfig("pruned", prune_eps=0.0, kernel_tail_eps=0.0)
    a = smoother(run_filter(records, FilterConfig("exact"), model))
    b = smoother(run_filter(records, zero, model))
    for ma, mb in zip(a, b, strict=True):
        np.testing.assert_array_equal(ma.points, mb.points)
        np.testing.assert_array_equal(ma.weights, mb.weights)
        assert ma.theta == mb.theta


def test_smoother_pruned_trace_close_to_exact(cir_model):
    records = cir_records([4, 2, 7, 3, 5, 1])
    exact_cfg = FilterConfig(method="exact")
    pruned_cfg = FilterConfig(method="pruned", prune_eps=1e-10)
    a = smoother(run_filter(records, exact_cfg, cir_model))
    b = smoother(run_filter(records, pruned_cfg, cir_model))
    for ra, rb in zip(a, b):
        ma, _ = ra.moments()
        mb, _ = rb.moments()
        assert ma[0] == pytest.approx(mb[0], abs=1e-6)


@pytest.mark.parametrize("name,kind", [("cir", "pure_death"), ("cir", "bd"),
                                       ("wf", "moran")])
def test_terminal_smoothing_of_dual_particle_trace_is_filtering(cir_model, wf3_model,
                                                                name, kind):
    # a dual_particle forward trace gets the exact backward pass, whose last
    # mixture is the prior, so the last smoothed law is the filtering law
    if name == "cir":
        model, records = cir_model, cir_records([4, 2, 7, 3, 5])
    else:
        model = wf3_model
        records = [ObservationRecord(0.0, (3, 1, 0)), ObservationRecord(0.5, (1, 1, 1)),
                   ObservationRecord(1.0, (0, 2, 1))]
    cfg = FilterConfig(method="dual_particle", n_particles=200, dual_kind=kind, seed=3)
    trace = run_filter(records, cfg, model)
    last, filt = smoother(trace)[-1], trace.filtering[-1]
    np.testing.assert_array_equal(last.points, filt.points)
    np.testing.assert_allclose(last.weights, filt.weights, rtol=0.0, atol=1e-12)
    if filt.theta is None:
        assert last.theta is None
    else:
        assert abs(last.theta - filt.theta) <= 1e-12


def test_wf_smoothing_mean_against_monte_carlo(wf3_model):
    # p(x_0 | y_0, y_1) mean via importance reweighting of prior draws:
    # weight = f(y0 | x0) * E[f(y1 | X_dt) | x0], inner expectation by MC
    records = [ObservationRecord(0.0, (3, 1, 0)),
               ObservationRecord(0.4, (0, 2, 2))]
    cfg = FilterConfig(method="exact")
    trace = run_filter(records, cfg, wf3_model)
    out = smoother(trace)
    smooth_mean, _ = out[0].moments()

    rng = np.random.default_rng(8)
    n_outer, n_inner = 20_000, 40
    x0 = wf3_model.sample_prior(rng, n_outer)
    logw0 = wf3_model.emission_log_pmf(x0, records[0])
    x0_rep = np.repeat(x0, n_inner, axis=0)
    x1 = wf3_model.signal_sample_many(x0_rep, 0.4, rng)
    like1 = np.exp(wf3_model.emission_log_pmf(x1, records[1]))
    inner = like1.reshape(n_outer, n_inner).mean(axis=1)
    w = np.exp(logw0) * inner
    w /= w.sum()
    mc_mean = w @ x0
    se = math.sqrt(float(np.sum(w[:, None] ** 2 * (x0 - mc_mean) ** 2)))
    assert np.abs(smooth_mean - mc_mean).max() < max(4 * se, 0.01)


def test_smoother_long_series_keeps_weights_positive(cir_model):
    # weights that underflow to zero in normalization are dropped, so a
    # T=200 exact trace of Poisson(5) counts smooths to the end
    counts = np.random.default_rng(0).poisson(5, 200)
    records = cir_records(counts.tolist())
    cfg = FilterConfig(method="exact")
    trace = run_filter(records, cfg, cir_model)
    out = smoother(trace)
    assert len(out) == 200
    for mix in out:
        weights = np.asarray(mix.weights)
        assert np.all(weights > 0.0)
        assert abs(weights.sum() - 1.0) <= 1e-10
