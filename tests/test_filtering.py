import functools
import math

import numpy as np
import pytest

from dualfilter import (AlignmentError, CIRModel, CIRParams, ConfigError,
                        DualFilterError, FilterConfig, ObservationRecord,
                        ParticleCloud, WFModel, WFParams, ZeroLikelihood,
                        error_metrics, run_filter)
from dualfilter import cir, wf
from dualfilter.experiments import build_spec, simulate_dataset
from dualfilter.filtering import density_on_grid, grid_l1, metric_edges
from dualfilter.mixtures import (DualMixture, dual_particle_propagate, mixture_quantile,
                                 propagate, prune, sample_mixture, systematic_counts,
                                 update)

from .oracles import (beta_marginal_logpdf_rows, cir_grid_forward_backward,
                      cir_two_step_enumeration, mixture_dict, wf_two_step_brute_force)


def cir_records(counts, dt=0.1):
    return [ObservationRecord(i * dt, tuple(c) if isinstance(c, (tuple, list))
            else (c,)) for i, c in enumerate(counts)]


def wf_records(count_rows, dt=1.0):
    return [ObservationRecord(i * dt, tuple(c)) for i, c in enumerate(count_rows)]


CIR = CIRParams(11.0, 1.1, 1.0)
CIR_MODEL = CIRModel(CIR)
WF2 = WFParams((1.1, 1.1))
WF2_MODEL = WFModel(WF2)
WF3 = WFParams((1.1, 1.1, 1.1))
WF3_MODEL = WFModel(WF3)
NAN, INF = float("nan"), float("inf")


def unreachable_sampler(*args):
    raise AssertionError("the particle count must be checked before the sampler runs")


def cir_metrics_with_signal(signal):
    trace = run_filter(cir_records([4, 2, 7]), FilterConfig(method="exact"), CIR_MODEL)
    return error_metrics(trace, trace, signal=signal)


# ---------------------------------------------------------------------------
# FilterConfig validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(method="nope")
    with pytest.raises(ValueError):
        FilterConfig(method="dual_particle", n_particles=100)  # missing dual_kind
    with pytest.raises(ValueError):
        FilterConfig(method="bootstrap")


@pytest.mark.parametrize("make", [
    lambda: FilterConfig(method="nope"),
    lambda: FilterConfig(method="exact", prune_eps=1.0),
    lambda: FilterConfig(method="exact", prune_eps=0.05),
    lambda: FilterConfig(method="bootstrap"),
    lambda: FilterConfig(method="dual_particle", n_particles=100),
    lambda: ObservationRecord(-0.1, (1,)),
    lambda: ObservationRecord(0.0, (2, -1)),
    lambda: CIRParams(11.0, 0.0, 1.0),
    lambda: WFParams((1.1,)),
    lambda: WFParams((1.1, -1.0)),
    lambda: CIRModel(CIRParams(11.0, 1.1, 1.0)).dual_sampler("moran"),
    lambda: WFModel(WFParams((1.1, 1.1, 1.1))).dual_sampler("bd"),
    lambda: ObservationRecord(0.0, (2.7,)),
    lambda: ObservationRecord(0.0, (float("nan"),)),
    lambda: ObservationRecord(0.0, (float("inf"),)),
    lambda: ObservationRecord(float("nan"), (1,)),
    lambda: CIRParams(float("nan"), 1.1, 1.0),
    lambda: WFParams((float("nan"), 1.0)),
    lambda: WFParams((float("inf"), 1.0)),
    lambda: FilterConfig(method="bootstrap", n_particles=2.5),
    lambda: FilterConfig(method="exact", seed=-1),
    lambda: FilterConfig(method="exact", seed=1.5),
    lambda: FilterConfig(method="bootstrap", n_particles=10, dual_kind="bd"),
    lambda: FilterConfig(method="exact", n_particles=2),
    lambda: CIR_MODEL.pd_kernel(np.array([3]), 0.0, 0.1),
    lambda: cir.pure_death_flow(0.1, -1.0, CIR),
    lambda: CIR_MODEL.pd_kernel(np.array([-1]), 2.0, 0.1),
    lambda: CIR_MODEL.signal_sample_many(1.0, 0.0, np.random.default_rng(0)),
    lambda: DualMixture(CIR_MODEL, np.array([0, 1]), [0.5, 0.5]),
    lambda: DualMixture(CIR_MODEL, [[-1]], [1.0]),
    lambda: DualMixture(CIR_MODEL, [[2], [1]], [0.5, 0.5]),
    lambda: DualMixture(CIR_MODEL, [[0]], [0.5, 0.5]),
    lambda: DualMixture.from_weights(CIR_MODEL, [[0], [1]], [1.0]),
    lambda: DualMixture.from_weights(CIR_MODEL, np.zeros((1, 0)), [1.0]),
    lambda: prune(CIR_MODEL.prior_mixture(), 1.0),
    lambda: propagate(CIR_MODEL.prior_mixture(), 0.0),
    lambda: systematic_counts(np.array([0.5, 0.5]), 4, 1.0),
    lambda: dual_particle_propagate(CIR_MODEL.prior_mixture(),
                                    CIR_MODEL.dual_sampler("pure_death"), 0, 0.1,
                                    np.random.default_rng(0)),
    lambda: mixture_quantile(CIR_MODEL.prior_mixture(), 1.0),
    lambda: WF2_MODEL.shift(ObservationRecord(0.0, (1, 2, 3)), np.zeros((1, 2), np.int64),
                            None),
    lambda: WF2_MODEL.log_marginal_point(np.array([[-1, 2]]), None,
                                         ObservationRecord(0.0, (1, 1))),
    lambda: wf._start_rows([[-1, 2]], WF2),
    lambda: wf.block_count_probs(-1, 0.1, WF2),
    lambda: wf.block_count_probs(3, 0.0, WF2),
    lambda: wf.wf_transition_sample_many([0.5, 0.5], 0.0, WF2, np.random.default_rng(0)),
    lambda: DualMixture(CIR_MODEL, [[0], [1]], [0.0, 1.0]),
    lambda: DualMixture(CIR_MODEL, [[0], [1]], [-0.1, 1.1]),
    lambda: DualMixture(CIR_MODEL, [[0], [1]], [NAN, 1.0]),
    lambda: DualMixture(CIR_MODEL, [[0], [1]], [0.4, 0.5]),
    lambda: wf.block_count_probs(5, NAN, WF2),
    lambda: wf.block_count_probs(3, INF, WF2),
    lambda: wf.block_count_probs(0, -1.0, WF2),
    lambda: WF2_MODEL.pd_kernel([3], None, NAN),
    lambda: CIR_MODEL.pd_kernel([3], 2.0, NAN),
    lambda: CIR_MODEL.pd_kernel([3], NAN, 0.1),
    lambda: cir.pure_death_flow(0.1, NAN, CIR),
    lambda: CIR_MODEL.signal_sample_many(1.0, NAN, np.random.default_rng(0)),
    lambda: cir.linear_bd_sample_many(3, NAN, 2.0, CIR, np.random.default_rng(0), 4),
    lambda: cir.linear_bd_sample_many(3, 0.1, NAN, CIR, np.random.default_rng(0), 4),
    lambda: wf.wf_transition_sample_many([0.5, 0.5], NAN, WF2, np.random.default_rng(0)),
    lambda: wf.wf_transition_sample_many([0.5, 0.5], INF, WF2, np.random.default_rng(0)),
    lambda: wf.moran_sample_many([[1, 2]], NAN, WF2, np.random.default_rng(0)),
    lambda: wf.wf_chain_sample_many([[1, 2]], NAN, WF2, np.random.default_rng(0)),
    lambda: propagate(CIR_MODEL.prior_mixture(), NAN),
    lambda: dual_particle_propagate(CIR_MODEL.prior_mixture(),
                                    CIR_MODEL.dual_sampler("bd_gillespie"), 4, NAN,
                                    np.random.default_rng(0)),
    lambda: DualMixture(CIR_MODEL, [[1.5]], [1.0], 2.0),
    lambda: DualMixture.from_weights(CIR_MODEL, [[1.5], [1.7]], [1, 1], 2.0),
    lambda: wf.moran_sample_many([1.5, 2, 3], 0.1, WF3, np.random.default_rng(0)),
    lambda: WF3_MODEL.log_marginal_point([[0.5, 0, 0]], None,
                                         ObservationRecord(0.0, (1, 0, 0))),
    lambda: DualMixture.from_weights(CIR_MODEL, [[NAN]], [1.0]),
    lambda: DualMixture(CIR_MODEL, [[1, 2]], [1.0], 2.0).moments(),
    lambda: update(DualMixture(CIR_MODEL, [[1, 2]], [1.0], 2.0),
                   ObservationRecord(0.0, (1,))),
    lambda: DualMixture(WF3_MODEL, [[1, 2]], [1.0]).moments(),
    lambda: dual_particle_propagate(CIR_MODEL.prior_mixture(),
                                    lambda pts, c, th, dt, r: (pts, th), 4, 0.1,
                                    np.random.default_rng(0)),
    lambda: cir_metrics_with_signal(np.ones(5)),
    lambda: cir_metrics_with_signal(np.ones(6)),
    lambda: sample_mixture(CIR_MODEL.prior_mixture(), np.random.default_rng(0), -1),
    lambda: FilterConfig(method="bootstrap", n_particles=True),
    lambda: FilterConfig(method="exact", seed=False),
    lambda: wf.block_count_probs(2.5, 0.1, WF2),
    lambda: wf.block_count_probs(True, 0.1, WF2),
    lambda: wf.block_count_probs("3", 0.1, WF2),
    lambda: wf.block_count_probs(3, True, WF2),
    lambda: wf.block_count_probs(3, "0.1", WF2),
    lambda: sample_mixture(CIR_MODEL.prior_mixture(), np.random.default_rng(0), 2.5),
    lambda: sample_mixture(CIR_MODEL.prior_mixture(), np.random.default_rng(0), True),
    lambda: dual_particle_propagate(CIR_MODEL.prior_mixture(), unreachable_sampler, True,
                                    0.1, np.random.default_rng(0)),
    lambda: dual_particle_propagate(CIR_MODEL.prior_mixture(), unreachable_sampler, 2.5,
                                    0.1, np.random.default_rng(0)),
    lambda: systematic_counts(np.array([0.5, 0.5]), 2.5, 0.5),
    lambda: systematic_counts(np.array([0.5, 0.5]), True, 0.5),
    lambda: systematic_counts(np.array([0.5, 0.5]), -1, 0.5),
    lambda: CIR_MODEL.pd_kernel([3], 2.0, True),
    lambda: CIR_MODEL.pd_kernel([3], 2.0, INF),
    lambda: CIR_MODEL.pd_kernel([3], True, 0.1),
    lambda: cir.pure_death_flow(True, 2.0, CIR),
], ids=["method", "prune_eps", "prune_eps_unpruned", "n_particles",
        "dual_kind", "record_time", "record_counts", "cir_params", "wf_types", "wf_weights",
        "cir_kind", "wf_kind", "record_fractional_count", "record_nan_count",
        "record_inf_count", "record_nan_time", "cir_nan_param", "wf_nan_weight",
        "wf_inf_weight", "fractional_n_particles", "negative_seed",
        "fractional_seed", "dual_kind_unused", "n_particles_unused",
        "pd_theta_rate", "pd_survival_rate", "pd_pmf_source", "cir_transition_time",
        "mixture_shape", "mixture_negative", "mixture_unsorted", "mixture_weights",
        "from_weights_shape", "from_weights_empty_rows", "prune_eps_range",
        "propagate_time", "systematic_offset", "no_particles", "quantile_level",
        "wf_counts", "wf_log_marginal_counts", "wf_start_rows", "block_count_total",
        "block_count_time", "wf_transition_time", "mixture_zero_weight",
        "mixture_negative_weight", "mixture_nan_weight", "mixture_weight_sum",
        "block_count_nan_time", "block_count_inf_time", "block_count_empty_time",
        "typed_kernel_nan_time", "pd_pmf_nan_time", "pd_theta_nan_rate",
        "pd_survival_nan_rate", "cir_transition_nan_time", "bd_nan_time", "bd_nan_theta",
        "wf_transition_nan_time", "wf_transition_inf_time", "moran_nan_time",
        "wf_chain_nan_time", "propagate_nan_time", "particle_nan_time",
        "mixture_fractional", "from_weights_fractional", "moran_fractional_start",
        "wf_log_marginal_fractional", "from_weights_nan", "cir_moments_width", "cir_update_width",
        "wf_moments_width", "particle_row_count", "signal_size", "signal_width",
        "sample_negative_size", "bool_n_particles", "bool_seed",
        "block_count_fractional_total", "block_count_bool_total", "block_count_str_total",
        "block_count_bool_time", "block_count_str_time", "sample_fractional_size",
        "sample_bool_size", "particle_bool_count", "particle_fractional_count",
        "systematic_fractional_n", "systematic_bool_n", "systematic_negative_n",
        "pd_pmf_bool_time", "pd_pmf_inf_time", "pd_pmf_bool_theta",
        "pd_survival_bool_time"])
def test_boundary_inputs_raise_package_errors(make):
    with pytest.raises(DualFilterError):
        make()


@pytest.mark.parametrize("make", [
    lambda: FilterConfig("pruned", prune_eps=False),
    lambda: build_spec("cir_predictive", {"delta_t": True}),
    lambda: build_spec("cir_predictive", {"horizon": True}),
    lambda: WFParams((True, 2.0)),
    lambda: CIRParams(True, 1.0, 1.0),
    lambda: ObservationRecord(time=True, values=(1,)),
], ids=["prune_eps", "delta_t", "horizon", "wf_alpha", "cir_delta",
        "record_time"])
def test_bool_in_a_float_field_raises_config_error(make):
    # bool is an int subclass, so True used to pass as 1.0 and False as 0.0
    with pytest.raises(ConfigError):
        make()


# ---------------------------------------------------------------------------
# exact filter
# ---------------------------------------------------------------------------

def test_exact_single_time_is_conjugate_update(cir_model):
    cfg = FilterConfig(method="exact")
    trace = run_filter(cir_records([4]), cfg, cir_model)
    mix = trace.filtering[0]
    assert mix.points.tolist() == [[4]]
    assert mix.theta == cir_model.params.beta + 1.0
    p = cir_model.params
    assert trace.filt_mean[0, 0] == pytest.approx((p.alpha + 4) / (p.beta + 1))


def test_exact_long_horizon_collapses_to_prior(cir_model):
    cfg = FilterConfig(method="exact")
    trace = run_filter(cir_records([4]), cfg, cir_model)
    pred = propagate(trace.filtering[0], 1e3)
    assert mixture_dict(pred).get((0,), 0.0) >= 1.0 - 1e-6
    assert pred.theta == pytest.approx(cir_model.params.beta, rel=1e-12)


def test_exact_two_step_matches_path_enumeration(cir_model):
    cfg = FilterConfig(method="exact")
    trace = run_filter(cir_records([4, 2]), cfg, cir_model)
    want, want_theta, want_loglik = cir_two_step_enumeration(
        4, 2, 0.1, cir_model.params)
    got = mixture_dict(trace.filtering[1])
    assert set(got) == set(want)
    for k, v in want.items():
        assert got[k] == pytest.approx(v, abs=1e-8)
    assert trace.filtering[1].theta == pytest.approx(want_theta, abs=1e-9)
    assert trace.total_loglik == pytest.approx(want_loglik, abs=1e-8)


def test_exact_matches_grid_forward_backward(cir_model):
    records = cir_records([4, 2, 7, 3, 5])
    cfg = FilterConfig(method="exact")
    trace = run_filter(records, cfg, cir_model)
    grid = cir_grid_forward_backward(records, cir_model.params, n_grid=600)
    np.testing.assert_allclose(trace.filt_mean[:, 0], grid["filt_mean"], atol=1e-10)
    np.testing.assert_allclose(trace.filt_sd[:, 0], grid["filt_sd"], atol=1e-10)
    assert trace.total_loglik == pytest.approx(sum(grid["loglik"]), abs=1e-10)


def test_exact_batch_order_within_time_is_irrelevant(cir_model):
    cfg = FilterConfig(method="exact")
    a = run_filter(cir_records([(2, 3), 1]), cfg, cir_model)
    b = run_filter(cir_records([(3, 2), 1]), cfg, cir_model)
    np.testing.assert_array_equal(a.filtering[-1].points, b.filtering[-1].points)
    np.testing.assert_array_equal(a.filtering[-1].weights,
                                  b.filtering[-1].weights)


def test_exact_support_growth_bound(cir_model):
    counts = [3, 1, 4, 1, 5, 9, 2]
    cfg = FilterConfig(method="exact")
    trace = run_filter(cir_records(counts), cfg, cir_model)
    running = 0
    for i, mix in enumerate(trace.filtering):
        running += counts[i]
        assert mix.support_size <= running + 1
        assert max(pt[0] for pt in mix.points) <= running


def test_exact_loglik_increments_additive(cir_model):
    cfg = FilterConfig(method="exact")
    trace = run_filter(cir_records([4, 2, 7, 3]), cfg, cir_model)
    assert trace.total_loglik == pytest.approx(float(np.sum(trace.loglik)),
                                               abs=1e-10)


def test_exact_empty_dataset(cir_model):
    cfg = FilterConfig(method="exact")
    trace = run_filter([], cfg, cir_model)
    assert len(trace) == 0


def test_pruned_eps_zero_equals_exact(cir_model):
    records = cir_records([4, 2, 7, 3, 5])
    exact_cfg = FilterConfig(method="exact")
    pruned_cfg = FilterConfig(method="pruned", prune_eps=0.0)
    a = run_filter(records, exact_cfg, cir_model)
    b = run_filter(records, pruned_cfg, cir_model)
    for ma, mb in zip(a.filtering, b.filtering):
        np.testing.assert_array_equal(ma.points, mb.points)
        np.testing.assert_allclose(np.asarray(ma.weights),
                                   np.asarray(mb.weights), atol=1e-12)


def test_pruned_small_eps_close_to_exact(cir_model, rng):
    counts = rng.poisson(5.0, 30)
    records = cir_records(counts.tolist())
    a = run_filter(records, FilterConfig(method="exact"), cir_model)
    b = run_filter(records, FilterConfig(method="pruned", prune_eps=1e-10), cir_model)
    np.testing.assert_allclose(a.filt_mean, b.filt_mean, atol=1e-6)


def test_wf_exact_two_step_matches_brute_force(wf2_params):
    from dualfilter import WFModel
    model = WFModel(wf2_params)
    y0, y1, dt = (3, 1), (1, 1), 0.5
    cfg = FilterConfig(method="exact")
    trace = run_filter(wf_records([y0, y1], dt), cfg, model)
    got = mixture_dict(trace.filtering[1])
    want = wf_two_step_brute_force(y0, y1, dt, wf2_params, 100_000,
                                   np.random.default_rng(23))
    keys = set(got) | set(want)
    tv = 0.5 * sum(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in keys)
    assert tv < 0.03


# ---------------------------------------------------------------------------
# observation times
# ---------------------------------------------------------------------------

def test_exact_steps_by_the_observation_gap(cir_model):
    records = [ObservationRecord(0.0, (4,)), ObservationRecord(0.4, (2,))]
    trace = run_filter(records, FilterConfig(method="exact"), cir_model)
    want, want_theta, want_loglik = cir_two_step_enumeration(
        4, 2, 0.4, cir_model.params)
    got = mixture_dict(trace.filtering[1])
    assert set(got) == set(want)
    for k, v in want.items():
        assert got[k] == pytest.approx(v, abs=1e-8)
    assert trace.filtering[1].theta == pytest.approx(want_theta, abs=1e-9)
    assert trace.total_loglik == pytest.approx(want_loglik, abs=1e-8)


def test_longer_gaps_forget_more(cir_model):
    # over gaps of 5.0 the predictive law relaxes almost to the prior
    counts = [4, 2, 7, 3, 5]
    cfg = FilterConfig(method="exact")
    short = run_filter(cir_records(counts, dt=0.1), cfg, cir_model)
    long = run_filter(cir_records(counts, dt=5.0), cfg, cir_model)
    assert not np.allclose(short.filt_mean, long.filt_mean)
    prior_mean = cir_model.params.alpha / cir_model.params.beta
    assert np.all(np.abs(long.pred_mean[1:] - prior_mean)
                  < np.abs(short.pred_mean[1:] - prior_mean))


@pytest.mark.parametrize("times", [(0.0, 0.1, 0.1), (0.0, 0.2, 0.1)],
                         ids=["equal", "decreasing"])
@pytest.mark.parametrize("cfg", [
    FilterConfig(method="exact"),
    FilterConfig(method="pruned", prune_eps=1e-10),
    FilterConfig(method="dual_particle", n_particles=20, dual_kind="pure_death"),
    FilterConfig(method="bootstrap", n_particles=20),
], ids=lambda cfg: cfg.method)
def test_non_increasing_times_raise(cir_model, cfg, times):
    records = [ObservationRecord(t, (c,)) for t, c in zip(times, [4, 2, 7])]
    with pytest.raises(AlignmentError):
        run_filter(records, cfg, cir_model)


# ---------------------------------------------------------------------------
# dual particle filter
# ---------------------------------------------------------------------------

def test_dual_particle_deterministic_per_seed(cir_model):
    records = cir_records([4, 2, 7])
    cfg = FilterConfig(method="dual_particle", n_particles=200, dual_kind="bd", seed=5)
    a = run_filter(records, cfg, cir_model)
    b = run_filter(records, cfg, cir_model)
    np.testing.assert_array_equal(a.filt_mean, b.filt_mean)
    for ma, mb in zip(a.predictive, b.predictive):
        np.testing.assert_array_equal(ma.points, mb.points)
        np.testing.assert_array_equal(ma.weights, mb.weights)


def test_dual_particle_pd_one_step_consistency(cir_model):
    # N = 1e5 one-step predictive mean within 3 SE of the exact computation
    records = cir_records([4, 2])
    exact = run_filter(records, FilterConfig(method="exact"), cir_model)
    cfg = FilterConfig(method="dual_particle",
                       n_particles=100_000, dual_kind="pure_death", seed=3)
    approx = run_filter(records, cfg, cir_model)
    # SE of the predictive mean: spread of component means over resampling
    mix = exact.predictive[1]
    comp_means = cir_model.component_moments(mix.points, mix.theta)[0][:, 0]
    spread = float(np.sqrt(np.sum(mix.weights * comp_means ** 2)
                           - np.sum(mix.weights * comp_means) ** 2))
    se = spread / math.sqrt(cfg.n_particles)
    assert abs(approx.pred_mean[1, 0] - exact.pred_mean[1, 0]) <= 3 * se + 1e-12


def test_dual_particle_pd_mad_decreases_with_n(cir_model):
    records = cir_records([4, 2])
    exact = run_filter(records, FilterConfig(method="exact"), cir_model)
    target = exact.pred_mean[1, 0]
    mads = []
    for n in (100, 1_000, 10_000, 100_000):
        devs = []
        for seed in range(300 // int(math.log10(n)) or 1):
            cfg = FilterConfig(method="dual_particle",
                               n_particles=n, dual_kind="pure_death", seed=seed)
            tr = run_filter(records, cfg, cir_model)
            devs.append(abs(tr.pred_mean[1, 0] - target))
        mads.append(float(np.median(devs)))
    assert all(a > b for a, b in zip(mads, mads[1:]))


def test_dual_particle_wf_runs_all_kinds(wf3_model):
    records = wf_records([(3, 1, 1), (1, 2, 2)], dt=0.5)
    for kind in ("pure_death", "moran", "wf_chain", "wf_diffusion"):
        cfg = FilterConfig(method="dual_particle",
                           n_particles=100, dual_kind=kind, seed=1)
        trace = run_filter(records, cfg, wf3_model)
        assert len(trace) == 2
        assert np.all(np.isfinite(trace.filt_mean))


# ---------------------------------------------------------------------------
# bootstrap filter
# ---------------------------------------------------------------------------

def test_bootstrap_single_particle_trace_well_formed(cir_model):
    cfg = FilterConfig(method="bootstrap", n_particles=1, seed=2)
    trace = run_filter(cir_records([4, 2, 1]), cfg, cir_model)
    assert len(trace) == 3
    assert np.all(np.isfinite(trace.filt_mean))
    assert np.all(trace.filt_sd == 0.0)


def test_bootstrap_deterministic_per_seed(cir_model):
    cfg = FilterConfig(method="bootstrap", n_particles=64, seed=11)
    a = run_filter(cir_records([4, 2]), cfg, cir_model)
    b = run_filter(cir_records([4, 2]), cfg, cir_model)
    np.testing.assert_array_equal(a.filt_mean, b.filt_mean)


def test_bootstrap_static_limit_tracks_conjugate_posterior(cir_model):
    # tiny step: signal is frozen, so the filter must follow the conjugate
    # posterior of a fixed-parameter model
    p = cir_model.params
    counts = [5, 4, 6, 5, 5]
    cfg = FilterConfig(method="bootstrap", n_particles=30_000, seed=9)
    trace = run_filter(cir_records(counts, dt=1e-8), cfg, cir_model)
    run = 0
    for i, c in enumerate(counts):
        run += c
        want = (p.alpha + run) / (p.beta + (i + 1))
        assert abs(trace.filt_mean[i, 0] - want) < 0.05


def test_bootstrap_zero_likelihood_raises():
    class Degenerate:
        signal_dim = 1

        def sample_prior(self, rng, n):
            return np.zeros(n)

        def signal_sample_many(self, x, dt, rng):
            return x

        def emission_log_pmf(self, x, y):
            return np.full(len(x), -np.inf)

    cfg = FilterConfig(method="bootstrap", n_particles=8, seed=0)
    with pytest.raises(ZeroLikelihood):
        run_filter(cir_records([1]), cfg, Degenerate())


def test_bootstrap_wf_runs(wf3_model):
    cfg = FilterConfig(method="bootstrap", n_particles=200, seed=4)
    trace = run_filter(wf_records([(3, 1, 1), (0, 2, 3)], 0.5), cfg,
                       wf3_model)
    assert trace.filt_mean.shape == (2, 3)
    np.testing.assert_allclose(trace.filt_mean.sum(axis=1), 1.0, atol=1e-8)


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------

def test_error_metrics_zero_against_self(cir_model):
    records = cir_records([4, 2, 7, 1])
    trace = run_filter(records, FilterConfig(method="exact"), cir_model)
    out = error_metrics(trace, trace)
    assert out["summary"]["err_mean"] == 0.0
    assert out["summary"]["err_sd"] == 0.0


def test_error_metrics_detects_constant_shift(cir_model):
    records = cir_records([4, 2, 7, 1])
    trace = run_filter(records, FilterConfig(method="exact"), cir_model)
    import copy
    shifted = copy.copy(trace)
    shifted.filt_mean = trace.filt_mean + 0.1
    out = error_metrics(shifted, trace)
    np.testing.assert_allclose(out["per_step"]["err_mean"], 0.1, rtol=1e-12)
    assert out["summary"]["err_mean"] == pytest.approx(0.1)


def test_error_metrics_signal_deviation(cir_model):
    records = cir_records([4, 2])
    trace = run_filter(records, FilterConfig(method="exact"), cir_model)
    signal = np.array([[1.0], [2.0]])
    out = error_metrics(trace, trace, signal=signal)
    want = np.abs(trace.filt_mean - signal).mean(axis=1)
    np.testing.assert_allclose(out["per_step"]["err_signal"], want)


def test_error_metrics_alignment_error(cir_model):
    a = run_filter(cir_records([4, 2]), FilterConfig(method="exact"), cir_model)
    b = run_filter(cir_records([4, 2, 1]), FilterConfig(method="exact"), cir_model)
    with pytest.raises(AlignmentError):
        error_metrics(a, b)


def test_error_metrics_rejects_traces_without_steps(cir_model):
    trace = run_filter([], FilterConfig(method="exact"), cir_model)
    with pytest.raises(ConfigError):
        error_metrics(trace, trace)


def test_grid_l1_between_mixture_and_cloud(cir_model, rng):
    # a large iid cloud from the mixture itself has small grid-L1 distance
    from dualfilter.mixtures import sample_mixture
    records = cir_records([4, 2])
    trace = run_filter(records, FilterConfig(method="exact"), cir_model)
    ref = trace.predictive[1]
    edges = metric_edges(ref)
    cloud = ParticleCloud(sample_mixture(ref, rng, 200_000),
                          np.full(200_000, 1.0 / 200_000))
    assert grid_l1(cloud, density_on_grid(ref, edges), edges) < 0.05
    assert grid_l1(ref, density_on_grid(ref, edges), edges) == 0.0


def test_grid_l1_wf_mixture_against_itself(wf3_model):
    # many rows share their first-coordinate Beta marginal
    records = wf_records([(3, 1, 1), (1, 2, 2)], dt=0.5)
    trace = run_filter(records, FilterConfig(method="exact"), wf3_model)
    ref = propagate(trace.filtering[-1], 0.1)
    pairs = np.stack(wf3_model._beta_params(ref.points), axis=1)
    assert len(np.unique(pairs, axis=0)) < len(ref.points)
    edges = metric_edges(ref)
    assert grid_l1(ref, density_on_grid(ref, edges), edges) == 0.0


def test_density_on_grid_desk_wf_reference_matches_per_row_formula():
    from dualfilter.experiments import _predictive_context
    spec = build_spec("wf_predictive", None, seed=1234)
    ctx = _predictive_context(spec, 0)
    ref, edges = ctx["ref_pred"], ctx["edges"]
    centers = 0.5 * (edges[:-1] + edges[1:])
    rows = beta_marginal_logpdf_rows(centers, ref.points, ref.model.params.alpha)
    logpdf, index = ref.model.marginal_component_logpdf(centers, ref.points)
    assert np.array_equal(logpdf[index], rows)
    # one row per distinct (a, b) pair
    pairs = np.stack(ref.model._beta_params(ref.points), axis=1)
    assert len(logpdf) == len(np.unique(pairs, axis=0)) < len(ref.points)
    assert np.array_equal(density_on_grid(ref, edges), ref.weights @ np.exp(rows))


def test_density_on_grid_mixture_integrates(cir_model):
    trace = run_filter(cir_records([4]), FilterConfig(method="exact"), cir_model)
    mix = trace.filtering[0]
    edges = metric_edges(mix)
    dens = density_on_grid(mix, edges)
    mass = float(np.sum(dens * np.diff(edges)))
    assert mass == pytest.approx(1.0, abs=2e-3)


# ---------------------------------------------------------------------------
# Particle log-evidence against the exact evidence
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _evidence_case(scenario: str):
    """Model, data and exact log-evidence of a short dataset: CIR(11, 1.1, 1)
    at 10 times spaced 0.1, or the 3-type WF at 5 times spaced 0.5 with 10
    draws each."""
    overrides = ({"n_times": 10} if scenario == "cir_filtering"
                 else {"n_times": 5, "delta_t": 0.5, "batch_size": 10})
    spec = build_spec(scenario, overrides)
    _, data = simulate_dataset(spec, np.random.default_rng(1))
    model = spec.build_model()
    return model, data, run_filter(data, FilterConfig("exact"), model).total_loglik


@pytest.mark.parametrize("scenario,method,kind,n,gated", [
    ("cir_filtering", "bootstrap", None, 100, True),
    ("cir_filtering", "dual_particle", "pure_death", 50, True),
    ("cir_filtering", "dual_particle", "bd", 50, True),
    ("wf_filtering", "dual_particle", "pure_death", 50, True),
    ("wf_filtering", "dual_particle", "moran", 50, True),
    ("wf_filtering", "dual_particle", "wf_chain", 50, False),
    ("wf_filtering", "dual_particle", "wf_diffusion", 50, False),
])
def test_particle_evidence_is_unbiased(scenario, method, kind, n, gated):
    # exp(loglik) of a particle filter whose moves follow the exact law is
    # an unbiased estimate of the evidence; the WF-chain and binned-diffusion
    # duals approximate the Moran dual, so their bias is only reported
    model, data, exact = _evidence_case(scenario)
    ratio = np.array([math.exp(run_filter(data, FilterConfig(
        method, seed=seed, n_particles=n, dual_kind=kind), model).total_loglik - exact)
        for seed in range(400)])
    mean, se = ratio.mean(), ratio.std(ddof=1) / math.sqrt(len(ratio))
    print(f"{scenario} {kind or method} N={n}: mean exp(ll - ll_exact) "
          f"{mean:.4f} +- {se:.4f}")
    if gated:
        assert abs(mean - 1.0) < 4.0 * se
