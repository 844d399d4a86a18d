import math
import re

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import beta, dirichlet

from dualfilter import (DegenerateWeights, DimensionError, DomainError, DualMixture,
                        InvalidKernel, ObservationRecord, ZeroLikelihood,
                        dual_particle_propagate, mixture_marginal_pdf,
                        mixture_pdf, propagate, prune, systematic_counts, update)
from dualfilter import mixtures
from dualfilter.cir import CIRModel, CIRParams
from dualfilter.mixtures import mixture_quantile
from dualfilter.wf import WFModel, WFParams

from .oracles import death_kernel, mixture_dict, quad_cir_marginal


def gamma_model(delta=2.0, gamma=1.0, sigma=1.0):
    return CIRModel(CIRParams(delta, gamma, sigma))


class StubModel:
    """A one-dimensional model whose update and propagation pieces are the
    given functions."""

    signal_dim = 1

    def __init__(self, law=None, log_marginal=None, shift=None):
        self.pd_kernel = law
        self.log_marginal_point = log_marginal
        self.shift = shift


def test_models_define_every_protocol_member_in_their_class_body():
    # perfbench traces the model methods by patching the class __dict__, so a
    # member inherited or defined at module level would escape the trace
    doc = mixtures.__doc__
    protocol = doc[doc.index("The model protocol"):doc.index("Mixtures are built")]
    members = set(re.findall(r"``([a-z_][a-z0-9_]*)[(`]", protocol))
    assert len(members) == 15
    assert "theta_flow" not in members
    for model in (CIRModel, WFModel):
        assert members <= vars(model).keys(), members - vars(model).keys()


def make_mix(points, weights, theta=1.0, model=None):
    model = model or gamma_model()
    return DualMixture.from_weights(model, points, weights, theta)


# ---------------------------------------------------------------------------
# normalization in from_weights: merging, dropping zeros
# ---------------------------------------------------------------------------

def test_normalize_symmetric():
    out = make_mix([(0,), (1,)], [2.0, 2.0])
    assert mixture_dict(out) == {(0,): 0.5, (1,): 0.5}


def test_normalize_drops_zero_weights():
    out = make_mix([(0,), (1,)], [3.0, 0.0])
    assert mixture_dict(out) == {(0,): 1.0}
    # a denormal weight that underflows to zero in the division
    assert mixture_dict(make_mix([(0,), (1,)], [4.0, 5e-324])) == {(0,): 1.0}


def test_normalize_rejects_all_zero():
    with pytest.raises(DegenerateWeights):
        make_mix([(0,), (1,)], [0.0, 0.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_normalize_rejects_invalid(bad):
    with pytest.raises(DegenerateWeights):
        make_mix([(0,), (1,)], [bad, 1.0])


def test_normalize_order_independent():
    a = make_mix([(3,), (1,), (2,)], [0.1, 0.7, 0.2])
    b = make_mix([(1,), (2,), (3,)], [0.7, 0.2, 0.1])
    assert a.points.tolist() == b.points.tolist() == [[1], [2], [3]]
    assert mixture_dict(a) == mixture_dict(b)


def test_from_weights_merges_repeated_rows():
    out = DualMixture.from_weights(WFModel(WFParams((1.0, 1.0))),
                                   [(1, 0), (0, 2), (1, 0)], [1.0, 2.0, 1.0])
    assert out.points.tolist() == [[0, 2], [1, 0]]
    np.testing.assert_array_equal(out.weights, [0.5, 0.5])


# ---------------------------------------------------------------------------
# DualMixture invariants
# ---------------------------------------------------------------------------

def test_mixture_weights_sum_to_one():
    mix = make_mix([(0,), (1,), (5,)], [0.2, 0.3, 0.5])
    assert abs(math.fsum(mix.weights) - 1.0) <= 1e-12
    assert mix.points.tolist() == [[0], [1], [5]]
    assert mix.points.dtype == np.int64


def test_mixture_rejects_duplicate_points():
    model = gamma_model()
    with pytest.raises(ValueError):
        DualMixture(model, ((1,), (1,)), np.array([0.5, 0.5]), 1.0)


def test_mixture_rejects_unsorted_or_negative_points():
    model = gamma_model()
    with pytest.raises(ValueError):
        DualMixture(model, ((2,), (1,)), np.array([0.5, 0.5]), 1.0)
    with pytest.raises(ValueError):
        DualMixture(model, ((-1,), (1,)), np.array([0.5, 0.5]), 1.0)


def test_mixture_holds_rows_to_its_models_width():
    # two-column rows used to propagate to a wider mixture and fail only at
    # the next update or moments
    with pytest.raises(DimensionError):
        propagate(DualMixture(gamma_model(), [[1, 2]], [1.0], 2.0), 0.1)
    with pytest.raises(DimensionError):
        propagate(DualMixture(WFModel(WFParams((1.1, 1.1, 1.1))), [[1, 2]], [1.0]), 0.1)
    # a mixture without a model takes any width
    assert DualMixture(None, [[1, 2]], [1.0]).dim == 2


def test_mixture_weights_immutable():
    mix = make_mix([(0,), (1,)], [0.5, 0.5])
    with pytest.raises(ValueError):
        mix.weights[0] = 0.9
    with pytest.raises(ValueError):
        mix.points[0, 0] = 3


# ---------------------------------------------------------------------------
# prune
# ---------------------------------------------------------------------------

def test_prune_renormalizes_and_reports_mass():
    mix = make_mix([(0,), (1,), (2,)], [0.7, 0.2999, 0.0001])
    out, removed = prune(mix, 1e-3)
    assert removed == pytest.approx(1e-4, rel=1e-9)
    assert out.support_size == 2
    assert out.weights[0] == pytest.approx(0.7 / 0.9999, rel=1e-12)
    assert out.weights[1] == pytest.approx(0.2999 / 0.9999, rel=1e-12)


def test_prune_eps_zero_is_identity():
    mix = make_mix([(0,), (1,)], [0.4, 0.6])
    out, removed = prune(mix, 0.0)
    assert removed == 0.0
    assert out is mix


def test_prune_geometric_l1_bound():
    # 1000-point geometric decay; pruning at 1e-10 moves almost nothing
    n = 1000
    ratio = 10 ** (-7.0 / (n - 1))  # smallest weight ~ 1e-7 of the largest
    raw = ratio ** np.arange(n)
    weights = raw / raw.sum()
    mix = make_mix([(i,) for i in range(n)], weights)
    eps = 1e-10
    out, removed = prune(mix, eps)
    kept = mixture_dict(out)
    l1 = sum(abs(kept.get(pt, 0.0) - w) for pt, w in mixture_dict(mix).items())
    assert l1 <= n * eps / (1.0 - 1e-7)


def test_prune_all_raises():
    mix = make_mix([(i,) for i in range(10)], np.full(10, 0.1))
    with pytest.raises(DegenerateWeights):
        prune(mix, 0.5)


def test_prune_rejects_bad_eps():
    mix = make_mix([(0,)], [1.0])
    with pytest.raises(ValueError):
        prune(mix, 1.0)


# ---------------------------------------------------------------------------
# propagate
# ---------------------------------------------------------------------------

def level_law(pick):
    """A ``pd_kernel`` whose law from each total puts all mass on ``pick(total)``."""
    def law(totals, th, dt):
        return np.concatenate([np.arange(t + 1) == pick(t) for t in totals]) * 1.0, th
    return law


identity_law = level_law(lambda t: t)


def test_propagate_identity_kernel():
    mix = make_mix([(0,), (2,), (5,)], [0.2, 0.5, 0.3],
                   model=StubModel(law=identity_law))
    out = propagate(mix, 0.5)
    np.testing.assert_array_equal(out.points, mix.points)
    np.testing.assert_allclose(out.weights, mix.weights, atol=1e-15)


def test_propagate_absorbing_kernel():
    mix = make_mix([(1,), (4,)], [0.5, 0.5], model=StubModel(law=level_law(lambda t: 0)))
    out = propagate(mix, 0.1)
    assert out.points.tolist() == [[0]]
    assert out.weights[0] == 1.0


def test_propagate_matches_matrix_exponential():
    # 3-state pure-death chain; kernel rows from expm are the exact
    # transition probabilities, propagate must reproduce w @ P
    q = np.array([[0.0, 0.0, 0.0],
                  [0.7, -0.7, 0.0],
                  [0.3, 2.0, -2.3]])
    dt = 0.1
    p_mat = expm(q * dt)
    w = np.array([0.5, 0.3, 0.2])

    def law(totals, th, _dt):
        return np.concatenate([p_mat[t, :t + 1] for t in totals]), th

    mix = make_mix([(0,), (1,), (2,)], w, model=StubModel(law=law))
    out = propagate(mix, dt)
    want = w @ p_mat
    np.testing.assert_allclose(np.asarray(out.weights), want, atol=1e-8)
    # mass before renormalization is preserved by a stochastic kernel
    raw = {}
    for n, pr, src in zip(*death_kernel(mix.model, mix.points, None, dt)[:3]):
        raw[n[0]] = raw.get(n[0], 0.0) + mix.weights[src] * pr
    assert abs(math.fsum(raw.values()) - 1.0) <= 1e-8


def test_propagate_rejects_super_stochastic_kernel():
    mix = make_mix([(0,)], [1.0], model=StubModel(
        law=lambda totals, th, dt: (np.array([1.2]), th)))
    with pytest.raises(InvalidKernel):
        propagate(mix, 0.1)
    # the error names the source whose mass exceeds one
    mix = make_mix([(0,), (2,)], [0.5, 0.5], model=StubModel(
        law=lambda totals, th, dt: (np.array([1.0, 0.7, 0.0, 0.5]), th)))
    with pytest.raises(InvalidKernel, match=r"from \[2\]"):
        propagate(mix, 0.1)


def test_propagate_evolves_theta():
    mix = make_mix([(0,)], [1.0], theta=2.0, model=StubModel(
        law=lambda totals, th, dt: (identity_law(totals, th, dt)[0], th + dt)))
    out = propagate(mix, 0.25)
    assert out.theta == 2.25


# ---------------------------------------------------------------------------
# update
# ---------------------------------------------------------------------------

def _cir_update_model(params):
    model = CIRModel(params)
    return StubModel(log_marginal=model.log_marginal_point, shift=model.shift)


def test_update_single_component():
    params = CIRParams(11.0, 1.1, 1.0)
    mix = make_mix([(0,)], [1.0], theta=params.beta, model=_cir_update_model(params))
    y = ObservationRecord(0.0, (4,))
    out, logev = update(mix, y)
    assert out.points.tolist() == [[4]]
    assert out.weights[0] == 1.0
    assert out.theta == params.beta + 1.0
    assert math.isfinite(logev)


def test_update_equal_marginals_keep_symmetry():
    mix = make_mix([(0,), (1,)], [0.5, 0.5], model=StubModel(
        log_marginal=lambda pts, th, yy: np.full(len(pts), -1.3),
        shift=lambda yy, pts, th: (pts + 1, th)))
    y = ObservationRecord(0.0, (1,))
    out, _ = update(mix, y)
    np.testing.assert_allclose(out.weights, [0.5, 0.5], atol=1e-15)


def test_update_cir_weights_match_quadrature(cir_params):
    params = cir_params
    model = _cir_update_model(params)
    theta = params.beta + 1.0
    mix = make_mix([(2,), (5,)], [0.4, 0.6], theta=theta, model=model)
    y = ObservationRecord(0.0, (3, 1))
    out, _ = update(mix, y)
    mu2 = quad_cir_marginal(2, theta, [3, 1], params)
    mu5 = quad_cir_marginal(5, theta, [3, 1], params)
    want = np.array([0.4 * mu2, 0.6 * mu5])
    want /= want.sum()
    np.testing.assert_allclose(np.asarray(out.weights), want, atol=1e-6)


def test_update_merge_batches_matches_single_update(cir_params):
    params = cir_params
    model = _cir_update_model(params)
    rng = np.random.default_rng(5)
    pts = [(i,) for i in range(6)]
    w = rng.dirichlet(np.ones(6))
    mix = make_mix(pts, w, theta=params.beta + 2.0, model=model)
    seq, _ = update(mix, ObservationRecord(0.0, (2,)))
    seq, _ = update(seq, ObservationRecord(0.0, (3,)))
    merged, _ = update(mix, ObservationRecord(0.0, (2, 3)))
    np.testing.assert_array_equal(seq.points, merged.points)
    assert seq.theta == merged.theta
    np.testing.assert_allclose(np.asarray(seq.weights),
                               np.asarray(merged.weights), atol=1e-10)


def test_update_zero_likelihood_raises():
    mix = make_mix([(0,), (1,)], [0.5, 0.5], model=StubModel(
        log_marginal=lambda pts, th, yy: np.full(len(pts), -np.inf),
        shift=lambda yy, pts, th: (pts, th)))
    y = ObservationRecord(0.0, (1,))
    with pytest.raises(ZeroLikelihood):
        update(mix, y)


def test_update_non_finite_marginal_raises():
    mix = make_mix([(0,)], [1.0], model=StubModel(
        log_marginal=lambda pts, th, yy: np.full(len(pts), np.nan),
        shift=lambda yy, pts, th: (pts, th)))
    y = ObservationRecord(0.0, (1,))
    with pytest.raises(ZeroLikelihood):
        update(mix, y)


def test_update_merges_colliding_indices():
    # non-injective shift map: both components land on the same index
    mix = make_mix([(0,), (1,)], [0.25, 0.75], model=StubModel(
        log_marginal=lambda pts, th, yy: np.zeros(len(pts)),
        shift=lambda yy, pts, th: (np.full_like(pts, 7), th)))
    y = ObservationRecord(0.0, (1,))
    out, _ = update(mix, y)
    assert out.points.tolist() == [[7]]
    assert out.weights[0] == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# systematic resampling and dual particle propagation
# ---------------------------------------------------------------------------

def test_systematic_counts_stratified_example():
    counts = systematic_counts(np.array([0.5, 0.5]), 2, 0.3)
    assert counts.tolist() == [1, 1]


def test_systematic_counts_near_proportional():
    w = np.array([0.05, 0.2, 0.3, 0.45])
    counts = systematic_counts(w, 100, 0.77)
    assert counts.sum() == 100
    assert np.all(np.abs(counts - 100 * w) < 1.0 + 1e-12)


def test_dual_particle_single_particle_point_mass(rng):
    mix = make_mix([(0,), (3,)], [0.5, 0.5])
    out = dual_particle_propagate(
        mix, lambda pts, c, th, dt, r: (np.repeat(pts + 1, c, axis=0), th), 1, 0.1, rng)
    assert out.support_size == 1
    assert out.weights[0] == 1.0


def test_dual_particle_identity_sampler_l1():
    rng = np.random.default_rng(42)
    pts = [(i,) for i in range(8)]
    w = np.random.default_rng(0).dirichlet(np.ones(8))
    mix = make_mix(pts, w)
    out = dual_particle_propagate(
        mix, lambda pts, c, th, dt, r: (np.repeat(pts, c, axis=0), th), 100_000, 0.1, rng)
    got = mixture_dict(out)
    l1 = sum(abs(got.get(pt, 0.0) - wi) for pt, wi in mixture_dict(mix).items())
    assert l1 < 0.02


def test_dual_particle_bit_reproducible(cir_model):
    mix = make_mix([(2,), (4,)], [0.5, 0.5], theta=cir_model.params.beta + 1.0,
                   model=cir_model)
    sampler = cir_model.dual_sampler("bd")
    a = dual_particle_propagate(mix, sampler, 500, 0.05,
                                np.random.default_rng(123))
    b = dual_particle_propagate(mix, sampler, 500, 0.05,
                                np.random.default_rng(123))
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.weights, b.weights)


def test_dual_particle_bd_sampler_matches_gillespie(cir_model):
    from dualfilter.cir import gillespie_bd
    params = cir_model.params
    theta = params.beta + 1.0
    mix = DualMixture(cir_model, ((4,),), np.array([1.0]), theta)
    out = dual_particle_propagate(mix, cir_model.dual_sampler("bd"),
                                  100_000, 0.05, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    ref = np.array([gillespie_bd(4, 0.05, theta, params, rng)
                    for _ in range(100_000)])
    emp = dict(zip(out.points[:, 0].tolist(), out.weights))
    n = max(max(emp), ref.max()) + 1
    pa = np.zeros(n)
    for k, v in emp.items():
        pa[k] = v
    pb = np.bincount(ref, minlength=n) / len(ref)
    assert 0.5 * np.abs(pa - pb).sum() < 0.02


def test_dual_particle_systematic_selection(rng):
    mix = make_mix([(0,), (1,)], [0.5, 0.5])
    out = dual_particle_propagate(
        mix, lambda pts, c, th, dt, r: (np.repeat(pts, c, axis=0), th), 2, 0.1, rng)
    # stratified selection with equal weights always keeps one copy of each
    assert out.points.tolist() == [[0], [1]]
    np.testing.assert_allclose(out.weights, [0.5, 0.5])


@pytest.mark.parametrize("sampler", [
    lambda pts, c, th, dt, r: (np.repeat(pts - 1, c, axis=0), th),  # negative arrival
    lambda pts, c, th, dt, r: (pts, th),                            # one row per source
])
def test_dual_particle_rejects_bad_sampler_output(sampler):
    mix = make_mix([(0,), (1,)], [0.5, 0.5])
    with pytest.raises(ValueError):
        dual_particle_propagate(mix, sampler, 10, 0.1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# moments and densities
# ---------------------------------------------------------------------------

def test_moments_single_gamma_component():
    model = gamma_model(delta=4.0)  # shape 2
    mix = DualMixture(model, ((1,),), np.array([1.0]), 1.5)  # Ga(3, 1.5)
    mean, sd = mix.moments()
    assert mean[0] == pytest.approx(3.0 / 1.5)
    assert sd[0] == pytest.approx(math.sqrt(3.0) / 1.5)


def test_moments_single_dirichlet_component():
    model = WFModel(WFParams((1.0, 1.0)))
    mix = DualMixture(model, ((0, 0),), np.array([1.0]), None)
    mean, sd = mix.moments()
    np.testing.assert_allclose(mean, [0.5, 0.5])
    assert sd[0] == pytest.approx(math.sqrt(0.25 / 3.0))


def test_moments_two_component_gamma_vs_monte_carlo():
    model = gamma_model(delta=5.0)
    mix = DualMixture(model, ((0,), (4,)), np.array([0.3, 0.7]), 2.0)
    mean, sd = mix.moments()
    rng = np.random.default_rng(77)
    n = 10_000_000
    comp = rng.random(n) < 0.7
    shape = np.where(comp, 2.5 + 4, 2.5)
    xs = rng.gamma(shape, 1.0 / 2.0)
    se_mean = xs.std() / math.sqrt(n)
    assert abs(xs.mean() - mean[0]) < 3 * se_mean
    se_sd = xs.std() / math.sqrt(2 * n)  # delta-method scale for the sd
    assert abs(xs.std() - sd[0]) < 3 * se_sd


def test_pdf_exponential_at_zero():
    model = gamma_model(delta=2.0)  # shape 1 at m=0
    mix = DualMixture(model, ((0,),), np.array([1.0]), 1.0)
    assert mixture_pdf(mix, np.array([0.0]))[0] == pytest.approx(1.0)


def test_pdf_single_surviving_component():
    model = gamma_model(delta=3.0)
    target = DualMixture(model, ((2,),), np.array([1.0]), 1.0)
    mix = DualMixture.from_weights(model, [(2,), (5,)], [1.0, 0.0], 1.0)
    grid = np.linspace(0.01, 10, 50)
    np.testing.assert_allclose(mixture_pdf(mix, grid), mixture_pdf(target, grid))


def test_pdf_integrates_to_one(cir_model):
    mix = DualMixture(cir_model, ((0,), (3,), (7,)),
                      np.array([0.2, 0.5, 0.3]), cir_model.params.beta + 2.0)
    grid = np.linspace(0.0, 40.0, 20_001)
    total = np.trapezoid(mixture_pdf(mix, grid), grid)
    assert abs(total - 1.0) < 1e-3


def test_pdf_domain_error(cir_model):
    mix = cir_model.prior_mixture()
    with pytest.raises(DomainError):
        mixture_pdf(mix, np.array([-0.5, 1.0]))


def test_marginal_pdf_domain_error(cir_model):
    # the CIR marginal density is the component density, which checks the grid
    with pytest.raises(DomainError):
        mixture_marginal_pdf(cir_model.prior_mixture(), np.array([1.0, -0.5]))


@pytest.mark.parametrize("row", [[0.5, 0.6], [1.2, -0.2], [0.3, 0.3, 0.4]],
                         ids=["sum", "negative", "length"])
def test_wf_component_logpdf_checks_simplex(row):
    model = WFModel(WFParams((1.0, 1.0)))
    with pytest.raises(DomainError):
        model.component_logpdf(np.array([row]), np.zeros((1, 2), dtype=np.int64))


def test_component_moments_match_the_formulas():
    # the Gamma and Dirichlet moment formulas, bit for bit, on random supports
    rng = np.random.default_rng(18)
    cir = gamma_model(delta=11.0, gamma=1.1)
    m = np.unique(rng.integers(0, 30, (40, 1)), axis=0)
    theta = cir.params.beta + rng.uniform(0.0, 5.0)
    shapes = cir.params.alpha + m[:, 0]
    mu, var = cir.component_moments(m, theta)
    np.testing.assert_array_equal(mu, (shapes / theta)[:, None])
    np.testing.assert_array_equal(var, (shapes / theta ** 2)[:, None])

    wf = WFModel(WFParams((1.1, 0.7, 2.0)))
    n = np.unique(rng.integers(0, 30, (40, 3)), axis=0)
    a = np.asarray(wf.params.alpha) + n.astype(float)
    total = a.sum(axis=1, keepdims=True)
    mu, var = wf.component_moments(n)
    np.testing.assert_array_equal(mu, a / total)
    np.testing.assert_array_equal(var, (a / total) * (1.0 - a / total) / (total + 1.0))


def test_wf_marginal_pdf_integrates_to_one():
    model = WFModel(WFParams((1.1, 1.1, 1.1)))
    mix = DualMixture(model, ((0, 0, 0), (2, 1, 0)), np.array([0.4, 0.6]), None)
    grid = np.linspace(1e-6, 1.0 - 1e-6, 20_001)
    total = np.trapezoid(mixture_marginal_pdf(mix, grid), grid)
    assert abs(total - 1.0) < 1e-3


def test_wf_pdf_checks_simplex():
    model = WFModel(WFParams((1.0, 1.0)))
    mix = DualMixture(model, ((0, 0),), np.array([1.0]), None)
    with pytest.raises(DomainError):
        mixture_pdf(mix, np.array([[0.5, 0.6]]))


def test_wf_pdf_k2_is_the_beta_mixture():
    alpha = (1.1, 1.9)
    points, weights = ((0, 3), (2, 1), (4, 0)), np.array([0.2, 0.5, 0.3])
    mix = DualMixture(WFModel(WFParams(alpha)), points, weights, None)
    x = np.linspace(0.01, 0.99, 41)
    want = sum(w * beta.pdf(x, alpha[0] + n1, alpha[1] + n2)
               for w, (n1, n2) in zip(weights, points))
    np.testing.assert_allclose(mixture_pdf(mix, np.column_stack([x, 1.0 - x])), want,
                               rtol=1e-12)


def test_wf_pdf_k3_component_is_the_dirichlet_density():
    alpha, n = (1.1, 0.7, 2.0), (2, 0, 3)
    mix = DualMixture(WFModel(WFParams(alpha)), (n,), np.array([1.0]), None)
    xs = np.random.default_rng(7).dirichlet((1.0, 1.0, 1.0), 20)
    want = [dirichlet.pdf(x, np.add(alpha, n)) for x in xs]
    np.testing.assert_allclose(mixture_pdf(mix, xs), want, rtol=1e-12)


def test_wf_quantile_inverts_the_beta_mixture_cdf():
    alpha = (1.1, 1.1, 1.1)
    points, weights = ((0, 0, 0), (2, 1, 0), (3, 0, 4)), np.array([0.4, 0.35, 0.25])
    mix = DualMixture(WFModel(WFParams(alpha)), points, weights, None)
    a = np.add(alpha, points)
    for q in (0.05, 0.25, 0.5, 0.9, 0.99):
        x = mixture_quantile(mix, q)
        assert weights @ beta.cdf(x, a[:, 0], a.sum(axis=1) - a[:, 0]) == \
            pytest.approx(q, abs=1e-9)


# ---------------------------------------------------------------------------
# observation records
# ---------------------------------------------------------------------------

def test_observation_record_validation():
    ObservationRecord(0.5, (1, 0, 3))
    with pytest.raises(ValueError):
        ObservationRecord(-0.1, (1,))
    with pytest.raises(ValueError):
        ObservationRecord(0.0, (-1,))
