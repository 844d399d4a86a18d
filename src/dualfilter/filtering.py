"""Filtering, smoothing and error metrics on top of the model primitives.

Four inference procedures share one trace format:

* ``exact``: the finite-mixture recursion driven by the model's
  pure-death dual (closed-form transitions, polynomial support growth);
* ``pruned``: the same recursion with small arrival weights dropped and
  the remainder renormalized after every propagation;
* ``dual_particle``: exact Bayes updates of a finite mixture combined
  with a particle approximation of the propagation on the dual space
  (a Baum-Welch-style filter with systematic resampling of dual indices);
* ``bootstrap``: a signal-space bootstrap particle filter used as the
  general baseline (propagate through the signal transition, weight by
  the emission likelihood, resample every step).

A single filter run is sequential; replicate runs are embarrassingly
parallel and are orchestrated by :mod:`dualfilter.experiments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import AlignmentError, UnsupportedModel, ZeroLikelihood
from .mixtures import (DualMixture, ObservationRecord, dual_particle_propagate,
                       kahan_sum, mixture_marginal_pdf, mixture_moments,
                       mixture_quantile, propagate, prune, systematic_counts,
                       update)

__all__ = [
    "FilterConfig",
    "ParticleCloud",
    "FilterTrace",
    "SmoothingResult",
    "run_filter",
    "exact_filter",
    "dual_particle_filter",
    "bootstrap_filter",
    "smoother",
    "error_metrics",
    "metric_edges",
    "density_on_grid",
]

_METHODS = ("exact", "pruned", "dual_particle", "bootstrap")
_RESAMPLERS = ("systematic", "multinomial")


@dataclass(frozen=True)
class FilterConfig:
    """Which inference procedure to run and with what knobs."""

    model: str                    # "cir" | "wf"
    method: str                   # member of _METHODS
    delta_t: float
    seed: int = 0
    prune_eps: float = 0.0
    n_particles: int | None = None
    dual_kind: str | None = None  # pure_death | bd | moran | wf_chain | wf_diffusion
    resampling: str = "systematic"

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.delta_t <= 0:
            raise ValueError("delta_t must be positive")
        if not 0.0 <= self.prune_eps < 1.0:
            raise ValueError("prune_eps must lie in [0, 1)")
        if self.method in ("dual_particle", "bootstrap"):
            if self.n_particles is None or self.n_particles < 1:
                raise ValueError("particle methods need n_particles >= 1")
        if self.method == "dual_particle" and self.dual_kind is None:
            raise ValueError("dual_particle needs a dual_kind")
        if self.resampling not in _RESAMPLERS:
            raise ValueError(f"unknown resampling scheme {self.resampling!r}")


@dataclass(frozen=True)
class ParticleCloud:
    """Weighted particle representation of a signal law."""

    particles: np.ndarray   # (N,) for CIR, (N, K) for WF
    weights: np.ndarray     # normalized

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.particles if self.particles.ndim == 2 else self.particles[:, None]
        mean = self.weights @ x
        second = self.weights @ (x * x)
        sd = np.sqrt(np.maximum(second - mean * mean, 0.0))
        return mean, sd


@dataclass
class FilterTrace:
    """Per-step filtering output (one entry per observation time)."""

    times: np.ndarray
    predictive: list            # DualMixture or ParticleCloud per step
    filtering: list
    pred_mean: np.ndarray       # (T, K_signal)
    pred_sd: np.ndarray
    filt_mean: np.ndarray
    filt_sd: np.ndarray
    loglik: np.ndarray          # per-step log marginal likelihood increments
    config: FilterConfig | None = None

    @property
    def total_loglik(self) -> float:
        return kahan_sum(self.loglik)

    def __len__(self) -> int:
        return len(self.times)


def _moments_of(state) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(state, ParticleCloud):
        return state.moments()
    return mixture_moments(state)


def _assemble_trace(times, predictive, filtering, loglik, cfg) -> FilterTrace:
    pred = [_moments_of(s) for s in predictive]
    filt = [_moments_of(s) for s in filtering]
    k = pred[0][0].shape[0] if pred else 1  # empty datasets yield empty traces
    return FilterTrace(
        times=np.asarray(times, dtype=float),
        predictive=predictive,
        filtering=filtering,
        pred_mean=np.array([m for m, _ in pred]).reshape(-1, k),
        pred_sd=np.array([s for _, s in pred]).reshape(-1, k),
        filt_mean=np.array([m for m, _ in filt]).reshape(-1, k),
        filt_sd=np.array([s for _, s in filt]).reshape(-1, k),
        loglik=np.asarray(loglik, dtype=float),
        config=cfg,
    )


def exact_filter(data: Sequence[ObservationRecord], cfg: FilterConfig, model) -> FilterTrace:
    """Exact (or pruned) filtering recursion driven by the pure-death dual.

    Initializes at the model prior, then alternates a conjugate Bayes
    update (indices shifted by the observed counts, deterministic parameter
    by the conjugate map) with a closed-form pure-death propagation.  With
    ``method="pruned"``, arrival weights below ``prune_eps`` are dropped
    after each propagation and the rest renormalized.
    """
    times, predictive, filtering, loglik = [], [], [], []
    mix_pred = model.prior_mixture()
    for i, y in enumerate(data):
        times.append(y.time)
        predictive.append(mix_pred)
        mix_filt, inc = update(mix_pred, y, model.log_marginal_point,
                               model.shift_index, model.shift_param)
        filtering.append(mix_filt)
        loglik.append(inc)
        if i + 1 < len(data):
            mix_pred = propagate(mix_filt, model.pd_kernel, model.theta_flow,
                                 cfg.delta_t)
            if cfg.method == "pruned" and cfg.prune_eps > 0.0:
                mix_pred, _ = prune(mix_pred, cfg.prune_eps)
    return _assemble_trace(times, predictive, filtering, loglik, cfg)


def dual_particle_filter(data: Sequence[ObservationRecord], cfg: FilterConfig,
                         model) -> FilterTrace:
    """Particle filter on the dual space with exact Bayes updates.

    Each step updates the current finite mixture exactly, then approximates
    the propagation by resampling ``n_particles`` dual indices (systematic
    by default) and pushing them through the chosen dual sampler in one
    batched call per step.  The whole run is deterministic given the
    config seed.
    """
    rng = np.random.default_rng(cfg.seed)
    sampler = model.dual_sampler(cfg.dual_kind)
    theta_evolve = model.theta_evolve_for(cfg.dual_kind)
    times, predictive, filtering, loglik = [], [], [], []
    mix_pred = model.prior_mixture()
    for i, y in enumerate(data):
        times.append(y.time)
        predictive.append(mix_pred)
        mix_filt, inc = update(mix_pred, y, model.log_marginal_point,
                               model.shift_index, model.shift_param)
        filtering.append(mix_filt)
        loglik.append(inc)
        if i + 1 < len(data):
            mix_pred = dual_particle_propagate(
                mix_filt, sampler, cfg.n_particles, cfg.delta_t, rng,
                select=cfg.resampling, theta_evolve=theta_evolve)
    return _assemble_trace(times, predictive, filtering, loglik, cfg)


def _resample_counts(weights: np.ndarray, n: int, rng: np.random.Generator,
                     scheme: str) -> np.ndarray:
    if scheme == "systematic":
        return systematic_counts(weights, n, rng.uniform())
    return rng.multinomial(n, weights)


def bootstrap_filter(data: Sequence[ObservationRecord], cfg: FilterConfig,
                     model) -> FilterTrace:
    """Signal-space bootstrap particle filter (baseline).

    Particles start from the model prior, are propagated through the exact
    signal transition sampler, weighted by the emission likelihood and
    resampled at every step.

    Raises:
        ZeroLikelihood: if every particle has zero emission likelihood.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_particles
    particles = model.sample_prior(rng, n)
    uniform = np.full(n, 1.0 / n)
    times, predictive, filtering, loglik = [], [], [], []
    for i, y in enumerate(data):
        times.append(y.time)
        predictive.append(ParticleCloud(particles, uniform))
        logw = np.asarray(model.emission_log_pmf(particles, y), dtype=float)
        if np.all(np.isneginf(logw)):
            raise ZeroLikelihood("all particle emission likelihoods are zero")
        logz = float(logsumexp(logw))
        w = np.exp(logw - logz)
        w /= w.sum()
        filtering.append(ParticleCloud(particles, w))
        loglik.append(logz - math.log(n))
        if i + 1 < len(data):
            counts = _resample_counts(w, n, rng, cfg.resampling)
            particles = np.repeat(particles, counts, axis=0)
            particles = model.signal_sample_many(particles, cfg.delta_t, rng)
    return _assemble_trace(times, predictive, filtering, loglik, cfg)


def run_filter(data: Sequence[ObservationRecord], cfg: FilterConfig, model) -> FilterTrace:
    """Dispatch to the configured inference procedure."""
    if cfg.method in ("exact", "pruned"):
        return exact_filter(data, cfg, model)
    if cfg.method == "dual_particle":
        return dual_particle_filter(data, cfg, model)
    return bootstrap_filter(data, cfg, model)


# ---------------------------------------------------------------------------
# Smoothing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothingResult:
    """Marginal smoothing law at one observation time."""

    time: float
    mixture: DualMixture


def _closure_grid(model) -> np.ndarray:
    if model.name == "cir":
        return np.linspace(0.1, 10.0, 40)
    k = model.signal_dim
    base = np.linspace(0.05, 0.95, 12)
    pts = np.empty((len(base), k))
    for i, b in enumerate(base):
        rest = (1.0 - b) / (k - 1)
        pts[i] = [b] + [rest] * (k - 1)
    return pts


def _verify_closure(model, trace: FilterTrace) -> None:
    """Numerically confirm the product-closure identity before smoothing."""
    grid = _closure_grid(model)
    if model.name == "cir":
        checks = [((2,), (3,), model.theta0 + 1.0, model.theta0 + 2.0)]
    else:
        k = model.signal_dim
        a = tuple([2] + [0] * (k - 1))
        b = tuple([1] * min(2, k) + [0] * (k - min(2, k)))
        checks = [(a, b, None, None)]
    for m, n, ta, tb in checks:
        spread = model.closure_spread(m, n, ta, tb, grid)
        if spread > 1e-9:
            raise UnsupportedModel(
                f"product-closure identity fails (relative spread {spread:.2e})")


def smoother(data: Sequence[ObservationRecord], cfg: FilterConfig, model,
             trace: FilterTrace) -> list[SmoothingResult]:
    """Marginal smoothing laws from a forward trace and a backward recursion.

    Requires an exact or pruned forward trace (finite mixtures).  The
    backward pass reuses the forward machinery with the data in reverse
    order: backward deterministic parameters follow the same conjugate map
    and flow, and backward weights satisfy

    ``om_i[m] = sum_n om_{i+1}[n] mu(n, pre_i; y_i) p_{shift(y_i,n), m}``

    computed in log space.  Forward and backward mixtures are then combined
    through the model's product-closure (index sum, parameter combination
    and a constant factor), yielding one mixture per observation time; at
    the terminal time the result coincides with the filtering law.

    Raises:
        UnsupportedModel: if the trace holds particle clouds or the model's
            closure identity fails its numerical check.
    """
    if any(not isinstance(s, DualMixture) for s in trace.filtering):
        raise UnsupportedModel("smoothing needs an exact or pruned mixture trace")
    if len(data) != len(trace):
        raise AlignmentError("trace and data lengths differ")
    if not data:
        return []
    _verify_closure(model, trace)

    n = len(data) - 1
    dt = cfg.delta_t

    # backward deterministic parameters
    pre = [None] * (n + 1)   # state after flowing back from time i+1
    post = [None] * (n + 1)  # state after absorbing y_i
    pre[n] = model.theta0
    post[n] = model.shift_param(data[n], model.theta0)
    for i in range(n - 1, -1, -1):
        pre[i] = model.theta_flow(post[i + 1], dt)
        post[i] = model.shift_param(data[i], pre[i])

    # backward weights: om[i] carries the cost-to-go mixture used at time i-1
    zero = tuple([0] * len(trace.filtering[0].points[0]))
    om_next = {zero: 0.0}
    om_by_step = {n + 1: om_next}
    for i in range(n, 0, -1):
        y = data[i]
        acc: dict = {}
        for src, lw in om_by_step[i + 1].items():
            lmu = model.log_marginal_point(src, pre[i], y)
            shifted = model.shift_index(y, src)
            kern = model.pd_kernel(shifted, post[i], dt)
            for dst, pr in kern.items():
                if pr <= 0.0:
                    continue
                cand = lw + lmu + math.log(pr)
                prev = acc.get(dst)
                acc[dst] = cand if prev is None else float(np.logaddexp(prev, cand))
        top = max(acc.values())
        om_by_step[i] = {pt: lw - top for pt, lw in sorted(acc.items())}

    out = []
    for i in range(n + 1):
        filt = trace.filtering[i]
        theta_f = filt.theta
        theta_b = pre[i]
        combined: dict = {}
        for bpt, blw in om_by_step[i + 1].items():
            for fpt, fw in zip(filt.points, filt.weights):
                lw = (blw + math.log(fw)
                      + model.log_combine_const(bpt, fpt, theta_b, theta_f))
                key = model.combine_index(bpt, fpt)
                prev = combined.get(key)
                combined[key] = lw if prev is None else float(np.logaddexp(prev, lw))
        top = max(combined.values())
        weights = {pt: math.exp(lw - top) for pt, lw in sorted(combined.items())}
        mixture = DualMixture.from_weights(
            filt.family, weights, model.combine_param(theta_b, theta_f))
        out.append(SmoothingResult(time=float(trace.times[i]), mixture=mixture))
    return out


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------

def metric_edges(ref: DualMixture, n_cells: int = 512) -> np.ndarray:
    """Histogram/evaluation cell edges for density comparisons.

    CIR: ``n_cells`` cells from zero to the 0.9995 quantile of the reference
    predictive.  WF: ``n_cells`` cells on [0, 1] for the first-coordinate
    marginal.
    """
    if ref.family.tag == "wf-dirichlet":
        return np.linspace(0.0, 1.0, n_cells + 1)
    hi = mixture_quantile(ref, 0.9995)
    return np.linspace(0.0, hi, n_cells + 1)


def density_on_grid(state, edges: np.ndarray) -> np.ndarray:
    """First-coordinate density at cell midpoints.

    Mixtures are evaluated exactly; particle clouds are histogrammed on a
    square-root-rule binning of the same range and read off at midpoints.
    """
    centers = 0.5 * (edges[:-1] + edges[1:])
    if isinstance(state, DualMixture):
        return mixture_marginal_pdf(state, centers, coord=0)
    x = state.particles if state.particles.ndim == 1 else state.particles[:, 0]
    n = len(x)
    bins = np.linspace(edges[0], edges[-1], max(16, int(math.sqrt(n))) + 1)
    counts, _ = np.histogram(x, bins=bins, weights=state.weights)
    dens = counts / np.diff(bins)
    idx = np.clip(np.searchsorted(bins, centers, side="right") - 1, 0, len(dens) - 1)
    return dens[idx]


def grid_l1(state, ref: DualMixture, edges: np.ndarray) -> float:
    """L1 distance between first-coordinate densities over the grid."""
    fa = density_on_grid(state, edges)
    fr = density_on_grid(ref, edges)
    return float(np.sum(np.abs(fa - fr) * np.diff(edges)))


def error_metrics(trace_a: FilterTrace, trace_ref: FilterTrace,
                  signal: np.ndarray | None = None,
                  with_l1: bool = False, n_cells: int = 512) -> dict:
    """Per-step and summary errors of one trace against a reference trace.

    Per step: absolute error of the filtering mean and standard deviation
    (averaged over signal coordinates), the absolute deviation of the
    filtering mean from the true ``signal`` when given, and optionally the
    grid-L1 distance between predictive densities.  The summary averages
    each metric over the second half of the time steps.

    Raises:
        AlignmentError: if the two traces live on different time grids.
    """
    if len(trace_a) != len(trace_ref) or not np.allclose(trace_a.times, trace_ref.times):
        raise AlignmentError("traces are not on a common time grid")
    t = len(trace_ref)
    per: dict[str, np.ndarray] = {
        "err_mean": np.abs(trace_a.filt_mean - trace_ref.filt_mean).mean(axis=1),
        "err_sd": np.abs(trace_a.filt_sd - trace_ref.filt_sd).mean(axis=1),
    }
    if signal is not None:
        sig = np.asarray(signal, dtype=float).reshape(t, -1)
        per["err_signal"] = np.abs(trace_a.filt_mean - sig).mean(axis=1)
    if with_l1:
        l1 = np.empty(t)
        for i in range(t):
            ref = trace_ref.predictive[i]
            if not isinstance(ref, DualMixture):
                raise AlignmentError("reference predictive must be a mixture")
            edges = metric_edges(ref, n_cells)
            l1[i] = grid_l1(trace_a.predictive[i], ref, edges)
        per["l1_pred"] = l1
    half = t // 2
    summary = {k: float(v[half:].mean()) for k, v in per.items()}
    return {"per_step": per, "summary": summary}
