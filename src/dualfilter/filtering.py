"""Filtering, smoothing and error metrics on top of the model primitives.

:func:`run_filter` is the one filter entry point.  ``FilterConfig.method``
picks one of four inference procedures; all share one trace format and
one recursion, which alternates a Bayes update with a propagation over
the gap to the next observation time (the times must strictly increase):

* ``exact``: the finite-mixture recursion driven by the model's
  pure-death dual (closed-form transitions, polynomial support growth);
* ``pruned``: the same recursion with arrival weights below ``prune_eps``
  dropped and the remainder renormalized after every propagation;
* ``dual_particle``: exact Bayes updates of a finite mixture combined
  with a particle approximation of the propagation on the dual space
  (a Baum-Welch-style filter with systematic resampling of dual indices);
* ``bootstrap``: a signal-space bootstrap particle filter used as the
  general baseline (propagate through the signal transition, weight by
  the emission likelihood, resample every step).

The smoother's backward pass is the same recursion run on a trace's
reversed records, at the trace's ``prune_eps``.  A single filter run is
sequential; replicate runs are embarrassingly parallel and are orchestrated
by :mod:`dualfilter.experiments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import AlignmentError, ConfigError, UnsupportedModel, ZeroLikelihood
from .mixtures import (DualMixture, ObservationRecord, dual_particle_propagate,
                       is_integer, is_real, mixture_marginal_pdf, mixture_quantile,
                       propagate, prune, systematic_counts, update)

__all__ = [
    "FilterConfig",
    "ParticleCloud",
    "FilterTrace",
    "run_filter",
    "smoother",
    "error_metrics",
    "metric_edges",
    "density_on_grid",
]

_METHODS = ("exact", "pruned", "dual_particle", "bootstrap")
#: number of grid cells on which predictive densities are compared
METRIC_CELLS = 512


@dataclass(frozen=True)
class FilterConfig:
    """Which inference procedure to run and with what knobs.

    No time step is configured: the filters step by the gaps between the
    observation times.  Particle methods resample systematically.  The
    truncation ``prune_eps`` (see :func:`_steps`) lies in ``[0, 1)`` and
    needs method ``pruned`` when positive.
    """

    method: str                   # member of _METHODS
    seed: int = 0
    prune_eps: float = 0.0
    n_particles: int | None = None
    # CIR: pure_death | bd | bd_gillespie; WF: pure_death | moran | wf_chain | wf_diffusion
    dual_kind: str | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if not (is_real(self.prune_eps) and 0.0 <= self.prune_eps < 1.0):
            raise ConfigError(f"prune_eps must lie in [0, 1), not {self.prune_eps!r}")
        if self.prune_eps > 0.0 and self.method != "pruned":
            raise ConfigError(f"prune_eps > 0 needs method 'pruned', not {self.method!r}")
        if not is_integer(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, not {self.seed!r}")
        if self.n_particles is not None and not is_integer(self.n_particles):
            raise ConfigError(f"n_particles must be an integer, not {self.n_particles!r}")
        if self.method in ("dual_particle", "bootstrap"):
            if self.n_particles is None or self.n_particles < 1:
                raise ConfigError("particle methods need n_particles >= 1")
        elif self.n_particles is not None:
            raise ConfigError(f"n_particles needs a particle method, not {self.method!r}")
        if self.method == "dual_particle" and self.dual_kind is None:
            raise ConfigError("dual_particle needs a dual_kind")
        if self.dual_kind is not None and self.method != "dual_particle":
            raise ConfigError(f"a dual_kind needs method 'dual_particle', not {self.method!r}")


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
    """Per-step filtering output (one entry per record), its records and config."""

    config: FilterConfig
    records: tuple              # the ObservationRecords, in time order
    predictive: list            # DualMixture or ParticleCloud per step
    filtering: list
    pred_mean: np.ndarray       # (T, K_signal)
    pred_sd: np.ndarray
    filt_mean: np.ndarray
    filt_sd: np.ndarray
    loglik: np.ndarray          # per-step log marginal likelihood increments

    @property
    def total_loglik(self) -> float:
        return math.fsum(self.loglik)

    @property
    def times(self) -> np.ndarray:
        return np.array([y.time for y in self.records], dtype=float)

    def __len__(self) -> int:
        return len(self.records)


def _assemble_trace(cfg, data, predictive, filtering, loglik) -> FilterTrace:
    pred = [s.moments() for s in predictive]
    filt = [s.moments() for s in filtering]
    k = pred[0][0].shape[0] if pred else 1  # empty datasets yield empty traces
    return FilterTrace(
        config=cfg,
        records=tuple(data),
        predictive=predictive,
        filtering=filtering,
        pred_mean=np.array([m for m, _ in pred]).reshape(-1, k),
        pred_sd=np.array([s for _, s in pred]).reshape(-1, k),
        filt_mean=np.array([m for m, _ in filt]).reshape(-1, k),
        filt_sd=np.array([s for _, s in filt]).reshape(-1, k),
        loglik=np.asarray(loglik, dtype=float),
    )


def _gaps(data: Sequence[ObservationRecord]) -> np.ndarray:
    """Elapsed times between consecutive observations."""
    return np.diff(np.array([y.time for y in data], dtype=float))


def _recursion(data, gaps: np.ndarray, state, update_step, propagate_step):
    """The recursion shared by every filter and the smoother's backward pass.

    From ``state``, alternates ``update_step(state, y) -> (posterior,
    log-evidence increment)`` with ``propagate_step(posterior, gap)`` over
    the records and the ``len(data) - 1`` gaps between them.  Returns the
    predictive states, posteriors and increments, one of each per record.
    """
    if not np.all(gaps > 0.0):
        raise AlignmentError("observation times must strictly increase")
    gaps = gaps.tolist()
    predictive, filtering, loglik = [], [], []
    for i, y in enumerate(data):
        predictive.append(state)
        posterior, inc = update_step(state, y)
        filtering.append(posterior)
        loglik.append(inc)
        if i < len(gaps):
            state = propagate_step(posterior, gaps[i])
    return predictive, filtering, loglik


def _steps(cfg: FilterConfig, model, rng: np.random.Generator | None) -> tuple:
    """``(start, update_step, propagate_step)`` of ``cfg.method`` for :func:`_recursion`.

    ``exact`` and ``pruned`` start at the prior mixture and propagate with
    the pure-death kernel and parameter flow, then drop arrival weights
    below ``prune_eps`` (the identity at 0, as on ``exact``).
    ``dual_particle`` instead pushes ``n_particles`` systematically
    resampled dual indices through the ``dual_kind`` sampler.  Both update
    a mixture exactly.  ``bootstrap`` starts from ``n_particles`` prior
    draws (the first draw from ``rng``), weights them by the emission
    likelihood, then resamples and moves them through the exact signal
    transition.  Only the particle methods draw from ``rng``.
    """
    if cfg.method == "bootstrap":
        n = cfg.n_particles
        uniform = np.full(n, 1.0 / n)

        def update_cloud(cloud, y):
            logw = np.asarray(model.emission_log_pmf(cloud.particles, y), dtype=float)
            if np.all(np.isneginf(logw)):
                raise ZeroLikelihood("all particle emission likelihoods are zero")
            logz = float(logsumexp(logw))
            w = np.exp(logw - logz)
            w /= w.sum()
            return ParticleCloud(cloud.particles, w), logz - math.log(n)

        def move_cloud(cloud, gap):
            counts = systematic_counts(cloud.weights, n, rng.uniform())
            particles = np.repeat(cloud.particles, counts, axis=0)
            return ParticleCloud(model.signal_sample_many(particles, gap, rng), uniform)

        return ParticleCloud(model.sample_prior(rng, n), uniform), update_cloud, move_cloud

    if cfg.method == "dual_particle":
        sampler = model.dual_sampler(cfg.dual_kind)

        def move_mixture(mix, gap):
            return dual_particle_propagate(mix, sampler, cfg.n_particles, gap, rng)
    else:
        def move_mixture(mix, gap):
            return prune(propagate(mix, gap), cfg.prune_eps)[0]

    return model.prior_mixture(), update, move_mixture


def run_filter(data: Sequence[ObservationRecord], cfg: FilterConfig, model) -> FilterTrace:
    """Filter ``data`` with the procedure ``cfg.method`` names.

    Every method runs the same recursion from its own start state and
    steps (see :func:`_steps`); the particle methods draw from one
    generator seeded with ``cfg.seed``, so a run is deterministic given
    its config.

    Raises:
        AlignmentError: if the observation times do not strictly increase.
        ZeroLikelihood: if every bootstrap particle has zero emission
            likelihood.
    """
    start, update_step, propagate_step = _steps(cfg, model, np.random.default_rng(cfg.seed))
    return _assemble_trace(cfg, data, *_recursion(data, _gaps(data), start, update_step,
                                                  propagate_step))


# ---------------------------------------------------------------------------
# Smoothing
# ---------------------------------------------------------------------------

def smoother(trace: FilterTrace) -> list[DualMixture]:
    """Marginal smoothing laws, one per record of a forward mixture trace.

    Takes any trace whose laws are mixtures (``exact``, ``pruned`` or
    ``dual_particle``) and reads its records, model and ``prune_eps``.  The
    backward pass is the forward recursion run ``pruned`` at the trace's
    ``prune_eps`` (exact where it is 0, as on ``exact`` and
    ``dual_particle`` traces) on the reversed records and gaps from the
    model prior: ``B_n`` is the prior mixture and ``B_{i-1}
    = propagate(update(B_i, y_i))`` over the gap ``t_i - t_{i-1}``, so
    ``B_i`` carries the likelihood of the observations after time ``i``.
    Each backward mixture is combined with the filtering mixture at the
    same time through the product closure of the mixture kernels, all
    pairs of support rows at once in log space: the index rows add, and
    ``model.combine(m, n, theta_back, theta_filt)`` gives the log constant
    factor of each pair and the combined parameter.  At the terminal time
    the result is the filtering law.  Backward weights are pruned before
    the closure reweights them, so the error has no a-priori bound in
    ``prune_eps``.

    Raises:
        UnsupportedModel: if the trace holds particle clouds.
    """
    if any(not isinstance(s, DualMixture) for s in trace.filtering):
        raise UnsupportedModel("smoothing needs a mixture trace, not particle clouds")
    if not trace.records:
        return []
    model, records = trace.filtering[0].model, trace.records
    backward_cfg = FilterConfig("pruned", prune_eps=trace.config.prune_eps)
    backward, _, _ = _recursion(records[::-1], _gaps(records)[::-1],
                                *_steps(backward_cfg, model, None))
    backward.reverse()

    out = []
    for filt, back in zip(trace.filtering, backward):
        fwd_rows, back_rows = filt.points[None, :, :], back.points[:, None, :]
        log_c, theta = model.combine(back_rows, fwd_rows, back.theta, filt.theta)
        logw = np.log(back.weights)[:, None] + np.log(filt.weights)[None, :] + log_c
        points = (back_rows + fwd_rows).reshape(-1, filt.dim)
        out.append(DualMixture.from_weights(model, points,
                                            np.exp(logw - logw.max()).ravel(), theta))
    return out


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------

def metric_edges(ref: DualMixture) -> np.ndarray:
    """Histogram/evaluation cell edges for density comparisons.

    CIR: ``METRIC_CELLS`` cells from zero to the 0.9995 quantile of the
    reference predictive.  WF: ``METRIC_CELLS`` cells on [0, 1] for the
    first-coordinate marginal.
    """
    if ref.model.name == "wf":
        return np.linspace(0.0, 1.0, METRIC_CELLS + 1)
    hi = mixture_quantile(ref, 0.9995)
    return np.linspace(0.0, hi, METRIC_CELLS + 1)


def density_on_grid(state, edges: np.ndarray) -> np.ndarray:
    """First-coordinate density at cell midpoints.

    Mixtures are evaluated exactly; particle clouds are histogrammed on a
    square-root-rule binning of the same range and read off at midpoints.
    """
    centers = 0.5 * (edges[:-1] + edges[1:])
    if isinstance(state, DualMixture):
        return mixture_marginal_pdf(state, centers)
    x = state.particles if state.particles.ndim == 1 else state.particles[:, 0]
    n = len(x)
    bins = np.linspace(edges[0], edges[-1], max(16, int(math.sqrt(n))) + 1)
    counts, _ = np.histogram(x, bins=bins, weights=state.weights)
    dens = counts / np.diff(bins)
    idx = np.clip(np.searchsorted(bins, centers, side="right") - 1, 0, len(dens) - 1)
    return dens[idx]


def grid_l1(state, ref_density: np.ndarray, edges: np.ndarray) -> float:
    """L1 distance between first-coordinate densities over the grid.

    ``ref_density`` is the reference's :func:`density_on_grid` on the same
    ``edges``, so a caller that scores many states against one reference
    evaluates the reference once.
    """
    fa = density_on_grid(state, edges)
    return float(np.sum(np.abs(fa - ref_density) * np.diff(edges)))


def error_metrics(trace_a: FilterTrace, trace_ref: FilterTrace,
                  signal: np.ndarray | None = None) -> dict:
    """Per-step and summary errors of one trace against a reference trace.

    Per step: absolute error of the filtering mean and standard deviation
    (averaged over signal coordinates) and the absolute deviation of the
    filtering mean from the true ``signal`` when given.  The summary
    averages each metric over the second half of the time steps.

    Raises:
        AlignmentError: if the traces, or a ``(T, K)`` signal, differ in grid.
        ConfigError: if the traces have no steps.
    """
    if len(trace_a) != len(trace_ref) or not np.allclose(trace_a.times, trace_ref.times):
        raise AlignmentError("traces are not on a common time grid")
    t = len(trace_ref)
    if t == 0:
        raise ConfigError("error metrics need traces with at least one step")
    per: dict[str, np.ndarray] = {
        "err_mean": np.abs(trace_a.filt_mean - trace_ref.filt_mean).mean(axis=1),
        "err_sd": np.abs(trace_a.filt_sd - trace_ref.filt_sd).mean(axis=1),
    }
    if signal is not None:
        sig = np.asarray(signal, dtype=float)
        if sig.shape != trace_ref.filt_mean.shape:
            raise AlignmentError(f"signal shape {sig.shape} != {trace_ref.filt_mean.shape}")
        per["err_signal"] = np.abs(trace_a.filt_mean - sig).mean(axis=1)
    half = t // 2
    summary = {k: float(v[half:].mean()) for k, v in per.items()}
    return {"per_step": per, "summary": summary}
