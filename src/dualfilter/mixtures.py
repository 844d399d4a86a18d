"""Finite weighted mixtures indexed by a discrete dual state space.

Every filtering, predictive and smoothing law handled by this package is a
finitely supported mixture of elementary kernels indexed by multi-indices
(tuples of non-negative integers), optionally sharing one deterministic
parameter ``theta``.  This module implements the model-agnostic algebra on
such mixtures: normalization, pruning, kernel propagation, Bayes updates,
particle approximation of the mixing measure, and moment/density evaluation.

Representation choices:

* a multi-index is a plain ``tuple`` of non-negative ints (length 1 for
  one-dimensional duals), which keeps supports hashable and gives a natural
  lexicographic order;
* the deterministic dual parameter is a ``float`` (or ``None`` for models
  whose dual has no deterministic component);
* model-specific component kernels (Gamma or Dirichlet densities) live in a
  small "family" object attached to each mixture; see ``cir.CIRFamily`` and
  ``wf.WFFamily``.

Support iteration is always canonicalized (lexicographic order) before any
accumulation so floating-point sums are platform- and run-deterministic, and
weight totals use compensated (Kahan) summation.

All mixture values are immutable after construction; the functions here are
pure and safe to call concurrently as long as each caller owns its RNG.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy.special import logsumexp

from .errors import DegenerateWeights, InvalidKernel, ZeroLikelihood

__all__ = [
    "Index",
    "ObservationRecord",
    "DualMixture",
    "kahan_sum",
    "normalize",
    "prune",
    "propagate",
    "update",
    "dual_particle_propagate",
    "mixture_moments",
    "mixture_pdf",
    "mixture_marginal_pdf",
    "mixture_quantile",
    "sample_mixture",
    "systematic_counts",
]

logger = logging.getLogger(__name__)

Index = tuple  # tuple[int, ...]

#: tolerance on the post-normalization weight total
WEIGHT_SUM_TOL = 1e-12
#: tolerance on kernel mass before a kernel is declared super-stochastic
KERNEL_MASS_TOL = 1e-8


def kahan_sum(values) -> float:
    """Compensated sum of an iterable of floats."""
    total = 0.0
    carry = 0.0
    for v in values:
        y = float(v) - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def normalize(weights: Mapping[Index, float]) -> dict[Index, float]:
    """Normalize a weight map to a probability map over its support.

    Entries whose normalized weight is zero are dropped, including denormal
    weights that underflow in the division.  Keys are processed in
    lexicographic order so the result does not depend on the input
    iteration order.

    Raises:
        DegenerateWeights: if no weight is strictly positive, or any weight
            is negative or non-finite.
    """
    items = sorted(weights.items())
    vals = [float(v) for _, v in items]
    for v in vals:
        if not math.isfinite(v) or v < 0.0:
            raise DegenerateWeights(f"invalid weight {v!r}")
    total = kahan_sum(vals)
    if total <= 0.0:
        raise DegenerateWeights("all weights are zero")
    out = {k: v / total for (k, _), v in zip(items, vals)}
    return {k: w for k, w in out.items() if w > 0.0}


def _as_point(point) -> Index:
    pt = tuple(int(c) for c in point)
    if not pt:
        raise ValueError("multi-index must have at least one coordinate")
    if any(c < 0 for c in pt):
        raise ValueError(f"negative coordinate in multi-index {pt}")
    return pt


@dataclass(frozen=True)
class ObservationRecord:
    """A time-stamped batch of emissions.

    ``values`` holds the raw Poisson counts for the CIR model (one entry per
    observation in the batch) and the per-category count vector for the WF
    model (length K, summing to the batch size).
    """

    time: float
    values: tuple

    def __post_init__(self):
        if self.time < 0:
            raise ValueError("observation time must be non-negative")
        values = tuple(int(v) for v in self.values)
        if any(v < 0 for v in values):
            raise ValueError("emission counts must be non-negative")
        object.__setattr__(self, "values", values)

    @property
    def batch_size(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DualMixture:
    """Finitely supported mixture over the dual space.

    Attributes:
        family: model family object (see module docstring) exposing the
            component kernels; its ``tag`` is ``"cir-gamma"`` or
            ``"wf-dirichlet"``.
        points: distinct multi-indices in lexicographic order.
        weights: strictly positive weights aligned with ``points``, summing
            to one within ``WEIGHT_SUM_TOL``.
        theta: deterministic dual parameter shared by all components
            (``None`` when the model has no deterministic component).
    """

    family: object
    points: tuple
    weights: np.ndarray
    theta: float | None = None

    def __post_init__(self):
        points = tuple(_as_point(pt) for pt in self.points)
        if sorted(set(points)) != list(points):
            raise ValueError("support points must be distinct and sorted")
        w = np.asarray(self.weights, dtype=float).copy()
        if w.shape != (len(points),):
            raise ValueError("weights must align with support points")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise DegenerateWeights("weights must be finite and strictly positive")
        if abs(kahan_sum(w) - 1.0) > WEIGHT_SUM_TOL:
            raise DegenerateWeights("weights must sum to one")
        w.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", w)
        if self.theta is not None:
            object.__setattr__(self, "theta", float(self.theta))

    @classmethod
    def from_weights(cls, family, weights: Mapping[Index, float],
                     theta: float | None = None) -> "DualMixture":
        """Build a mixture from an unnormalized weight map."""
        norm = normalize(weights)
        return cls(family=family, points=tuple(norm.keys()),
                   weights=np.fromiter(norm.values(), dtype=float, count=len(norm)),
                   theta=theta)

    def as_dict(self) -> dict[Index, float]:
        return dict(zip(self.points, self.weights))

    @property
    def support_size(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0])


def prune(mix: DualMixture, eps: float) -> tuple[DualMixture, float]:
    """Drop support points with (normalized) weight below ``eps``.

    Returns the renormalized mixture together with the total removed mass.
    ``eps = 0`` returns an identical mixture.

    Raises:
        DegenerateWeights: if the threshold removes the entire support.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("prune threshold must lie in [0, 1)")
    if eps == 0.0:
        return mix, 0.0
    keep = mix.weights >= eps
    removed = kahan_sum(mix.weights[~keep])
    if not np.any(keep):
        raise DegenerateWeights("pruning removed the entire support")
    kept = {pt: w for pt, w, k in zip(mix.points, mix.weights, keep) if k}
    if removed > 0.0:
        logger.debug("pruned %d of %d support points, removed mass %.3e",
                     int(np.sum(~keep)), mix.support_size, removed)
    return DualMixture.from_weights(mix.family, kept, mix.theta), float(removed)


def propagate(mix: DualMixture,
              kernel: Callable[[Index, float | None, float], Mapping[Index, float]],
              theta_evolve: Callable[[float | None, float], float | None] | None,
              dt: float) -> DualMixture:
    """Push a mixture through a dual transition kernel over a time step.

    ``kernel(point, theta, dt)`` must return a (sub-)probability map of
    arrival indices for one source index.  The output weight at ``n`` is
    ``sum_m w_m * kernel(m)[n]``, renormalized, and the deterministic
    parameter is advanced by ``theta_evolve`` (identity when ``None``).

    Raises:
        InvalidKernel: if any source kernel carries mass above ``1 + 1e-8``.
    """
    if dt <= 0:
        raise ValueError("time step must be positive")
    acc: dict[Index, float] = {}
    for point, w in zip(mix.points, mix.weights):
        probs = kernel(point, mix.theta, dt)
        mass = kahan_sum(probs.values())
        if mass > 1.0 + KERNEL_MASS_TOL:
            raise InvalidKernel(
                f"kernel mass {mass:.12f} from {point} exceeds one")
        for n, pr in sorted(probs.items()):
            if pr > 0.0:
                key = _as_point(n)
                acc[key] = acc.get(key, 0.0) + w * float(pr)
    new_theta = theta_evolve(mix.theta, dt) if theta_evolve is not None else mix.theta
    return DualMixture.from_weights(mix.family, acc, new_theta)


def update(mix: DualMixture,
           y,
           log_marginal: Callable[[Index, float | None, object], float],
           index_shift: Callable[[object, Index], Index],
           param_shift: Callable[[object, float | None], float | None],
           ) -> tuple[DualMixture, float]:
    """Bayes-update a mixture with one observation batch.

    New weights are proportional to ``w_m * exp(log_marginal(m, theta, y))``,
    indices are shifted by ``index_shift`` and ``theta`` by ``param_shift``.
    Marginal likelihoods are consumed in log space and normalized via
    log-sum-exp.

    Returns the posterior mixture and the log marginal likelihood of ``y``
    under the prior mixture (the filter's log-evidence increment).

    Raises:
        ZeroLikelihood: if every component has zero likelihood, or any
            marginal is NaN/+inf.
    """
    logw = np.log(mix.weights)
    logmu = np.array([float(log_marginal(pt, mix.theta, y)) for pt in mix.points])
    if np.any(np.isnan(logmu)) or np.any(np.isposinf(logmu)):
        raise ZeroLikelihood("marginal likelihood returned a non-finite value")
    joint = logw + logmu
    if np.all(np.isneginf(joint)):
        raise ZeroLikelihood("all components have zero marginal likelihood")
    log_evidence = float(logsumexp(joint))

    merged: dict[Index, float] = {}
    for pt, lw in zip(mix.points, joint):
        if np.isneginf(lw):
            continue
        new_pt = _as_point(index_shift(y, pt))
        prev = merged.get(new_pt)
        merged[new_pt] = lw if prev is None else float(np.logaddexp(prev, lw))
    weights = {pt: math.exp(lw - log_evidence) for pt, lw in sorted(merged.items())}
    new_theta = param_shift(y, mix.theta)
    return DualMixture.from_weights(mix.family, weights, new_theta), log_evidence


def systematic_counts(weights: np.ndarray, n: int, offset: float) -> np.ndarray:
    """Systematic-resampling copy counts for ``n`` draws.

    Uses a single uniform ``offset`` in [0, 1) and a stratified traversal of
    the cumulative weights, so every index with weight ``w`` receives either
    ``floor(n*w)`` or ``ceil(n*w)`` copies.
    """
    if not 0.0 <= offset < 1.0:
        raise ValueError("offset must lie in [0, 1)")
    positions = (np.arange(n) + offset) / n
    cum = np.cumsum(weights)
    cum[-1] = max(cum[-1], 1.0)  # guard against fp undershoot
    idx = np.searchsorted(cum, positions, side="right")
    return np.bincount(np.minimum(idx, len(weights) - 1), minlength=len(weights))


def dual_particle_propagate(mix: DualMixture,
                            sampler,
                            n_particles: int,
                            dt: float,
                            rng: np.random.Generator,
                            select: str = "multinomial",
                            theta_evolve=None) -> DualMixture:
    """Particle approximation of one propagation step on the dual space.

    Draws ``n_particles`` source indices from the mixture weights
    (independently for ``select="multinomial"``, stratified with a single
    uniform offset for ``select="systematic"``), pushes them all through
    one call ``sampler(points, counts, theta, dt, rng)`` and returns the
    empirical distribution of the arrival indices.  ``points`` is the
    ``(M, K)`` int array of the sources drawn at least once and ``counts``
    their copy numbers; the sampler returns ``counts.sum()`` arrival rows,
    the copies of each source together and the sources in order.

    The result is bit-reproducible for a given seeded ``rng``.
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if select == "systematic":
        counts = systematic_counts(mix.weights, n_particles, rng.uniform())
    elif select == "multinomial":
        counts = rng.multinomial(n_particles, mix.weights)
    else:
        raise ValueError(f"unknown selection scheme {select!r}")

    drawn = counts > 0
    sources = np.array(mix.points, dtype=np.int64)[drawn]
    arrivals = np.asarray(sampler(sources, counts[drawn], mix.theta, dt, rng))
    if arrivals.shape != (n_particles, sources.shape[1]):
        raise ValueError(f"sampler returned shape {arrivals.shape}, "
                         f"expected {(n_particles, sources.shape[1])}")
    # DualMixture rejects arrivals with a negative coordinate
    uniq, cnt = np.unique(arrivals, axis=0, return_counts=True)
    weights = {tuple(int(v) for v in pt): c / n_particles for pt, c in zip(uniq, cnt)}
    new_theta = theta_evolve(mix.theta, dt) if theta_evolve is not None else mix.theta
    return DualMixture.from_weights(mix.family, weights, new_theta)


def mixture_moments(mix: DualMixture) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and standard deviation vectors of a mixture.

    Component moments come from the attached family (Gamma components for
    the CIR model, Dirichlet components for WF) and are combined exactly:
    ``E[X] = sum w_m mu_m`` and ``E[X^2] = sum w_m (var_m + mu_m^2)``.
    """
    mean = None
    second = None
    for pt, w in zip(mix.points, mix.weights):
        mu = np.asarray(mix.family.component_mean(pt, mix.theta), dtype=float)
        var = np.asarray(mix.family.component_var(pt, mix.theta), dtype=float)
        if mean is None:
            mean = w * mu
            second = w * (var + mu * mu)
        else:
            mean += w * mu
            second += w * (var + mu * mu)
    sd = np.sqrt(np.maximum(second - mean * mean, 0.0))
    return mean, sd


def mixture_pdf(mix: DualMixture, grid) -> np.ndarray:
    """Pointwise mixture density ``sum_m w_m g(x, m, theta)`` on a grid.

    ``grid`` is an array of signal points: non-negative reals for the CIR
    family, simplex points (rows) for the WF family.

    Raises:
        DomainError: if any grid point lies outside the state space.
    """
    grid = np.asarray(grid, dtype=float)
    mix.family.check_domain(grid)
    out = np.zeros(grid.shape[0] if grid.ndim > 1 else grid.shape, dtype=float)
    for pt, w in zip(mix.points, mix.weights):
        out += w * np.exp(mix.family.component_logpdf(grid, pt, mix.theta))
    return out


def mixture_marginal_pdf(mix: DualMixture, grid, coord: int = 0) -> np.ndarray:
    """One-coordinate marginal mixture density on a scalar grid.

    For the WF family this is the Beta-mixture marginal of coordinate
    ``coord``; for the (univariate) CIR family only ``coord=0`` is defined
    and the result equals :func:`mixture_pdf`.
    """
    grid = np.asarray(grid, dtype=float)
    out = np.zeros_like(grid)
    for pt, w in zip(mix.points, mix.weights):
        out += w * np.exp(mix.family.marginal_component_logpdf(grid, pt, mix.theta, coord))
    return out


def mixture_quantile(mix: DualMixture, q: float, coord: int = 0) -> float:
    """Quantile of the one-coordinate marginal of a mixture (by bisection)."""
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")

    def cdf(x):
        return kahan_sum(w * mix.family.marginal_component_cdf(x, pt, mix.theta, coord)
                         for pt, w in zip(mix.points, mix.weights))

    lo, hi = 0.0, 1.0
    while cdf(hi) < q and hi < 1e12:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def sample_mixture(mix: DualMixture, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` signal points from a mixture (component-wise batched).

    Component counts are multinomial; the returned array keeps components
    grouped, which is immaterial for exchangeable downstream use (particle
    clouds).
    """
    counts = rng.multinomial(size, mix.weights)
    parts = []
    for pt, c in zip(mix.points, counts):
        if c:
            parts.append(np.asarray(mix.family.sample_component(pt, mix.theta, rng, int(c))))
    return np.concatenate(parts, axis=0)
