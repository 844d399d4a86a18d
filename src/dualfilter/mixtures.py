"""Finite weighted mixtures indexed by a discrete dual state space.

Every filtering, predictive and smoothing law handled by this package is a
finitely supported mixture of elementary kernels indexed by multi-indices
(vectors of non-negative integers), optionally sharing one deterministic
parameter ``theta``.  This module implements the model-agnostic algebra on
such mixtures: pruning, kernel propagation, Bayes updates, particle
approximation of the mixing measure, and moment/density evaluation.

Representation choices:

* the support of a mixture is one read-only int64 array of shape
  ``(M, K)``, one multi-index per row (``K = 1`` for one-dimensional
  duals), with distinct rows in lexicographic order;
* every entry reads index rows through :func:`dual_rows`; a mixture holds
  them to its model's ``signal_dim`` (a mixture without a model takes any
  ``K``);
* the deterministic dual parameter is a ``float`` (or ``None`` for models
  whose dual has no deterministic component);
* each mixture holds the model that built it (``cir.CIRModel`` with Gamma
  components or ``wf.WFModel`` with Dirichlet ones).

The model protocol is the members each operation reads from that model,
each taking the whole ``(M, K)`` support array (or its totals) at once:

* start: ``prior_mixture()``, read by the filters and the smoother;
* update: ``log_marginal_point(points, theta, y)`` and
  ``shift(y, points, theta) -> (points, theta)``;
* propagation: ``pd_kernel(totals, theta, dt) -> (laws, theta_t)``, the
  exact law of the surviving total, which :func:`propagate` checks once per
  total and pushes through the thinning over the types one coordinate at a
  time; particles: ``dual_sampler(kind)``;
* moments: ``component_moments(points, theta) -> (mean, var)``;
* densities: ``component_logpdf(x, points, theta)``, which raises
  ``DomainError`` off the state space, and
  ``marginal_component_logpdf(grid, points, theta) -> (logpdf, index)``,
  the ``(P, G)`` log-densities of the distinct first-coordinate marginals
  and each row's index into them; the quantile:
  ``marginal_component_cdf(x, points, theta)``;
* draws: ``sample_component(points, theta, rng)``;
* smoothing: ``combine(m, n, theta_a, theta_b) -> (log_c, theta)``;
* bootstrap and simulation: ``sample_prior``, ``signal_sample_many``,
  ``emission_log_pmf`` and ``sample_emission``.

Mixtures are built from raw rows and weights by
:meth:`DualMixture.from_weights`, which merges repeated rows by one int64
mixed-radix key per row (ascending keys are the lexicographic row order),
sums each row's weights in input order, drops zero weights and normalizes.
Every later accumulation runs in the canonical row order, so floating-point
sums are platform- and run-deterministic for a given input.

All mixture values are immutable after construction; the functions here are
pure and safe to call concurrently as long as each caller owns its RNG.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import (ConfigError, DegenerateWeights, DimensionError, InvalidKernel,
                     ZeroLikelihood)

__all__ = [
    "ObservationRecord",
    "DualMixture",
    "dual_rows",
    "prune",
    "propagate",
    "update",
    "dual_particle_propagate",
    "mixture_pdf",
    "mixture_marginal_pdf",
    "mixture_quantile",
    "sample_mixture",
    "systematic_counts",
]

logger = logging.getLogger(__name__)

#: tolerance on the post-normalization weight total
WEIGHT_SUM_TOL = 1e-12
#: tolerance on kernel mass before a kernel is declared super-stochastic
KERNEL_MASS_TOL = 1e-8


def is_integer(value) -> bool:
    """True for a Python or numpy integer, but not for a ``bool``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a finite Python or numpy real number, but not for a ``bool``."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def check_time_step(t) -> None:
    """Raise ``ConfigError`` unless ``t`` is a finite positive time step."""
    if not (is_real(t) and t > 0):
        raise ConfigError(f"time step must be finite and positive, not {t!r}")


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
        if not (is_real(self.time) and self.time >= 0):
            raise ConfigError(f"observation time must be finite and non-negative, "
                              f"not {self.time!r}")
        try:
            values = tuple(int(v) for v in self.values)
        except (ValueError, OverflowError):  # NaN and infinite counts
            values = None
        if values != tuple(self.values):
            raise ConfigError(f"emission counts must be integers, not {self.values!r}")
        if any(v < 0 for v in values):
            raise ConfigError("emission counts must be non-negative")
        object.__setattr__(self, "values", values)


def dual_rows(rows, k: int | None = None) -> np.ndarray:
    """``rows`` as a 2-D int64 ``(M, K)`` array of finite, whole, non-negative
    values with ``K >= 1``, and ``K == k`` if given, else ``DimensionError``
    for the width and ``ConfigError`` for the rest.  An int64 array comes
    back uncopied; others must cast exactly, so integral floats pass."""
    arr = np.asarray(rows)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ConfigError(f"dual index rows must be (M, K) with K >= 1, not {arr.shape}")
    if k is not None and arr.shape[1] != k:
        raise DimensionError(f"dual index rows have {arr.shape[1]} columns, expected {k}")
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, caught below
        ints = arr.astype(np.int64, copy=False)
    if ints is not arr and not np.array_equal(ints, arr):
        raise ConfigError("dual index rows must be finite whole numbers")
    if ints.size and ints.min() < 0:
        raise ConfigError("dual index rows must be non-negative")
    return ints


def _strictly_increasing_rows(points: np.ndarray) -> bool:
    """True if consecutive rows increase strictly in lexicographic order."""
    step = np.diff(points, axis=0)
    moved = step != 0
    first = moved.argmax(axis=1)
    return bool(np.all(moved.any(axis=1))
                and np.all(step[np.arange(len(step)), first] > 0))


@dataclass(frozen=True)
class DualMixture:
    """Finitely supported mixture over the dual space.

    Attributes:
        model: the model that built the mixture (see module docstring),
            which gives its components, Bayes update and exact transition.
        points: read-only int64 array of shape ``(M, K)``, one non-negative
            multi-index per row, rows distinct and in lexicographic order.
        weights: strictly positive weights aligned with ``points``, summing
            to one within ``WEIGHT_SUM_TOL``.
        theta: deterministic dual parameter shared by all components
            (``None`` when the model has no deterministic component).
    """

    model: object
    points: np.ndarray
    weights: np.ndarray
    theta: float | None = None

    def __post_init__(self):
        k = None if self.model is None else self.model.signal_dim
        points = np.array(dual_rows(self.points, k))
        if not _strictly_increasing_rows(points):
            raise ConfigError("support points must be distinct and sorted")
        w = np.array(self.weights, dtype=float)
        if w.shape != (len(points),):
            raise ConfigError("weights must align with support points")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise DegenerateWeights("weights must be finite and strictly positive")
        if abs(math.fsum(w) - 1.0) > WEIGHT_SUM_TOL:
            raise DegenerateWeights("weights must sum to one")
        points.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", w)
        if self.theta is not None:
            object.__setattr__(self, "theta", float(self.theta))

    @classmethod
    def from_weights(cls, model, points, weights,
                     theta: float | None = None) -> "DualMixture":
        """Build a mixture from ``(L, K)`` rows and non-negative raw weights.

        Repeated rows are merged by :func:`_merge_rows`, one int64
        mixed-radix key per row, which adds each row's weights in input order
        and returns the rows in lexicographic order.  The total is normalized
        to one, and rows whose normalized weight is zero are dropped, including
        denormal weights that underflow in the division.  The output rows do not
        depend on the order of the input rows, but the merged weights do in the
        last bit: rows ``[[1], [1], [1], [2]]`` with weights ``[0.1, 0.2, 0.3,
        0.4]`` give row ``[1]`` the weight ``0.6000000000000001``, and weights
        ``[0.3, 0.2, 0.1, 0.4]`` give it ``0.6``.

        Raises:
            DegenerateWeights: if no weight is strictly positive, or any weight
                is negative or non-finite.
            ConfigError: if the rows are not dual index rows (:func:`dual_rows`)
                with one weight per row (``DimensionError`` if not
                ``model.signal_dim`` wide).
        """
        points = dual_rows(points)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(points),):
            raise ConfigError("need one weight per row")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
            raise DegenerateWeights("weights must be finite and non-negative")
        if not np.any(weights > 0.0):
            raise DegenerateWeights("all weights are zero")
        rows, merged = _merge_rows(points, weights)
        merged /= math.fsum(merged)
        keep = merged > 0.0
        return cls(model=model, points=rows[keep], weights=merged[keep], theta=theta)

    @property
    def support_size(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact mean and standard deviation vectors of the mixture."""
        return mixture_moments(self)


def prune(mix: DualMixture, eps: float) -> tuple[DualMixture, float]:
    """Drop support points with (normalized) weight below ``eps``.

    Returns the renormalized mixture together with the total removed mass.
    ``eps = 0`` returns an identical mixture.

    Raises:
        DegenerateWeights: if the threshold removes the entire support.
    """
    if not 0.0 <= eps < 1.0:
        raise ConfigError("prune threshold must lie in [0, 1)")
    if eps == 0.0:
        return mix, 0.0
    keep = mix.weights >= eps
    if not np.any(keep):
        raise DegenerateWeights("pruning removed the entire support")
    removed = math.fsum(mix.weights[~keep])
    if removed > 0.0:
        logger.debug("pruned %d of %d support points, removed mass %.3e",
                     int(np.sum(~keep)), mix.support_size, removed)
    return (DualMixture.from_weights(mix.model, mix.points[keep],
                                     mix.weights[keep], mix.theta), removed)


def _merge_rows(points: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the int64 ``(L, C)`` ``points`` in lexicographic
    order and their weights added in input order, by ``np.bincount`` over the
    ``np.unique`` index of one mixed-radix int64 key per row, or of the rows
    themselves once the keys would reach ``2**63``."""
    radix = [int(col.max()) + 1 for col in points.T]
    if math.prod(radix) >= 2 ** 63:
        rows, inverse = np.unique(points, axis=0, return_inverse=True)
        return rows, np.bincount(inverse, weights)
    key = points[:, 0].copy()
    for j in range(1, len(radix)):
        key *= radix[j]
        key += points[:, j]
    key, inverse = np.unique(key, return_inverse=True)
    merged = np.bincount(inverse, weights)
    rows = np.empty((len(key), len(radix)), dtype=np.int64)
    for j in range(len(radix) - 1, 0, -1):
        key, rows[:, j] = np.divmod(key, radix[j])
    rows[:, 0] = key
    return rows, merged


def propagate(mix: DualMixture, dt: float) -> DualMixture:
    """Push a mixture through its model's typed pure-death dual over a time step.

    From ``m`` with ``T = |m|`` the dual moves to ``n <= m`` with probability
    ``d_T(|n|) * prod_i C(m_i, n_i) / C(T, |n|)``; ``model.pd_kernel`` gives
    ``theta_t`` and the law ``d_T`` of the surviving total.  Rows
    ``(n_1..n_{i-1}, m_i..m_K, T)`` expand one coordinate at a time to every
    ``n_i <= m_i`` and merge, their weights carrying the hypergeometric law
    of the prefix (at most one, so any total stays in range); the last rows
    take ``d_T(|n|)`` and merge over ``T`` in :meth:`DualMixture.from_weights`.
    For ``K = 1`` that is the level law.

    Raises (naming a source of the total at fault):
        InvalidKernel: if the law of a total has mass above ``1 + 1e-8``.
    """
    check_time_step(dt)
    k = mix.dim
    totals, level = np.unique(mix.points.sum(axis=1), return_inverse=True)
    laws, theta = mix.model.pd_kernel(totals, mix.theta, dt)
    mass = np.bincount(np.repeat(np.arange(len(totals)), totals + 1), laws)[level]
    heavy = np.flatnonzero(mass > 1.0 + KERNEL_MASS_TOL)
    if heavy.size:
        raise InvalidKernel(f"kernel mass {mass[heavy[0]]:.12f} from "
                            f"{mix.points[heavy[0]].tolist()} exceeds one")
    logfact = gammaln(np.arange(totals[-1] + 1) + 1.0)
    rows, weights = np.column_stack([mix.points, level]), mix.weights
    s = 0  # n[0] + .. + n[i-1] of each row
    for i in range(k):
        if i >= 2:  # rows first collide after two coordinates
            rows, weights = _merge_rows(rows, weights)
        cols = list(rows.T)  # added column by column: a short-axis sum is slow
        m = cols[i]
        size = m + 1
        n = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        weights = np.repeat(weights, size)
        if i:  # times C(low, s) C(m[i], n[i]) / C(low + m[i], s + n[i]), one at i = 0
            s = sum(cols[1:i], cols[0])
            low = totals[cols[k]] - sum(cols[i + 1:k], m)  # m[0] + .. + m[i-1]
            scale = logfact[low] - logfact[s] - logfact[low - s] + logfact[m] - logfact[low + m]
            s, m, low = (np.repeat(x, size) for x in (s, m, low))
            weights *= np.exp(np.repeat(scale, size) - logfact[n] - logfact[m - n]
                              + logfact[s + n] + logfact[low + m - s - n])
        rows = np.repeat(rows, size, axis=0)
        rows[:, i] = n
    d = laws[(np.cumsum(totals + 1) - (totals + 1))[rows[:, k]] + s + n]
    return DualMixture.from_weights(mix.model, rows[:, :k], weights * d, theta)


def update(mix: DualMixture, y) -> tuple[DualMixture, float]:
    """Bayes-update a mixture with one observation batch.

    ``mix.model.log_marginal_point(points, theta, y)`` gives the ``(M,)``
    log marginal likelihoods of the support rows, and
    ``mix.model.shift(y, points, theta)`` their ``(M, K)`` shifted rows and
    the shifted ``theta``.  New weights are proportional to
    ``w_m * exp(log_marginal[m])``, normalized via log-sum-exp.  The shift
    adds the same row to every index, so :meth:`DualMixture.from_weights`
    merges nothing; it normalizes and drops weights that underflow.

    Returns the posterior mixture and the log marginal likelihood of ``y``
    under the prior mixture (the filter's log-evidence increment).

    Raises:
        ZeroLikelihood: if every component has zero likelihood, or any
            marginal is NaN/+inf.
    """
    model = mix.model
    logmu = np.asarray(model.log_marginal_point(mix.points, mix.theta, y), dtype=float)
    if np.any(np.isnan(logmu)) or np.any(np.isposinf(logmu)):
        raise ZeroLikelihood("marginal likelihood returned a non-finite value")
    joint = np.log(mix.weights) + logmu
    if np.all(np.isneginf(joint)):
        raise ZeroLikelihood("all components have zero marginal likelihood")
    log_evidence = float(logsumexp(joint))
    points, theta = model.shift(y, mix.points, mix.theta)
    return (DualMixture.from_weights(model, points, np.exp(joint - log_evidence), theta),
            log_evidence)


def systematic_counts(weights: np.ndarray, n: int, offset: float) -> np.ndarray:
    """Systematic-resampling copy counts for ``n`` draws.

    Uses a single uniform ``offset`` in [0, 1) and a stratified traversal of
    the cumulative weights, so every index with weight ``w`` receives either
    ``floor(n*w)`` or ``ceil(n*w)`` copies.
    """
    if not (is_integer(n) and n >= 0):
        raise ConfigError(f"draw count must be a non-negative integer, not {n!r}")
    if not 0.0 <= offset < 1.0:
        raise ConfigError("offset must lie in [0, 1)")
    positions = (np.arange(n) + offset) / n
    cum = np.cumsum(weights)
    cum[-1] = max(cum[-1], 1.0)  # guard against fp undershoot
    idx = np.searchsorted(cum, positions, side="right")
    return np.bincount(np.minimum(idx, len(weights) - 1), minlength=len(weights))


def dual_particle_propagate(mix: DualMixture,
                            sampler,
                            n_particles: int,
                            dt: float,
                            rng: np.random.Generator) -> DualMixture:
    """Particle approximation of one propagation step on the dual space.

    Draws ``n_particles`` source indices from the mixture weights by
    systematic resampling (:func:`systematic_counts` with one uniform
    offset from ``rng``) and moves them with one call of ``sampler``.
    Every dual sampler follows this protocol::

        sampler(points, counts, theta, dt, rng) -> (rows, theta_t)

    ``points`` are the ``(M, K)`` sources drawn at least once and
    ``counts`` their copy numbers; ``rows`` are the ``counts.sum()``
    arrivals, each source's copies together, in source order, and
    ``theta_t`` the deterministic parameter at ``dt``: the pair is the
    dual state ``(M_t, Theta_t)`` the particles move to.  The result is the
    empirical law of ``rows`` at ``theta_t``, bit-reproducible for a given
    seeded ``rng``.  Rows that are not ``n_particles`` dual index rows
    raise ``ConfigError``, or ``DimensionError`` if not ``mix.dim`` wide.
    """
    if not (is_integer(n_particles) and n_particles >= 1):
        raise ConfigError(f"need an integer n_particles >= 1, not {n_particles!r}")
    check_time_step(dt)
    counts = systematic_counts(mix.weights, n_particles, rng.uniform())

    drawn = counts > 0
    rows, theta = sampler(mix.points[drawn], counts[drawn], mix.theta, dt, rng)
    arrivals = dual_rows(rows, mix.dim)
    if len(arrivals) != n_particles:
        raise ConfigError(f"sampler gave {len(arrivals)} rows, expected {n_particles}")
    return DualMixture.from_weights(mix.model, arrivals, np.ones(n_particles), theta)


@dataclass(frozen=True)
class DualSampler:
    """A sampler of :func:`dual_particle_propagate`'s protocol: one entry
    ``draw(points, counts, theta, dt, params, rng) -> (rows, theta_t)`` of a
    model's ``_DUAL_DRAWS`` table, bound to the model's ``params``."""

    draw: object
    params: object

    def __call__(self, points, counts, theta, dt, rng):
        return self.draw(points, counts, theta, dt, self.params, rng)


def mixture_moments(mix: DualMixture) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`DualMixture.moments`, at module level so that
    ``perfbench/tracing.py`` times it by this name.

    Component moments come from the mixture's model (Gamma components for
    the CIR model, Dirichlet components for WF) and are combined exactly:
    ``E[X] = sum w_m mu_m`` and ``E[X^2] = sum w_m (var_m + mu_m^2)``.
    """
    mu, var = mix.model.component_moments(mix.points, mix.theta)
    mean = mix.weights @ mu
    second = mix.weights @ (var + mu * mu)
    sd = np.sqrt(np.maximum(second - mean * mean, 0.0))
    return mean, sd


def mixture_pdf(mix: DualMixture, grid) -> np.ndarray:
    """Pointwise mixture density ``sum_m w_m g(x, m, theta)`` on a grid.

    ``grid`` is an array of signal points: non-negative reals for the CIR
    model, simplex points (rows) for the WF model.

    Raises:
        DomainError: if any grid point lies outside the state space.
    """
    grid = np.asarray(grid, dtype=float)
    return mix.weights @ np.exp(mix.model.component_logpdf(grid, mix.points, mix.theta))


def mixture_marginal_pdf(mix: DualMixture, grid) -> np.ndarray:
    """First-coordinate marginal mixture density on a scalar grid.

    For the WF model this is the Beta-mixture marginal of the first
    coordinate, zero off ``[0, 1]``; for the univariate CIR model it equals
    :func:`mixture_pdf`, and so raises ``DomainError`` at a negative point.
    Each distinct marginal is exponentiated once and gathered to its rows.
    """
    grid = np.asarray(grid, dtype=float)
    logpdf, index = mix.model.marginal_component_logpdf(grid, mix.points, mix.theta)
    return mix.weights @ np.exp(logpdf)[index]


def mixture_quantile(mix: DualMixture, q: float) -> float:
    """Quantile of the first-coordinate marginal of a mixture (by bisection)."""
    if not 0.0 < q < 1.0:
        raise ConfigError("quantile level must lie in (0, 1)")

    def cdf(x):
        return math.fsum(mix.weights * mix.model.marginal_component_cdf(
            x, mix.points, mix.theta))

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
    """Draw ``size`` signal points from a mixture in one batched draw.

    Component counts are multinomial; the returned array keeps components
    grouped, which is immaterial for exchangeable downstream use (particle
    clouds).  A ``size`` that is not a non-negative integer raises
    ``ConfigError``.
    """
    if not (is_integer(size) and size >= 0):
        raise ConfigError(f"sample size must be a non-negative integer, not {size!r}")
    counts = rng.multinomial(size, mix.weights)
    return mix.model.sample_component(np.repeat(mix.points, counts, axis=0),
                                      mix.theta, rng)
