"""Cox-Ingersoll-Ross model: conjugate math, dual processes and samplers.

The hidden signal solves ``dX = (delta*sigma^2 - 2*gamma*X) dt
+ 2*sigma*sqrt(X) dB`` on the positive half line and is reversible with
respect to ``Gamma(delta/2, gamma/sigma^2)`` (shape/rate).  Emissions are
batches of iid ``Poisson(tau * x)`` counts, conjugate to the Gamma family,
so every filtering law is a mixture of ``Gamma(delta/2 + m, theta)``
components indexed by an integer ``m`` and a rate parameter ``theta``.

Two dual processes drive propagation:

* a pure-death chain (per-capita death rate ``2*sigma^2*Theta_t``) paired
  with the deterministic flow ``Theta_t``, which keeps mixtures finite and
  admits a closed-form binomial transition;
* a birth-and-death chain with birth rate
  ``2*sigma^2*(delta/2 + m)*(theta - gamma/sigma^2)`` and death rate
  ``2*sigma^2*theta*m`` at fixed ``theta``, drawn by a two-stage branching
  construction (binomial survivors plus negative-binomial offspring,
  Poisson immigration) or by an event-driven (Gillespie) reference loop.

``CIRModel`` defines each primitive the filters read once, in its class
body: the conjugate update (``log_marginal_point``, ``shift``), the
pure-death law of the surviving count and the parameter flow
(``pd_kernel``), the signal draw and the emission likelihood.  The
module-level functions are what the dual draws share with it:
``pure_death_flow`` (survival and parameter flow of the pure-death dual),
the linear B&D rates and draws, and the event-driven B&D path.

``CIRModel.dual_sampler(kind)`` binds one draw of ``_DUAL_DRAWS`` to the
shared :class:`~dualfilter.mixtures.DualSampler`: ``pure_death``
(binomial thinning, ``theta`` moved along its flow), ``bd`` (one
branching draw over the step's sources) or ``bd_gillespie`` (one
event-driven path per copy).  The signal draw takes one start value per
path.  The branching draw takes aligned sources and copy counts and
draws source by source, which fixes its random stream, and passes scalar
arguments to ``Generator`` where a source has few copies.  A
``cir_filtering`` step has tens of sources of about 4 copies each, and
numpy checks the array arguments of a ``Generator`` call at a fixed
cost: about 47 us for ``negative_binomial`` whatever the length, against
1.7 us for a scalar call (numpy 2.4, 2-vCPU VM).  The values drawn are
the same either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln

from .errors import (ConfigError, DomainError, InvalidDualParam,
                     SimulationBudgetExceeded)
from .mixtures import (DualMixture, DualSampler, ObservationRecord, check_time_step,
                       dual_rows, is_real)

__all__ = [
    "CIRParams",
    "CIRModel",
    "gillespie_bd",
    "linear_bd_rates",
    "linear_bd_sample_many",
    "pure_death_flow",
]

@dataclass(frozen=True)
class CIRParams:
    """CIR parameterization (delta, gamma, sigma) with emission scale tau.

    Derived quantities: ``alpha = delta/2`` (Gamma shape of the reversible
    law) and ``beta = gamma/sigma^2`` (its rate, and the lower bound for
    every dual rate parameter).
    """

    delta: float
    gamma: float
    sigma: float
    tau: float = 1.0

    def __post_init__(self):
        for name in ("delta", "gamma", "sigma", "tau"):
            value = getattr(self, name)
            if not (is_real(value) and value > 0):
                raise ConfigError(f"{name} must be finite and strictly positive, "
                                  f"not {value!r}")

    @property
    def alpha(self) -> float:
        return 0.5 * self.delta

    @property
    def beta(self) -> float:
        return self.gamma / self.sigma ** 2


def gillespie_bd(m0: int, t: float, theta: float, p: CIRParams,
                 rng: np.random.Generator, max_events: int = 10_000_000) -> int:
    """Exact event-driven simulation of the B&D dual up to time ``t``.

    Alternates exponential holding times (rate ``lambda_m + mu_m``) with
    up-moves of probability ``lambda_m / (lambda_m + mu_m)``, where
    ``lambda_m = lam*m + beta_imm`` and ``mu_m = mu*m`` (:func:`linear_bd_rates`).

    Raises:
        InvalidDualParam: if ``theta < beta`` (negative birth rate).
        SimulationBudgetExceeded: after ``max_events`` jumps.
    """
    lam, beta_imm, mu = linear_bd_rates(theta, p)
    m = int(m0)
    clock = 0.0
    for _ in range(max_events):
        up = lam * m + beta_imm
        total = up + mu * m
        if total <= 0.0:
            return m
        clock += rng.exponential(1.0 / total)
        if clock > t:
            return m
        m += 1 if rng.random() < up / total else -1
    raise SimulationBudgetExceeded(f"more than {max_events} B&D events")


def linear_bd_rates(theta: float, p: CIRParams) -> tuple[float, float, float]:
    """Per-capita birth/death rates and immigration rate of the linear form.

    The B&D dual rates decompose as ``lambda_m = lam*m + beta_imm`` and
    ``mu_m = mu*m`` with ``lam = 2*sigma^2*(theta-beta)``,
    ``beta_imm = sigma^2*delta*(theta-beta)`` and ``mu = 2*sigma^2*theta``.
    """
    if not theta >= p.beta * (1.0 - 1e-12):
        raise InvalidDualParam(f"theta={theta} below gamma/sigma^2={p.beta}")
    diff = max(theta - p.beta, 0.0)
    lam = 2.0 * p.sigma ** 2 * diff
    beta_imm = p.sigma ** 2 * p.delta * diff
    mu = 2.0 * p.sigma ** 2 * theta
    return lam, beta_imm, mu


def _survival_pair(lam: float, mu: float, d: float, t) -> tuple[np.ndarray, np.ndarray]:
    """(g, h) of the two-stage linear-B&D transition over elapsed time t.

    ``h = d / (lam*exp(d*t) - mu)`` and ``g = h*exp(d*t)`` with
    ``d = lam - mu``, which :func:`linear_bd_sample_many` passes in closed
    form, ``-2*gamma``: it never vanishes, and subtracting the rates would
    cancel once ``theta`` dwarfs ``beta``.  The exponent is never positive,
    so large ``t`` cannot overflow.
    """
    t = np.asarray(t, dtype=float)
    edt = np.exp(d * t)
    h = d / (lam * edt - mu)
    return np.clip(h * edt, 0.0, 1.0), np.clip(h, 0.0, 1.0)


def linear_bd_sample_many(m0, t: float, theta: float, p: CIRParams,
                          rng: np.random.Generator, size) -> np.ndarray:
    """Independent draws of the B&D dual at time ``t``, source by source.

    ``m0`` and ``size`` are one source and its number of copies, or
    aligned arrays of sources and copy numbers; the draws come back in
    source order, each source's copies together.  Unlike the other draws,
    which take one start per path, this is the sampler protocol's
    ``(points, counts)`` form: the ``bd`` random stream is drawn per
    source, so the draw needs the sources.

    Two-stage construction: descendants of the ``m0`` initial individuals
    (binomial number of surviving families, each adding a
    negative-binomial offspring count) plus descendants of Poisson
    immigration with uniform arrival times, each immigrant family evolved
    from size one over its residual time.  The rates and the first-stage
    survival pair depend on ``(theta, t)`` only, so every source shares
    them; each source is then drawn in turn by :func:`_linear_bd_draw`,
    which fixes the random stream.
    """
    check_time_step(t)
    lam, beta_imm, mu = linear_bd_rates(theta, p)
    d = -2.0 * p.gamma
    g, h = _survival_pair(lam, mu, d, t)
    step = lam, beta_imm, mu, d, float(g), float(h)
    return np.concatenate([
        _linear_bd_draw(m, t, step, rng, c)
        for m, c in zip(np.atleast_1d(m0).tolist(), np.atleast_1d(size).tolist(),
                        strict=True)])


def _linear_bd_draw(m0: int, t: float, step: tuple, rng: np.random.Generator,
                    size: int) -> np.ndarray:
    """``size`` draws from the one source ``m0``, given the shared rates and
    survival pair ``step`` of :func:`linear_bd_sample_many`.

    The native stage draws with scalar arguments: the survivors as one
    ``binomial(m0, g, size)`` call, then each surviving family's offspring
    as one ``negative_binomial(s, h)`` call, in copy order.  Numpy runs the
    same per-element routine in the same order as for one array call, so
    the values are those of the array call, without its argument checks
    (see the module docstring).  The immigrant stage has tens of families
    per source, and keeps its one array call.
    """
    lam, beta_imm, mu, d, g, h = step
    native = rng.binomial(m0, g, size)
    if h < 1.0:
        for i, s in enumerate(native.tolist()):
            if s > 0:
                native[i] += rng.negative_binomial(s, h)

    if beta_imm <= 0.0:
        return native

    n_imm = rng.poisson(beta_imm * t, size)
    total = int(n_imm.sum())
    if total == 0:
        return native
    path = np.repeat(np.arange(size), n_imm)
    residual = t - rng.uniform(0.0, t, total)
    gi, hi = _survival_pair(lam, mu, d, residual)
    alive = rng.random(total) < gi
    fam = alive.astype(np.int64)
    grow = alive & (hi < 1.0)
    if np.any(grow):
        fam[grow] += rng.negative_binomial(1, hi[grow])
    immigrants = np.bincount(path, weights=fam, minlength=size).astype(np.int64)
    return native + immigrants


def pure_death_flow(t: float, theta0: float, p: CIRParams) -> tuple[float, float]:
    """(survival, Theta_t) of the pure-death dual over [0, t] from ``theta0``.

    Both share ``D(t) = theta0 - (theta0-beta)*exp(-2*gamma*t)``.  The
    parameter flow is the closed logistic-type solution of
    ``dTheta/dt = -2*sigma^2*Theta*(Theta - beta)``,
    ``Theta_t = beta*theta0 / D(t)``: it starts at ``theta0`` and relaxes
    monotonically to ``beta``.  Individuals die independently at the
    inhomogeneous per-capita rate ``2*sigma^2*Theta_u``; the integrated
    hazard is ``-log s(t) = 2*gamma*t + log(D(t)/beta)``, hence the
    survival probability ``s(t) = beta*exp(-2*gamma*t) / D(t)``.
    """
    if not (is_real(t) and t >= 0):
        raise ConfigError(f"time must be finite and non-negative, not {t!r}")
    if not (is_real(theta0) and theta0 > 0):
        raise ConfigError(f"theta0 must be finite and positive, not {theta0!r}")
    beta = p.beta
    e = np.exp(-2.0 * p.gamma * t)
    denom = theta0 - (theta0 - beta) * e
    return float(beta * e / denom), float(beta * theta0 / denom)


def _transition_constants(t: float, p: CIRParams) -> tuple[float, float]:
    """(c, r) of the Gamma-Poisson form of the CIR transition over time t.

    ``X_t | X_0 = x`` is ``Gamma(delta/2 + J, r)`` with
    ``J ~ Poisson(x*c)``, where ``r = beta/(1 - exp(-2*gamma*t))`` and
    ``c = r*exp(-2*gamma*t)``; equivalently the scaled noncentral
    chi-square transition with ``delta`` degrees of freedom.
    """
    e = math.exp(-2.0 * p.gamma * t)
    r = p.beta / (1.0 - e)
    return r * e, r


def _gamma_logpdf(x: np.ndarray, a: np.ndarray, rate: float) -> np.ndarray:
    """Gamma(a_m, rate) log-densities, one row per shape, at grid ``x``.

    Returns an ``(M, G)`` array with explicit boundary handling at x = 0.
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)[:, None]
    const = a * math.log(rate) - gammaln(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        body = const + (a - 1.0) * np.log(x) - rate * x
    at_zero = np.select([a == 1.0, a < 1.0], [const, np.inf], -np.inf)
    return np.where(x == 0.0, at_zero, body)


def _pure_death_draw(points, counts, theta, dt, p, rng):
    s, theta_t = pure_death_flow(dt, theta, p)
    return rng.binomial(np.repeat(points[:, 0], counts), s)[:, None], theta_t


def _bd_draw(points, counts, theta, dt, p, rng):
    return linear_bd_sample_many(points[:, 0], dt, theta, p, rng, counts)[:, None], theta


def _bd_gillespie_draw(points, counts, theta, dt, p, rng):
    return np.array([gillespie_bd(m, dt, theta, p, rng)
                     for m in np.repeat(points[:, 0], counts).tolist()],
                    dtype=np.int64)[:, None], theta


#: dual kind -> draw in the sampler protocol (see the module docstring)
_DUAL_DRAWS = {
    "pure_death": _pure_death_draw,
    "bd": _bd_draw,
    "bd_gillespie": _bd_gillespie_draw,
}


class _BirthDeathSampler(DualSampler):
    # perfbench/test_smoke.py needs ``many`` until the benchmark revision
    # (ROADMAP item 2); it returns bare rows, and nothing in src/ calls it.
    def many(self, point, theta, dt, rng, size):
        return linear_bd_sample_many(point[0], dt, theta, self.params, rng, size)[:, None]


class CIRModel:
    """Bundles the CIR primitives behind the interface the filters consume.

    Its mixtures hold Gamma(delta/2 + m, theta) components; the component
    methods take the ``(M, 1)`` support array of a mixture and return one
    row per support point.
    """

    name = "cir"
    signal_dim = 1

    def __init__(self, params: CIRParams):
        self.params = params

    # -- conjugate filtering interface ------------------------------------

    def prior_mixture(self) -> DualMixture:
        return DualMixture(self, [[0]], [1.0], self.params.beta)

    def shift(self, y: ObservationRecord, points: np.ndarray, theta: float) -> tuple:
        return points + sum(y.values), theta + len(y.values) * self.params.tau

    def log_marginal_point(self, points: np.ndarray, theta: float,
                           y: ObservationRecord) -> np.ndarray:
        """Log marginal likelihood of a Poisson batch under each
        Gamma(delta/2 + m, theta), one per ``(M, 1)`` row ``m``.

        This is the Gamma-Poisson (negative-binomial type) closed form for
        the joint probability of the whole batch, including the Poisson
        factorial normalizers.  An empty batch has likelihood one.
        """
        p = self.params
        a = self._shapes(points)
        counts = y.values
        k = len(counts)
        if k == 0:
            return np.zeros(a.shape)
        s = sum(counts)
        return (s * math.log(p.tau) - sum(gammaln(c + 1) for c in counts)
                + a * math.log(theta) - gammaln(a)
                + gammaln(a + s) - (a + s) * math.log(theta + k * p.tau))

    def pd_kernel(self, totals, theta: float, dt: float) -> tuple[np.ndarray, float]:
        """Binomial(T, s(dt)) laws of the ``totals`` over ``0..T``, concatenated,
        and ``theta_t``, both from one :func:`pure_death_flow` call."""
        totals = dual_rows(np.reshape(totals, (-1, 1)))[:, 0]
        s, theta_t = pure_death_flow(dt, theta, self.params)
        top = np.repeat(totals, totals + 1)
        n = np.arange(len(top)) - np.repeat(np.cumsum(totals + 1) - totals - 1, totals + 1)
        if s >= 1.0:
            return (n == top).astype(float), theta_t
        if s <= 0.0:
            return (n == 0).astype(float), theta_t
        return np.exp(gammaln(top + 1) - gammaln(n + 1) - gammaln(top - n + 1)
                      + n * math.log(s) + (top - n) * math.log1p(-s)), theta_t

    def dual_sampler(self, kind: str):
        if kind not in _DUAL_DRAWS:
            raise ConfigError(f"unknown CIR dual kind {kind!r}")
        sampler = _BirthDeathSampler if kind == "bd" else DualSampler
        return sampler(_DUAL_DRAWS[kind], self.params)

    # -- mixture components -----------------------------------------------

    def _shapes(self, points) -> np.ndarray:
        return self.params.alpha + dual_rows(points, 1)[:, 0]

    def component_moments(self, points, theta: float) -> tuple[np.ndarray, np.ndarray]:
        shapes = self._shapes(points)
        return (shapes / theta)[:, None], (shapes / theta ** 2)[:, None]

    def component_logpdf(self, x, points, theta: float) -> np.ndarray:
        if np.any(np.asarray(x) < 0):
            raise DomainError("CIR grid points must be non-negative")
        return _gamma_logpdf(x, self._shapes(points), theta)

    def marginal_component_logpdf(self, grid, points,
                                  theta: float) -> tuple[np.ndarray, np.ndarray]:
        """``(component_logpdf(grid, points, theta), np.arange(M))``: the
        signal is univariate, so each row is its own first-coordinate
        marginal.  Raises ``DomainError`` at a negative grid point."""
        return self.component_logpdf(grid, points, theta), np.arange(len(points))

    def marginal_component_cdf(self, x: float, points, theta: float) -> np.ndarray:
        return gammainc(self._shapes(points), theta * max(x, 0.0))

    def sample_component(self, points, theta: float, rng: np.random.Generator) -> np.ndarray:
        return rng.gamma(self._shapes(points), 1.0 / theta)

    # -- signal-space interface (bootstrap baseline) -----------------------

    def sample_prior(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.gamma(self.params.alpha, 1.0 / self.params.beta, size)

    def signal_sample_many(self, x: np.ndarray, dt: float,
                           rng: np.random.Generator) -> np.ndarray:
        """Exact draws of ``X_dt | X_0 = x`` via the Gamma-Poisson expansion,
        one per value of ``x``."""
        check_time_step(dt)
        c, r = _transition_constants(dt, self.params)
        j = rng.poisson(np.atleast_1d(x) * c)
        return rng.gamma(self.params.alpha + j, 1.0 / r)

    def emission_log_pmf(self, x: np.ndarray, y: ObservationRecord) -> np.ndarray:
        """Log-likelihood of a Poisson batch at each signal value in ``x``."""
        p = self.params
        x = np.asarray(x, dtype=float)
        counts = y.values
        k = len(counts)
        if k == 0:
            return np.zeros_like(x)
        s = sum(counts)
        const = s * math.log(p.tau) - sum(gammaln(c + 1) for c in counts)
        with np.errstate(divide="ignore", invalid="ignore"):
            logx = np.where(x > 0, np.log(x), -np.inf)
            out = const + s * logx - k * p.tau * x
        if s == 0:
            out = np.where(x > 0, out, const)
        return out

    def sample_emission(self, x: float, batch: int, rng: np.random.Generator) -> tuple:
        return tuple(int(v) for v in rng.poisson(self.params.tau * x, batch))

    # -- smoothing closure --------------------------------------------------
    # Indices are ``(..., 1)`` arrays (or tuples); ``combine`` broadcasts
    # over their leading axes.  The combined index is always ``m + n``.

    def combine(self, m, n, theta_a: float, theta_b: float):
        """(log C, theta) with h(x,m,ta) h(x,n,tb) = C h(x, m+n, theta = ta+tb-beta)."""
        a = self.params.alpha
        theta = theta_a + theta_b - self.params.beta
        mi, ni = np.asarray(m)[..., 0], np.asarray(n)[..., 0]
        return (gammaln(a) - gammaln(a + mi) - gammaln(a + ni) + gammaln(a + mi + ni)
                - a * math.log(self.params.beta)
                + (a + mi) * math.log(theta_a) + (a + ni) * math.log(theta_b)
                - (a + mi + ni) * math.log(theta)), theta
