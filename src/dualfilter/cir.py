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
  ``2*sigma^2*theta*m`` at fixed ``theta``, simulated either by a Gillespie
  loop or by a two-stage branching construction (binomial survivors plus
  negative-binomial offspring, Poisson immigration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, InvalidDualParam, SimulationBudgetExceeded
from .mixtures import DualMixture, Index, ObservationRecord

__all__ = [
    "CIRParams",
    "CIRFamily",
    "CIRModel",
    "log_density_ratio",
    "density_ratio",
    "update_conjugate",
    "log_marginal",
    "bd_rates",
    "embedded_up_prob",
    "gillespie_bd",
    "linear_bd_rates",
    "linear_bd_sample",
    "linear_bd_sample_many",
    "pure_death_theta",
    "pure_death_survival",
    "pure_death_pmf",
    "pure_death_transition",
    "cir_transition_sample",
    "cir_transition_sample_many",
    "emission_log_pmf",
]

#: relative tolerance for detecting the critical birth/death rate tie
RATE_TIE_RTOL = 1e-12


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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def alpha(self) -> float:
        return 0.5 * self.delta

    @property
    def beta(self) -> float:
        return self.gamma / self.sigma ** 2


def _m_of(point) -> int:
    return int(point[0]) if isinstance(point, tuple) else int(point)


def log_density_ratio(x, m: int, theta: float, p: CIRParams):
    """Log of the Gamma(delta/2+m, theta) density over the reversible density.

    Multiplying the reversible Gamma(delta/2, beta) density by
    ``exp(log_density_ratio)`` yields the conjugate-family member
    Gamma(delta/2+m, theta); at ``m=0, theta=beta`` the ratio is one.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    x = np.asarray(x, dtype=float)
    a = p.alpha
    const = (gammaln(a) - gammaln(a + m)
             - a * math.log(p.beta) + (a + m) * math.log(theta))
    with np.errstate(divide="ignore", invalid="ignore"):
        xterm = np.where(m == 0, 0.0, m * np.log(x))
    out = const + xterm - (theta - p.beta) * x
    return out if out.shape else float(out)


def density_ratio(x, m: int, theta: float, p: CIRParams):
    """Linear-scale version of :func:`log_density_ratio`.

    Raises:
        OverflowError: when the value exceeds the double range; callers must
            switch to :func:`log_density_ratio` (always needed for large
            ``m``, typically m > 100).
    """
    logv = log_density_ratio(x, m, theta, p)
    if np.any(np.asarray(logv) > 709.0):
        raise OverflowError("density ratio exceeds float range; use log_density_ratio")
    out = np.exp(logv)
    return out if np.ndim(out) else float(out)


def update_conjugate(m: int, theta: float, y: ObservationRecord,
                     p: CIRParams) -> tuple[int, float]:
    """Conjugate Gamma-Poisson update for a batch of k Poisson counts.

    Returns ``(m + sum(y), theta + k*tau)``.
    """
    counts = y.values
    return m + sum(counts), theta + len(counts) * p.tau


def log_marginal(m: int, theta: float, y: ObservationRecord, p: CIRParams) -> float:
    """Log marginal likelihood of a Poisson batch under Gamma(delta/2+m, theta).

    This is the Gamma-Poisson (negative-binomial type) closed form for the
    joint probability of the whole batch, including the Poisson factorial
    normalizers.  An empty batch has likelihood one.
    """
    counts = y.values
    k = len(counts)
    if k == 0:
        return 0.0
    a = p.alpha + m
    s = sum(counts)
    out = (s * math.log(p.tau) - sum(gammaln(c + 1) for c in counts)
           + a * math.log(theta) - gammaln(a)
           + gammaln(a + s) - (a + s) * math.log(theta + k * p.tau))
    return float(out)


def bd_rates(m: int, theta: float, p: CIRParams) -> tuple[float, float]:
    """Birth and death rates of the B&D dual at state ``m``.

    ``lambda_m = 2*sigma^2*(delta/2 + m)*(theta - beta)`` and
    ``mu_m = 2*sigma^2*theta*m``.

    Raises:
        InvalidDualParam: if ``theta < beta`` (negative birth rate).
    """
    if theta < p.beta * (1.0 - 1e-12):
        raise InvalidDualParam(f"theta={theta} below gamma/sigma^2={p.beta}")
    diff = max(theta - p.beta, 0.0)
    lam = 2.0 * p.sigma ** 2 * (p.alpha + m) * diff
    mu = 2.0 * p.sigma ** 2 * theta * m
    return lam, mu


def embedded_up_prob(m: int, alpha: float, beta: float, k: int) -> float:
    """Up-move probability of the embedded B&D jump chain.

    Uses the simplified parameterization (sigma^2 = 1/2, tau = 1, theta =
    beta + k after conditioning on a batch of size k):
    ``p_up = k*(alpha+m) / (k*(alpha+m) + m*(beta+k))``.  From ``m = 0``
    the chain can only move up, so ``p_up = 1`` by convention.
    """
    if m == 0:
        return 1.0
    up = k * (alpha + m)
    return up / (up + m * (beta + k))


def gillespie_bd(m0: int, t: float, theta: float, p: CIRParams,
                 rng: np.random.Generator, max_events: int = 10_000_000) -> int:
    """Exact event-driven simulation of the B&D dual up to time ``t``.

    Alternates exponential holding times (rate ``lambda_m + mu_m``) with
    up-moves of probability ``lambda_m / (lambda_m + mu_m)``.

    Raises:
        SimulationBudgetExceeded: after ``max_events`` jumps.
    """
    m = int(m0)
    clock = 0.0
    for _ in range(max_events):
        lam, mu = bd_rates(m, theta, p)
        total = lam + mu
        if total <= 0.0:
            return m
        clock += rng.exponential(1.0 / total)
        if clock > t:
            return m
        m += 1 if rng.random() < lam / total else -1
    raise SimulationBudgetExceeded(f"more than {max_events} B&D events")


def linear_bd_rates(theta: float, p: CIRParams) -> tuple[float, float, float]:
    """Per-capita birth/death rates and immigration rate of the linear form.

    The B&D dual rates decompose as ``lambda_m = lam*m + beta_imm`` and
    ``mu_m = mu*m`` with ``lam = 2*sigma^2*(theta-beta)``,
    ``beta_imm = sigma^2*delta*(theta-beta)`` and ``mu = 2*sigma^2*theta``.
    """
    if theta < p.beta * (1.0 - 1e-12):
        raise InvalidDualParam(f"theta={theta} below gamma/sigma^2={p.beta}")
    diff = max(theta - p.beta, 0.0)
    lam = 2.0 * p.sigma ** 2 * diff
    beta_imm = p.sigma ** 2 * p.delta * diff
    mu = 2.0 * p.sigma ** 2 * theta
    return lam, beta_imm, mu


def _survival_pair(lam: float, mu: float, t) -> tuple[np.ndarray, np.ndarray]:
    """(g, h) of the two-stage linear-B&D transition over elapsed time t.

    ``h = (lam-mu) / (lam*exp((lam-mu)*t) - mu)`` and ``g = h*exp((lam-mu)*t)``,
    with the analytic limit ``h = 1/(1+lam*t)`` at the critical tie
    ``lam == mu``.  Branches keep every exponential argument non-positive so
    large ``t`` cannot overflow.
    """
    t = np.asarray(t, dtype=float)
    d = lam - mu
    if abs(d) < RATE_TIE_RTOL * max(lam, mu, 1e-300):
        h = 1.0 / (1.0 + lam * t)
        return h, h
    if d < 0.0:
        edt = np.exp(d * t)
        h = d / (lam * edt - mu)
        g = h * edt
    else:
        emdt = np.exp(-d * t)
        h = d * emdt / (lam - mu * emdt)
        g = d / (lam - mu * emdt)
    return np.clip(g, 0.0, 1.0), np.clip(h, 0.0, 1.0)


def _negbin(rng: np.random.Generator, n: np.ndarray, h: np.ndarray) -> np.ndarray:
    """NegativeBinomial(n, h) failure counts with the NBin(0, .) = 0 convention."""
    out = np.zeros(n.shape, dtype=np.int64)
    mask = (n > 0) & (h < 1.0)
    if np.any(mask):
        out[mask] = rng.negative_binomial(n[mask], np.asarray(h)[mask] if np.ndim(h) else h)
    return out


def linear_bd_sample_many(m0, t: float, theta: float, p: CIRParams,
                          rng: np.random.Generator, size: int) -> np.ndarray:
    """Vectorized two-stage sampler of the B&D dual at time ``t``.

    Decomposes the population into descendants of the ``m0`` initial
    individuals (binomial number of surviving families, each adding a
    negative-binomial offspring count) and descendants of Poisson
    immigration with uniform arrival times, each immigrant family evolved
    from size one over its residual time.
    """
    lam, beta_imm, mu = linear_bd_rates(theta, p)
    m0 = np.broadcast_to(np.asarray(m0, dtype=np.int64), (size,))

    g, h = _survival_pair(lam, mu, t)
    surv = rng.binomial(m0, float(g))
    native = surv + _negbin(rng, surv, np.full(size, float(h)))

    if beta_imm <= 0.0:
        return native

    n_imm = rng.poisson(beta_imm * t, size)
    total = int(n_imm.sum())
    if total == 0:
        return native
    path = np.repeat(np.arange(size), n_imm)
    residual = t - rng.uniform(0.0, t, total)
    gi, hi = _survival_pair(lam, mu, residual)
    alive = rng.random(total) < gi
    fam = np.zeros(total, dtype=np.int64)
    if np.any(alive):
        ones = np.ones(int(alive.sum()), dtype=np.int64)
        fam[alive] = 1 + _negbin(rng, ones, np.asarray(hi)[alive])
    immigrants = np.bincount(path, weights=fam, minlength=size).astype(np.int64)
    return native + immigrants


def linear_bd_sample(m0: int, t: float, theta: float, p: CIRParams,
                     rng: np.random.Generator) -> int:
    """Single draw of the B&D dual via the two-stage construction."""
    return int(linear_bd_sample_many(m0, t, theta, p, rng, 1)[0])


def pure_death_theta(t, theta0: float, p: CIRParams):
    """Deterministic dual parameter flow of the pure-death dual.

    Closed logistic-type solution of
    ``dTheta/dt = -2*sigma^2*Theta*(Theta - beta)``:
    ``Theta_t = beta*theta0 / (theta0 - (theta0-beta)*exp(-2*gamma*t))``.
    Starts at ``theta0`` and relaxes monotonically to ``beta``.
    """
    if theta0 <= 0:
        raise ValueError("theta0 must be positive")
    t = np.asarray(t, dtype=float)
    beta = p.beta
    denom = theta0 - (theta0 - beta) * np.exp(-2.0 * p.gamma * t)
    out = beta * theta0 / denom
    return out if out.shape else float(out)


def pure_death_survival(t, theta0: float, p: CIRParams):
    """Survival probability of one dual individual over [0, t].

    Individuals die independently at the inhomogeneous per-capita rate
    ``2*sigma^2*Theta_u``; the integrated hazard has the closed form
    ``-log s(t) = 2*gamma*t + log(D(t)/beta)`` with
    ``D(t) = theta0 - (theta0-beta)*exp(-2*gamma*t)``, hence
    ``s(t) = beta*exp(-2*gamma*t) / D(t)``.
    """
    if theta0 <= 0:
        raise ValueError("theta0 must be positive")
    t = np.asarray(t, dtype=float)
    beta = p.beta
    e = np.exp(-2.0 * p.gamma * t)
    out = beta * e / (theta0 - (theta0 - beta) * e)
    return out if out.shape else float(out)


def pure_death_pmf(m: int, t: float, theta0: float, p: CIRParams) -> np.ndarray:
    """Binomial(m, s(t)) transition vector of the pure-death dual over [0, t]."""
    if m < 0:
        raise ValueError("m must be non-negative")
    s = pure_death_survival(t, theta0, p)
    pmf = np.zeros(m + 1)
    if s >= 1.0:
        pmf[m] = 1.0
    elif s <= 0.0:
        pmf[0] = 1.0
    else:
        n = np.arange(m + 1)
        logpmf = (gammaln(m + 1) - gammaln(n + 1) - gammaln(m - n + 1)
                  + n * math.log(s) + (m - n) * math.log1p(-s))
        pmf = np.exp(logpmf)
    return pmf


def pure_death_transition(m: int, n: int, t: float, theta0: float, p: CIRParams) -> float:
    """Probability the pure-death dual moves from ``m`` to ``n`` in time ``t``.

    Zero outside ``0 <= n <= m``; ``t = 0`` gives the point mass at ``m``.
    """
    if n < 0 or n > m:
        return 0.0
    return float(pure_death_pmf(m, t, theta0, p)[n])


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


def cir_transition_sample_many(x, t: float, p: CIRParams,
                               rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Exact draws of ``X_t | X_0 = x`` via the Gamma-Poisson expansion."""
    if t <= 0:
        raise ValueError("time step must be positive")
    x = np.asarray(x, dtype=float)
    if size is None:
        size = x.shape[0] if x.ndim else 1
    c, r = _transition_constants(t, p)
    j = rng.poisson(np.broadcast_to(x * c, (size,)))
    return rng.gamma(p.alpha + j, 1.0 / r)


def cir_transition_sample(x: float, t: float, p: CIRParams,
                          rng: np.random.Generator) -> float:
    """One exact draw of the CIR transition from state ``x`` over time ``t``."""
    return float(cir_transition_sample_many(float(x), t, p, rng, 1)[0])


def emission_log_pmf(x, y: ObservationRecord, p: CIRParams) -> np.ndarray:
    """Log-likelihood of a Poisson batch at signal value(s) ``x``."""
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


def _gamma_logpdf(x: np.ndarray, a: float, rate: float) -> np.ndarray:
    """Gamma(a, rate) log-density with explicit boundary handling at x = 0."""
    x = np.asarray(x, dtype=float)
    const = a * math.log(rate) - gammaln(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        body = const + (a - 1.0) * np.log(x) - rate * x
    if a == 1.0:
        at_zero = const
    elif a < 1.0:
        at_zero = np.inf
    else:
        at_zero = -np.inf
    return np.where(x == 0.0, at_zero, body)


class CIRFamily:
    """Gamma component kernels g(x, m, theta) = Gamma(delta/2 + m, theta)."""

    tag = "cir-gamma"

    def __init__(self, params: CIRParams):
        self.params = params

    def component_mean(self, point: Index, theta: float) -> np.ndarray:
        a = self.params.alpha + _m_of(point)
        return np.array([a / theta])

    def component_var(self, point: Index, theta: float) -> np.ndarray:
        a = self.params.alpha + _m_of(point)
        return np.array([a / theta ** 2])

    def component_logpdf(self, x, point: Index, theta: float) -> np.ndarray:
        return _gamma_logpdf(x, self.params.alpha + _m_of(point), theta)

    def marginal_component_logpdf(self, grid, point: Index, theta: float,
                                  coord: int = 0) -> np.ndarray:
        if coord != 0:
            raise DomainError("the CIR signal is univariate")
        return self.component_logpdf(grid, point, theta)

    def marginal_component_cdf(self, x: float, point: Index, theta: float,
                               coord: int = 0) -> float:
        from scipy.special import gammainc
        if coord != 0:
            raise DomainError("the CIR signal is univariate")
        a = self.params.alpha + _m_of(point)
        return float(gammainc(a, theta * max(x, 0.0)))

    def sample_component(self, point: Index, theta: float,
                         rng: np.random.Generator, size: int) -> np.ndarray:
        a = self.params.alpha + _m_of(point)
        return rng.gamma(a, 1.0 / theta, size)

    def check_domain(self, grid: np.ndarray) -> None:
        if np.any(np.asarray(grid) < 0):
            raise DomainError("CIR grid points must be non-negative")


class _PureDeathSampler:
    """Exact sampler of the pure-death dual (binomial thinning).

    Every CIR dual sampler is called once per filter step as
    ``sampler(points, counts, theta, dt, rng)`` with ``(M, 1)`` source
    points and their copy counts; it returns ``counts.sum()`` rows of
    shape ``(., 1)``, the copies of each source together, in source order.
    """

    def __init__(self, params: CIRParams):
        self.params = params

    def __call__(self, points, counts, theta, dt, rng):
        s = pure_death_survival(dt, theta, self.params)
        return rng.binomial(np.repeat(points[:, 0], counts), s)[:, None]


class _BirthDeathSampler:
    """Two-stage (branching) sampler of the B&D dual at fixed theta.

    The batched call draws each source's copies with :meth:`many`, one
    source after another, so the random stream is the per-source one.
    """

    def __init__(self, params: CIRParams):
        self.params = params

    def __call__(self, points, counts, theta, dt, rng):
        return np.concatenate([self.many(pt, theta, dt, rng, int(c))
                               for pt, c in zip(points, counts)])

    def many(self, point, theta, dt, rng, size):
        return linear_bd_sample_many(int(point[0]), dt, theta, self.params,
                                     rng, size)[:, None]


class _GillespieBDSampler:
    """Event-driven sampler of the B&D dual (reference implementation)."""

    def __init__(self, params: CIRParams, max_events: int = 10_000_000):
        self.params = params
        self.max_events = max_events

    def __call__(self, points, counts, theta, dt, rng):
        starts = np.repeat(points[:, 0], counts)
        return np.array([gillespie_bd(int(m), dt, theta, self.params, rng,
                                      self.max_events) for m in starts],
                        dtype=np.int64)[:, None]


class CIRModel:
    """Bundles the CIR primitives behind the interface the filters consume."""

    name = "cir"
    signal_dim = 1

    def __init__(self, params: CIRParams):
        self.params = params
        self.family = CIRFamily(params)
        self.theta0 = params.beta

    # -- conjugate filtering interface ------------------------------------

    def prior_mixture(self) -> DualMixture:
        return DualMixture(self.family, ((0,),), np.array([1.0]), self.theta0)

    def shift_index(self, y: ObservationRecord, point: Index) -> Index:
        return (_m_of(point) + sum(y.values),)

    def shift_param(self, y: ObservationRecord, theta: float) -> float:
        return theta + len(y.values) * self.params.tau

    def log_marginal_point(self, point: Index, theta: float, y: ObservationRecord) -> float:
        return log_marginal(_m_of(point), theta, y, self.params)

    def pd_kernel(self, point: Index, theta: float, dt: float) -> dict:
        pmf = pure_death_pmf(_m_of(point), dt, theta, self.params)
        return {(n,): float(pr) for n, pr in enumerate(pmf) if pr > 0.0}

    def theta_flow(self, theta: float, dt: float) -> float:
        return pure_death_theta(dt, theta, self.params)

    def dual_sampler(self, kind: str):
        if kind == "pure_death":
            return _PureDeathSampler(self.params)
        if kind == "bd":
            return _BirthDeathSampler(self.params)
        if kind == "bd_gillespie":
            return _GillespieBDSampler(self.params)
        raise ValueError(f"unknown CIR dual kind {kind!r}")

    def theta_evolve_for(self, kind: str):
        if kind == "pure_death":
            return self.theta_flow
        return None  # B&D dual keeps theta fixed

    # -- signal-space interface (bootstrap baseline) -----------------------

    def sample_prior(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.gamma(self.params.alpha, 1.0 / self.params.beta, size)

    def signal_sample_many(self, x: np.ndarray, dt: float,
                           rng: np.random.Generator) -> np.ndarray:
        return cir_transition_sample_many(x, dt, self.params, rng)

    def emission_log_pmf(self, x: np.ndarray, y: ObservationRecord) -> np.ndarray:
        return emission_log_pmf(x, y, self.params)

    def sample_emission(self, x: float, batch: int, rng: np.random.Generator) -> tuple:
        return tuple(int(v) for v in rng.poisson(self.params.tau * x, batch))

    # -- smoothing closure --------------------------------------------------

    def combine_index(self, m: Index, n: Index) -> Index:
        return (_m_of(m) + _m_of(n),)

    def combine_param(self, theta_a: float, theta_b: float) -> float:
        return theta_a + theta_b - self.params.beta

    def log_combine_const(self, m: Index, n: Index,
                          theta_a: float, theta_b: float) -> float:
        """log C with h(x,m,ta) h(x,n,tb) = C h(x, m+n, ta+tb-beta)."""
        a = self.params.alpha
        mi, ni = _m_of(m), _m_of(n)
        return float(
            gammaln(a) - gammaln(a + mi) - gammaln(a + ni) + gammaln(a + mi + ni)
            - a * math.log(self.params.beta)
            + (a + mi) * math.log(theta_a) + (a + ni) * math.log(theta_b)
            - (a + mi + ni) * math.log(theta_a + theta_b - self.params.beta))

    def closure_spread(self, m: Index, n: Index, theta_a: float, theta_b: float,
                       grid: np.ndarray) -> float:
        """Max relative spread of h*h / h(combined) over a grid (should be ~0)."""
        logs = (log_density_ratio(grid, _m_of(m), theta_a, self.params)
                + log_density_ratio(grid, _m_of(n), theta_b, self.params)
                - log_density_ratio(grid, _m_of(self.combine_index(m, n)),
                                    self.combine_param(theta_a, theta_b), self.params))
        vals = np.exp(logs - np.max(logs))
        return float((vals.max() - vals.min()) / vals.max())
