"""Wright-Fisher model: conjugate math, Kingman/Moran duals and samplers.

The hidden signal is a K-type Wright-Fisher diffusion on the simplex with
mutation weights ``alpha`` (total ``theta = sum(alpha)``), reversible with
respect to ``Dirichlet(alpha)``.  Emissions are batches of categorical
draws (``P(Y=j | x) = x_j``), conjugate to the Dirichlet family, so every
filtering law is a mixture of ``Dirichlet(alpha + n)`` components indexed
by a count vector ``n``; the dual process has no deterministic component.

Two dual processes drive propagation:

* the typed Kingman death chain, which removes a type-``i`` lineage at rate
  ``m_i (theta + |m| - 1) / 2`` and factorizes into the block-counting
  chain of the total count times a multivariate hypergeometric type
  profile, giving closed-form (finite) transitions;
* a Moran chain that replaces a type-``i`` individual with a type-``j``
  one at rate ``n_i (alpha_j + n_j) / 2``, conserving ``|n|``.  It is
  drawn exactly from its genealogy: the lines of descent of its
  individuals follow the typed Kingman dual, and the individuals without
  a surviving ancestor fill in as a Polya urn (Griffiths, 1980; Tavare,
  1984).  A discrete Wright-Fisher chain and a binned draw from the
  diffusion transition itself approximate it.

The block-counting chain is pure death with a lower bidiagonal generator,
so its transition law is computed exactly and deterministically as a row
of the generator's matrix exponential, built in numpy with its diagonal
and sub-diagonal in closed form and cached by ``(m_tot, t, p)``.

``WFModel`` defines each primitive the filters read once, in its class
body: the conjugate update, the exact block-count law of the typed-death
kernel (``pd_kernel``), the signal draw and the emission likelihood.  The
module keeps the block-count law, the dual draws and the signal transition
draw ``wf_transition_sample_many``, which the ``wf_diffusion`` draw shares.

Every ``*_sample_many`` draw takes one start row per path, an ``(N, K)``
array (a single ``(K,)`` row is one path), and returns one draw per row.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaln, gammaln, polygamma, psi, xlog1py, xlogy

from .errors import ConfigError, DimensionError, DomainError
from .mixtures import (DualMixture, DualSampler, ObservationRecord, check_time_step,
                       dual_rows, is_integer, is_real)

__all__ = [
    "WFParams",
    "WFModel",
    "block_count_probs",
    "typed_death_sample_many",
    "moran_sample_many",
    "wf_chain_sample_many",
    "wf_diffusion_binned_sample_many",
    "wf_transition_sample_many",
]

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class WFParams:
    """Mutation weights of the K-type Wright-Fisher diffusion."""

    alpha: tuple

    def __post_init__(self):
        alpha = tuple(self.alpha)
        if len(alpha) < 2:
            raise ConfigError("need at least two types")
        if not all(is_real(a) and a > 0 for a in alpha):
            raise ConfigError(f"all mutation weights must be finite and strictly "
                              f"positive, not {alpha!r}")
        object.__setattr__(self, "alpha", tuple(float(a) for a in alpha))

    @property
    def k(self) -> int:
        return len(self.alpha)

    @property
    def theta(self) -> float:
        return float(sum(self.alpha))

    def alpha_array(self) -> np.ndarray:
        return np.asarray(self.alpha, dtype=float)


# ---------------------------------------------------------------------------
# Block-counting chain of the typed death dual
# ---------------------------------------------------------------------------

#: coefficients ``b_k = (26-k)! / (k! (13-k)!)`` of the degree-13 Pade
#: approximant to exp, and the 1-norm up to which it is accurate to double
#: precision (Higham, 2005)
_PADE13 = tuple(
    float(math.factorial(26 - k) // (math.factorial(k) * math.factorial(13 - k)))
    for k in range(14))
_THETA13 = 5.371920351148152


def _exp_divided_difference(x: np.ndarray) -> np.ndarray:
    """``(e^b - e^a) / (b - a)`` for each consecutive pair ``a, b`` of ``x``.

    Close exponents use ``e^((a+b)/2) sinh(h) / h`` with ``h = (b-a)/2``
    (Higham, 2008, (10.42)), which does not cancel.
    """
    a, b = x[:-1], x[1:]
    h = (b - a) / 2.0
    with np.errstate(all="ignore"):
        far = (np.exp(b) - np.exp(a)) / (b - a)
        near = np.exp(a + h) * np.where(h == 0.0, 1.0, np.sinh(h) / h)
    return np.where(np.abs(h) < 1.0, near, far)


def _death_chain_expm(rates: np.ndarray, t: float) -> np.ndarray:
    """``expm(Q t)`` for the pure-death generator with death rates ``rates``.

    ``Q`` is lower bidiagonal, ``-rates`` on the diagonal and ``rates[1:]``
    below it.  Scaling and squaring with the degree-13 Pade approximant
    (Higham, 2005), plus the triangular refinement of Al-Mohy & Higham
    (2009, Sec. 2): after the Pade step and after each squaring, the
    diagonal and sub-diagonal of ``expm(Q t / 2^j)`` are overwritten with
    their closed forms, so the squarings do not amplify their rounding.
    """
    n = len(rates)
    a = (np.diag(-rates) + np.diag(rates[1:], -1)) * t
    norm = np.abs(a).sum(axis=0).max()
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a /= 2.0 ** s
    b, ident = _PADE13, np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    x = np.tril(np.linalg.solve(v - u, v + u))
    for j in range(s, -1, -1):
        if j < s:
            x = x @ x
        scaled = rates * (t / 2.0 ** j)
        x.flat[::n + 1] = np.exp(-scaled)
        x.flat[n::n + 1] = scaled[1:] * _exp_divided_difference(-scaled)
    return x


@functools.lru_cache(maxsize=1024, typed=True)
def block_count_probs(m_tot: int, t: float, p: WFParams) -> np.ndarray:
    """Transition probabilities of the block-counting death chain.

    Starting from ``m_tot`` lineages, returns the vector of probabilities
    of holding ``n`` lineages after time ``t`` for ``n = 0..m_tot``; the
    chain steps down at rate ``k (theta + k - 1) / 2``.  The law is row
    ``m_tot`` of the exponential of the chain's lower bidiagonal generator
    ``Q t``, computed in numpy by Pade scaling and squaring with exact
    diagonal and sub-diagonal (:func:`_death_chain_expm`), clipped at zero
    and renormalized.  The result is read-only and cached by
    ``(m_tot, t, p)`` and their types; bad arguments raise and are never
    cached.
    """
    if not (is_integer(m_tot) and m_tot >= 0):
        raise ConfigError(f"m_tot must be a non-negative integer, not {m_tot!r}")
    check_time_step(t)
    k = np.arange(m_tot + 1, dtype=float)
    row = np.clip(_death_chain_expm(k * (p.theta + k - 1.0) / 2.0, t)[-1], 0.0, None)
    row /= row.sum()
    row.setflags(write=False)
    return row


def _start_rows(n0, p: WFParams) -> np.ndarray:
    """A copy of the ``(N, K)`` start rows, one per path; a ``(K,)`` row is one path."""
    return dual_rows(np.array(n0, ndmin=2), p.k)


def _dirichlet_rows(concentrations, rng: np.random.Generator) -> np.ndarray:
    """One Dirichlet draw per row of ``concentrations``, from one gamma draw."""
    g = rng.standard_gamma(concentrations)
    return g / g.sum(axis=1, keepdims=True)


def typed_death_sample_many(m, t: float, p: WFParams,
                            rng: np.random.Generator) -> np.ndarray:
    """Exact draws of the typed Kingman dual at time ``t``, one per row of ``m``.

    Two stages: the surviving block count from its closed-form law, one
    draw per distinct ``|m|``, then a multivariate hypergeometric type
    profile, drawn coordinate by coordinate as a hypergeometric of each
    type against the types after it.
    """
    m = _start_rows(m, p)
    mtot = m.sum(axis=1)
    need = np.empty_like(mtot)
    for v in np.unique(mtot):
        sel = mtot == v
        d = block_count_probs(int(v), t, p)
        need[sel] = rng.choice(len(d), p=d, size=int(sel.sum()))
    out = np.empty_like(m)
    rest = mtot.copy()
    for i in range(p.k - 1):
        rest -= m[:, i]
        out[:, i] = rng.hypergeometric(m[:, i], rest, need)
        need -= out[:, i]
    out[:, -1] = need
    return out


# ---------------------------------------------------------------------------
# Moran dual and its approximations
# ---------------------------------------------------------------------------

def moran_sample_many(n0, t: float, p: WFParams,
                      rng: np.random.Generator) -> np.ndarray:
    """Exact draws of the Moran dual at time ``t`` from its genealogy.

    Traced back over ``t``, the lines of descent of the ``N = |n0|``
    individuals follow the typed Kingman dual, so the surviving ancestors
    and their types ``c`` are one :func:`typed_death_sample_many` draw.
    The other ``N - |c|`` individuals descend from mutations and fill in
    as a Polya urn: ``c + Multinomial(N - |c|, Dirichlet(alpha + c))``.
    One draw per row of ``n0``; each row's ``|n|`` is conserved.
    """
    rows = _start_rows(n0, p)
    c = typed_death_sample_many(rows, t, p, rng)
    refill = rows.sum(axis=1) - c.sum(axis=1)
    return c + rng.multinomial(refill, _dirichlet_rows(p.alpha_array() + c, rng))


def wf_chain_sample_many(n0, t: float, p: WFParams,
                         rng: np.random.Generator) -> np.ndarray:
    """Discrete Wright-Fisher chain approximation of the Moran dual.

    Runs non-overlapping generations of multinomial resampling with
    per-offspring type probabilities ``(1-u) n_i/N + u alpha_i/theta``.
    To leading order ``u = theta/(2N)`` and one generation advances time by
    ``1/N``, which matches the chain's one-generation drift and covariance
    to the diffusion generator.  At finite N the exact parameterization is

    * ``u = 1 - sqrt(N/(N+theta))``, which pins the chain's stationary
      coordinate variances to the Moran dual's exact Dirichlet-multinomial
      stationary law (and reduces to theta/(2N) as N grows);
    * ``G = max(1, round(theta/(2u) * t))`` generations, which restores the
      exact per-unit-time drift ``(alpha_i - theta x_i)/2``.

    The calibration test locks this choice against the exact Moran dual,
    :func:`moran_sample_many`.  One draw per row of ``n0``; ``u`` and ``G``
    depend on ``N``, so the generations run once for all the rows of each
    distinct total, in increasing order of ``N``.
    """
    check_time_step(t)
    state = _start_rows(n0, p)
    totals = state.sum(axis=1)
    for n_tot in np.unique(totals[totals > 0]):
        u = 1.0 - math.sqrt(n_tot / (n_tot + p.theta))
        gens_per_unit = p.theta / (2.0 * u)
        gens = max(1, int(round(gens_per_unit * t)))
        base = u * p.alpha_array() / p.theta
        sel = totals == n_tot
        rows = state[sel]
        for _ in range(gens):
            rows = rng.multinomial(n_tot, (1.0 - u) * rows / n_tot + base)
        state[sel] = rows
    return state


def _entrance_descent_time(level: int, theta: float) -> float:
    """Expected time for the block chain to fall from infinity to ``level``.

    The sojourn at level k is Exp(k(theta+k-1)/2), so the expected descent
    time is ``sum_{k>level} 2/(k(k+theta-1))``, which telescopes to a
    digamma difference.  Its standard deviation is O(level^{-3/2}), so
    starting the chain at ``level`` but at this (deterministic) age makes
    the entrance-boundary truncation error second order.
    """
    c = theta - 1.0
    if abs(c) < 1e-9:
        return float(2.0 * polygamma(1, level + 1))
    return float(2.0 / c * (psi(level + 1 + c) - psi(level + 1)))


@functools.lru_cache(maxsize=256)
def _entrance_block_pmf(t: float, p: WFParams) -> np.ndarray:
    """Block-count law from the entrance boundary, truncated and age-shifted.

    The chain is started at the truncation level ``min(500, max(50,
    ceil(10/t)))`` at its expected entrance age, i.e. the law returned is
    ``block_count_probs(level, t - eps)`` with ``eps`` from
    :func:`_entrance_descent_time`.  The law is cached by ``(t, p)``; when
    it is built, the start-level sensitivity is checked by doubling the
    level, and a shift above 1e-3 in any probability is logged as a warning.
    """
    def shifted(level: int) -> np.ndarray:
        t_eff = max(t - _entrance_descent_time(level, p.theta), 1e-12)
        return block_count_probs(level, t_eff, p)

    level = int(min(500, max(50, math.ceil(10.0 / t))))
    pmf = shifted(level)
    shift = np.max(np.abs(pmf - shifted(2 * level)[:len(pmf)]))
    if shift > 1e-3:
        logger.warning(
            "entrance truncation level %d at t=%g is sensitive "
            "(doubling shifts a probability by %.2e)", level, t, shift)
    return pmf


def wf_transition_sample_many(x, t: float, p: WFParams,
                              rng: np.random.Generator) -> np.ndarray:
    """Draws from the WF diffusion transition via its mixture series.

    For each row of ``x`` (a single simplex point is one row): draw the
    surviving lineage count from the block-count law started at the
    entrance truncation level, thin it into type counts
    ``l ~ Multinomial(m_tot, x)``, and draw ``x' ~ Dirichlet(alpha + l)``.
    """
    check_time_step(t)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1:] != (p.k,):
        raise DimensionError(f"simplex rows must have {p.k} columns")
    pmf = _entrance_block_pmf(t, p)
    totals = rng.choice(len(pmf), p=pmf, size=len(x))
    l = np.zeros(x.shape, dtype=np.int64)
    for v in np.unique(totals):
        sel = totals == v
        if v > 0:
            l[sel] = rng.multinomial(int(v), x[sel])
    return _dirichlet_rows(p.alpha_array()[None, :] + l, rng)


def _bin_largest_remainder(xs: np.ndarray, n_tot: np.ndarray) -> np.ndarray:
    """Round rows of n_tot * xs to integers preserving each row's total."""
    targets = n_tot[:, None] * xs
    base = np.floor(targets).astype(np.int64)
    rem = targets - base
    deficit = n_tot - base.sum(axis=1)
    order = np.argsort(-rem, axis=1, kind="stable")
    ranks = np.argsort(order, axis=1, kind="stable")
    return base + (ranks < deficit[:, None])


def wf_diffusion_binned_sample_many(n0, t: float, p: WFParams,
                                    rng: np.random.Generator) -> np.ndarray:
    """Binned WF-diffusion approximation of the Moran dual.

    Rescales each row of ``n0`` to a simplex point, draws the diffusion
    transition, and bins back to counts with a largest-remainder correction
    so each row's total is always preserved.
    """
    state = _start_rows(n0, p)
    totals = state.sum(axis=1)
    moving = totals > 0
    if np.any(moving):
        xs = wf_transition_sample_many(state[moving] / totals[moving, None], t, p, rng)
        state[moving] = _bin_largest_remainder(xs, totals[moving])
    return state


def _per_path(draw):
    """``draw(rows, dt, params, rng)`` in the sampler protocol, on each source
    repeated by its copy count; ``theta`` (``None`` on WF) comes back unchanged."""
    def protocol_draw(points, counts, theta, dt, p, rng):
        return draw(np.repeat(points, counts, axis=0), dt, p, rng), theta
    return protocol_draw


#: dual kind -> draw in the sampler protocol: exact typed death, the exact
#: Moran dual, or its WF-chain and binned-diffusion approximations
_DUAL_DRAWS = {
    "pure_death": _per_path(typed_death_sample_many),
    "moran": _per_path(moran_sample_many),
    "wf_chain": _per_path(wf_chain_sample_many),
    "wf_diffusion": _per_path(wf_diffusion_binned_sample_many),
}


class WFModel:
    """Bundles the WF primitives behind the interface the filters consume.

    Its mixtures hold Dirichlet(alpha + n) components; the component
    methods take the ``(M, K)`` support array of a mixture and return one
    row per support point.
    """

    name = "wf"
    #: tolerance on simplex membership
    SIMPLEX_TOL = 1e-10

    def __init__(self, params: WFParams):
        self.params = params

    @property
    def signal_dim(self) -> int:
        return self.params.k

    # -- conjugate filtering interface ------------------------------------

    def prior_mixture(self) -> DualMixture:
        return DualMixture(self, [[0] * self.params.k], [1.0])

    def shift(self, y: ObservationRecord, points: np.ndarray, theta) -> tuple:
        return points + dual_rows([y.values], self.params.k)[0], None

    def log_marginal_point(self, points: np.ndarray, theta,
                           y: ObservationRecord) -> np.ndarray:
        """Log marginal likelihood of a categorical count batch under each
        Dirichlet(alpha + m), one per ``(M, K)`` row ``m``.

        Ordered-sample (sequence) probability: the multinomial coefficient
        is a constant across mixture components and is omitted, so it
        cancels in weight normalization.
        """
        p = self.params
        m = dual_rows(points, p.k)
        c = dual_rows([y.values], p.k)[0]
        ctot = int(c.sum())
        if ctot == 0:
            return np.zeros(len(m))
        am = p.alpha_array() + m
        atot = p.theta + m.sum(axis=1)
        return (gammaln(atot) - gammaln(atot + ctot)
                + (gammaln(am + c) - gammaln(am)).sum(axis=1))

    def pd_kernel(self, totals, theta, dt: float) -> tuple:
        """``(laws, None)``: the :func:`block_count_probs` rows of the
        ``totals``, concatenated."""
        return np.concatenate([block_count_probs(total, dt, self.params)
                               for total in np.asarray(totals).tolist()]), None

    def dual_sampler(self, kind: str):
        if kind not in _DUAL_DRAWS:
            raise ConfigError(f"unknown WF dual kind {kind!r}")
        return DualSampler(_DUAL_DRAWS[kind], self.params)

    # -- mixture components -----------------------------------------------

    def _concentrations(self, points) -> np.ndarray:
        return self.params.alpha_array() + dual_rows(points, self.params.k)

    def component_moments(self, points, theta=None) -> tuple[np.ndarray, np.ndarray]:
        a = self._concentrations(points)
        total = a.sum(axis=1, keepdims=True)
        mean = a / total
        return mean, mean * (1.0 - mean) / (total + 1.0)

    def component_logpdf(self, x, points, theta=None) -> np.ndarray:
        """Dirichlet log-densities ``(M, G)`` at simplex rows ``x``, else DomainError."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.params.k:
            raise DomainError(f"simplex points must have length {self.params.k}")
        if np.any(x < 0):
            raise DomainError("simplex coordinates must be non-negative")
        if np.any(np.abs(x.sum(axis=1) - 1.0) > self.SIMPLEX_TOL):
            raise DomainError("simplex coordinates must sum to one")
        a = self._concentrations(points)
        const = gammaln(a.sum(axis=1)) - gammaln(a).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            logx = np.where(x > 0, np.log(x), -np.inf)
            terms = np.where((a != 1.0)[:, None, :],
                             (a - 1.0)[:, None, :] * logx[None, :, :], 0.0)
        return const[:, None] + terms.sum(axis=2)

    def _beta_params(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Beta parameters of each component's first-coordinate marginal."""
        a = self._concentrations(points)
        return a[:, 0], a.sum(axis=1) - a[:, 0]

    def marginal_component_logpdf(self, grid, points,
                                  theta=None) -> tuple[np.ndarray, np.ndarray]:
        """Beta log-densities of the first coordinate on ``grid``, once per
        distinct marginal.

        Returns ``(logpdf, index)``: the ``(P, G)`` log-densities of the
        distinct float ``(a, b)`` pairs in ascending order and each of the
        ``M`` rows' index into them, so ``logpdf[index]`` equals the per-row
        evaluation bit for bit.  The pairs are found as the distinct complex
        numbers ``a + 1j*b``, which sort and compare like the rows ``(a, b)``.
        """
        a, b = self._beta_params(points)
        pairs, index = np.unique(a + 1j * b, return_inverse=True)
        a, b = pairs.real[:, None], pairs.imag[:, None]
        x = np.asarray(grid, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = xlog1py(b - 1.0, -x) + xlogy(a - 1.0, x) - betaln(a, b)
        return np.where((x >= 0.0) & (x <= 1.0), out, -np.inf), index

    def marginal_component_cdf(self, x: float, points, theta=None) -> np.ndarray:
        return betainc(*self._beta_params(points), min(max(x, 0.0), 1.0))

    def sample_component(self, points, theta, rng: np.random.Generator) -> np.ndarray:
        return _dirichlet_rows(self._concentrations(points), rng)

    # -- signal-space interface (bootstrap baseline) -----------------------

    def sample_prior(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.dirichlet(self.params.alpha_array(), size)

    def signal_sample_many(self, x: np.ndarray, dt: float,
                           rng: np.random.Generator) -> np.ndarray:
        return wf_transition_sample_many(x, dt, self.params, rng)

    def emission_log_pmf(self, x: np.ndarray, y: ObservationRecord) -> np.ndarray:
        """Log-likelihood of a categorical count batch at each simplex row of ``x``.

        Ordered-sample probability ``sum_j c_j log x_j`` (the multinomial
        coefficient is constant across particles and components and is
        omitted).
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        c = dual_rows([y.values], self.params.k)[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            logx = np.where(x > 0, np.log(x), -np.inf)
            terms = np.where(c[None, :] > 0, c[None, :] * logx, 0.0)
        return terms.sum(axis=1)

    def sample_emission(self, x: np.ndarray, batch: int,
                        rng: np.random.Generator) -> tuple:
        return tuple(int(v) for v in rng.multinomial(batch, x))

    # -- smoothing closure --------------------------------------------------
    # Indices are ``(..., K)`` arrays (or tuples); ``combine`` broadcasts
    # over their leading axes.  The combined index is always ``m + n``.

    def combine(self, m, n, theta_a=None, theta_b=None):
        """(log C, None) with h(x,m) h(x,n) = C h(x, m+n)."""
        theta, alpha = self.params.theta, self.params.alpha_array()
        m, n = np.asarray(m, dtype=float), np.asarray(n, dtype=float)
        mt, nt = m.sum(axis=-1), n.sum(axis=-1)
        return (gammaln(theta + mt) + gammaln(theta + nt)
                - gammaln(theta) - gammaln(theta + mt + nt)
                + (gammaln(alpha) + gammaln(alpha + m + n)
                   - gammaln(alpha + m) - gammaln(alpha + n)).sum(axis=-1)), None
