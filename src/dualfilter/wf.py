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
  one at rate ``n_i (alpha_j + n_j) / 2``, conserving ``|n|``; it has no
  closed-form transitions and is simulated by a Gillespie loop or
  approximated by a discrete Wright-Fisher chain or by a binned draw from
  the diffusion transition itself.

The block-counting transition probabilities use the classical alternating
spectral series, which is numerically fragile for short horizons; terms
are paired and compensated-summed, and the computation falls back to a
(seed-deterministic) Monte-Carlo estimate when more than six significant
digits are lost.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DimensionError, DomainError, SimulationBudgetExceeded
from .mixtures import DualMixture, Index, ObservationRecord, kahan_sum

__all__ = [
    "WFParams",
    "WFFamily",
    "WFModel",
    "log_density_ratio",
    "density_ratio",
    "update_counts",
    "log_marginal",
    "kingman_rates",
    "moran_rates",
    "kingman_transitions",
    "moran_transitions",
    "gillespie_jump_chain",
    "block_count_probs",
    "typed_transition",
    "typed_death_kernel",
    "typed_death_sample_many",
    "moran_sample_many",
    "wf_chain_sample_many",
    "wf_diffusion_binned_sample_many",
    "wf_transition_sample",
    "wf_transition_sample_many",
    "entrance_truncation_level",
    "emission_log_pmf",
]

logger = logging.getLogger(__name__)

#: overall multiplier on the generations-per-unit-time of the WF-chain
#: approximation of the Moran dual.  Matching the chain's one-generation
#: conditional mean and covariance to the diffusion generator fixes the
#: mutation probability at theta/(2N) per offspring and one generation at
#: 1/N time units to leading order; with the finite-population refinement
#: applied in :func:`wf_chain_sample_many` no further adjustment is needed,
#: so this constant equals one.  It is locked by the calibration test
#: against the Gillespie-simulated Moran chain (TV gate at N = 20).
WF_CHAIN_GENERATIONS_PER_UNIT = 1.0

#: lost significant digits beyond which the block-count series is abandoned
SERIES_LOST_DIGITS = 6.0
#: paths used by the Monte-Carlo fallback for block-count transitions
BLOCK_MC_PATHS = 100_000


@dataclass(frozen=True)
class WFParams:
    """Mutation weights of the K-type Wright-Fisher diffusion."""

    alpha: tuple

    def __post_init__(self):
        alpha = tuple(float(a) for a in self.alpha)
        if len(alpha) < 2:
            raise ValueError("need at least two types")
        if any(a <= 0 for a in alpha):
            raise ValueError("all mutation weights must be strictly positive")
        object.__setattr__(self, "alpha", alpha)

    @property
    def k(self) -> int:
        return len(self.alpha)

    @property
    def theta(self) -> float:
        return float(sum(self.alpha))

    def alpha_array(self) -> np.ndarray:
        return np.asarray(self.alpha, dtype=float)


def _as_counts(n, k: int) -> tuple:
    n = tuple(int(v) for v in n)
    if len(n) != k:
        raise DimensionError(f"count vector has length {len(n)}, expected {k}")
    if any(v < 0 for v in n):
        raise ValueError("counts must be non-negative")
    return n


def log_density_ratio(x, n, p: WFParams):
    """Log of the Dirichlet(alpha+n) density over the Dirichlet(alpha) density.

    Returns ``-inf`` where some ``x_i`` is zero with ``n_i > 0``; the ratio
    is identically one at ``n = 0``.
    """
    n = _as_counts(n, p.k)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ntot = sum(n)
    const = (gammaln(p.theta + ntot) - gammaln(p.theta)
             + sum(gammaln(a) - gammaln(a + ni) for a, ni in zip(p.alpha, n)))
    narr = np.asarray(n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logx = np.where(x > 0, np.log(x), -np.inf)
        terms = np.where(narr > 0, narr * logx, 0.0)
    out = const + terms.sum(axis=1)
    return out if out.shape[0] > 1 else float(out[0])


def density_ratio(x, n, p: WFParams):
    """Linear-scale version of :func:`log_density_ratio` (bounded on the simplex)."""
    out = np.exp(log_density_ratio(x, n, p))
    return out if np.ndim(out) else float(out)


def update_counts(m, y: ObservationRecord, p: WFParams) -> tuple:
    """Conjugate Dirichlet-categorical update: add the batch count vector."""
    m = _as_counts(m, p.k)
    c = _as_counts(y.values, p.k)
    return tuple(mi + ci for mi, ci in zip(m, c))


def log_marginal(m, y: ObservationRecord, p: WFParams) -> float:
    """Log marginal likelihood of a categorical count batch under Dirichlet(alpha+m).

    Ordered-sample (sequence) probability: the multinomial coefficient is a
    constant across mixture components and is omitted, so it cancels in
    weight normalization.
    """
    m = _as_counts(m, p.k)
    c = _as_counts(y.values, p.k)
    ctot = sum(c)
    if ctot == 0:
        return 0.0
    am = [a + mi for a, mi in zip(p.alpha, m)]
    atot = p.theta + sum(m)
    return float(gammaln(atot) - gammaln(atot + ctot)
                 + sum(gammaln(ai + ci) - gammaln(ai) for ai, ci in zip(am, c)))


def kingman_rates(m, p: WFParams) -> dict:
    """Death rates of the typed Kingman dual: direction i -> m_i(theta+|m|-1)/2."""
    m = _as_counts(m, p.k)
    tot = sum(m)
    return {i: mi * (p.theta + tot - 1.0) / 2.0 for i, mi in enumerate(m)}


def moran_rates(n, p: WFParams) -> dict:
    """Moran dual rates: ordered pair (i, j) -> n_i (alpha_j + n_j) / 2."""
    n = _as_counts(n, p.k)
    out = {}
    for i, ni in enumerate(n):
        if ni == 0:
            continue
        for j in range(p.k):
            if j != i:
                out[(i, j)] = ni * (p.alpha[j] + n[j]) / 2.0
    return out


def kingman_transitions(p: WFParams):
    """Transition list (next state, rate) for the typed Kingman dual."""
    def transitions(state):
        rates = kingman_rates(state, p)
        out = []
        for i, r in rates.items():
            if r > 0.0:
                nxt = list(state)
                nxt[i] -= 1
                out.append((tuple(nxt), r))
        return out
    return transitions


def moran_transitions(p: WFParams):
    """Transition list (next state, rate) for the Moran dual."""
    def transitions(state):
        out = []
        for (i, j), r in moran_rates(state, p).items():
            nxt = list(state)
            nxt[i] -= 1
            nxt[j] += 1
            out.append((tuple(nxt), r))
        return out
    return transitions


def gillespie_jump_chain(transitions_fn, n0, t: float, rng: np.random.Generator,
                         max_events: int = 10_000_000) -> tuple:
    """Exact continuous-time simulation of a jump chain up to time ``t``.

    ``transitions_fn(state)`` must return the list of (next state, rate)
    pairs out of ``state``.  States with no positive rate are absorbing.

    Raises:
        SimulationBudgetExceeded: after ``max_events`` jumps.
    """
    state = tuple(int(v) for v in n0)
    clock = 0.0
    for _ in range(max_events):
        moves = transitions_fn(state)
        total = kahan_sum(r for _, r in moves)
        if total <= 0.0:
            return state
        clock += rng.exponential(1.0 / total)
        if clock > t:
            return state
        u = rng.random() * total
        acc = 0.0
        for nxt, r in moves:
            acc += r
            if u < acc:
                state = nxt
                break
        else:
            state = moves[-1][0]
    raise SimulationBudgetExceeded(f"more than {max_events} jump events")


# ---------------------------------------------------------------------------
# Block-counting chain of the typed death dual
# ---------------------------------------------------------------------------

_BLOCK_CACHE: dict = {}


def _block_series_row(m: int, n: int, t: float, theta: float) -> tuple[float, float]:
    """One alternating-series probability d_{m,n}(t) and its lost digits.

    Terms are paired (adjacent k) and compensated-summed in descending
    magnitude; the returned "lost digits" is log10 of the cancellation
    between the largest term and the final sum.
    """
    ks = np.arange(max(n, 1), m + 1, dtype=float)
    logmag = (-ks * (ks + theta - 1.0) * t / 2.0
              + np.log(2.0 * ks + theta - 1.0)
              + gammaln(n + theta + ks - 1.0) - gammaln(n + theta)
              - gammaln(n + 1.0) - gammaln(ks - n + 1.0)
              + gammaln(m + 1.0) - gammaln(m - ks + 1.0)
              - gammaln(m + theta + ks) + gammaln(m + theta))
    signs = np.where((ks - n) % 2 == 0, 1.0, -1.0)
    if n == 0:
        # k = 0 term of the spectral expansion equals one exactly
        logmag = np.concatenate(([0.0], logmag))
        signs = np.concatenate(([1.0], signs))
    top = float(np.max(logmag))
    scaled = signs * np.exp(logmag - top)
    # pair adjacent alternating terms before accumulating
    if len(scaled) % 2 == 1:
        pairs = np.concatenate((scaled[:-1:2] + scaled[1::2], scaled[-1:]))
    else:
        pairs = scaled[::2] + scaled[1::2]
    order = np.argsort(-np.abs(pairs), kind="stable")
    total = kahan_sum(pairs[order])
    if total == 0.0:
        lost = math.inf if top > -700.0 else 0.0
    else:
        lost = -math.log10(abs(total))
    return float(math.exp(top) * total), lost


def _block_count_series(m_tot: int, t: float, theta: float) -> np.ndarray | None:
    """Full transition vector via the spectral series, or None on breakdown."""
    probs = np.empty(m_tot + 1)
    for n in range(m_tot + 1):
        value, lost = _block_series_row(m_tot, n, t, theta)
        if lost >= SERIES_LOST_DIGITS or value < -1e-9 or value > 1.0 + 1e-6:
            return None
        probs[n] = max(value, 0.0)
    total = kahan_sum(probs)
    if not 1.0 - 1e-6 <= total <= 1.0 + 1e-6:
        return None
    return probs / total


def _block_count_mc(m_tot: int, t: float, theta: float,
                    n_paths: int = BLOCK_MC_PATHS) -> np.ndarray:
    """Monte-Carlo fallback for block-count transitions.

    The chain is pure death with sojourn time Exp(k(theta+k-1)/2) at level
    k, so a path is a cumulative sum of independent exponentials; the state
    at ``t`` is read off by counting completed sojourns.  The RNG seed is
    derived from the arguments, keeping results run-deterministic.
    """
    entropy = [0x7D4A11,
               m_tot,
               int.from_bytes(np.float64(t).tobytes(), "little"),
               int.from_bytes(np.float64(theta).tobytes(), "little")]
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    levels = np.arange(m_tot, 0, -1, dtype=float)
    scales = 2.0 / (levels * (theta + levels - 1.0))
    counts = np.zeros(m_tot + 1, dtype=np.int64)
    chunk = max(1, min(n_paths, 20_000_000 // max(m_tot, 1)))
    remaining = n_paths
    while remaining > 0:
        c = min(chunk, remaining)
        sojourn = rng.exponential(scales, size=(c, m_tot))
        completed = (np.cumsum(sojourn, axis=1) <= t).sum(axis=1)
        counts += np.bincount(m_tot - completed, minlength=m_tot + 1)
        remaining -= c
    return counts / n_paths


def block_count_probs(m_tot: int, t: float, p: WFParams) -> np.ndarray:
    """Transition probabilities of the block-counting death chain.

    Starting from ``m_tot`` lineages, returns the vector of probabilities
    of holding ``n`` lineages after time ``t`` for ``n = 0..m_tot``; the
    chain steps down at rate ``k (theta + k - 1) / 2``.  Computed by the
    alternating spectral series; falls back to Monte-Carlo when the series
    cancels away six or more significant digits.
    """
    if m_tot < 0:
        raise ValueError("m_tot must be non-negative")
    if m_tot == 0:
        return np.ones(1)
    if t <= 0:
        raise ValueError("time must be positive")
    key = (m_tot, float(t), p.alpha)
    cached = _BLOCK_CACHE.get(key)
    if cached is not None:
        return cached
    probs = _block_count_series(m_tot, t, p.theta)
    if probs is None:
        logger.debug("block-count series unstable at m=%d t=%g; using Monte-Carlo",
                     m_tot, t)
        probs = _block_count_mc(m_tot, t, p.theta)
    probs.setflags(write=False)
    _BLOCK_CACHE[key] = probs
    return probs


def _log_choose(n, k):
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def typed_transition(m, n, t: float, p: WFParams) -> float:
    """Closed-form transition probability of the typed Kingman dual.

    Factorizes as the block-count probability of ``|m| -> |n|`` times the
    multivariate-hypergeometric probability that the ``|n|`` surviving
    lineages carry type profile ``n``; zero unless ``n <= m`` componentwise.
    """
    m = _as_counts(m, p.k)
    n = _as_counts(n, p.k)
    if any(ni > mi for mi, ni in zip(m, n)):
        return 0.0
    mtot, ntot = sum(m), sum(n)
    d = block_count_probs(mtot, t, p)
    loghyp = (sum(_log_choose(mi, ni) for mi, ni in zip(m, n))
              - _log_choose(mtot, ntot))
    return float(d[ntot] * math.exp(loghyp))


def _bounded_compositions(total: int, bounds) -> list:
    """All count vectors below ``bounds`` componentwise with the given total."""
    out = []

    def rec(prefix, remaining, idx):
        if idx == len(bounds) - 1:
            if remaining <= bounds[idx]:
                out.append(prefix + (remaining,))
            return
        for v in range(min(remaining, bounds[idx]) + 1):
            rec(prefix + (v,), remaining - v, idx + 1)

    rec((), total, 0)
    return out


def typed_death_kernel(m, t: float, p: WFParams, tail_eps: float = 0.0) -> dict:
    """Transition map of the typed Kingman dual from source ``m``.

    With ``tail_eps = 0`` every ``n <= m`` componentwise is enumerated and
    the kernel mass is exactly one up to floating point.  A positive
    ``tail_eps`` skips surviving-count levels whose block probability falls
    below it, dropping at most ``(|m|+1)*tail_eps`` mass; this keeps the
    enumeration tractable when ``|m|`` is large but the horizon long.
    """
    m = _as_counts(m, p.k)
    mtot = sum(m)
    d = block_count_probs(mtot, t, p)
    if tail_eps > 0.0:
        levels = [v for v in range(mtot + 1) if d[v] > tail_eps]
        pts = np.array([c for v in levels for c in _bounded_compositions(v, m)],
                       dtype=np.int64).reshape(-1, p.k)
    else:
        grids = np.meshgrid(*[np.arange(mi + 1) for mi in m], indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
    ntot = pts.sum(axis=1)
    loghyp = np.zeros(len(pts))
    for i, mi in enumerate(m):
        loghyp += _log_choose(mi, pts[:, i])
    loghyp -= _log_choose(mtot, ntot)
    probs = d[ntot] * np.exp(loghyp)
    return {tuple(int(v) for v in pt): float(pr)
            for pt, pr in zip(pts, probs) if pr > 0.0}


def _start_rows(n0, p: WFParams, size: int | None) -> np.ndarray:
    """Stacked ``(N, K)`` start rows: one row per path, or ``n0`` repeated."""
    rows = np.array(n0, dtype=np.int64, ndmin=2)
    if rows.ndim != 2 or rows.shape[1] != p.k:
        raise DimensionError(f"start rows must have {p.k} columns")
    if np.any(rows < 0):
        raise ValueError("counts must be non-negative")
    if size is not None and rows.shape[0] == 1:
        rows = np.repeat(rows, size, axis=0)
    return rows


def typed_death_sample_many(m, t: float, p: WFParams, rng: np.random.Generator,
                            size: int | None = None) -> np.ndarray:
    """Exact draws of the typed Kingman dual at time ``t`` (vectorized).

    ``m`` is one source (repeated ``size`` times) or one row per path.  Two
    stages: the surviving block count from its closed-form law, one draw
    per distinct ``|m|``, then a multivariate hypergeometric type profile,
    drawn coordinate by coordinate as a hypergeometric of each type against
    the types after it.
    """
    m = _start_rows(m, p, size)
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

def moran_sample_many(n0, t: float, p: WFParams, rng: np.random.Generator,
                      size: int | None = None, max_rounds: int = 2_000_000) -> np.ndarray:
    """Gillespie simulation of the Moran dual, vectorized across paths.

    Paths start at ``n0``, one source repeated ``size`` times or one row
    per path; each round draws one holding time and one replacement event
    for every still-active path.  ``|n|`` is conserved.
    """
    alpha = p.alpha_array()
    k = p.k
    state = _start_rows(n0, p, size)
    t_rem = np.full(len(state), float(t))
    active = np.arange(len(state))
    offdiag = ~np.eye(k, dtype=bool)
    for _ in range(max_rounds):
        if active.size == 0:
            return state
        s = state[active].astype(float)
        rates = s[:, :, None] * (alpha[None, None, :] + s[:, None, :]) / 2.0
        rates *= offdiag[None, :, :]
        flat = rates.reshape(len(active), k * k)
        total = flat.sum(axis=1)
        movable = total > 0.0
        if not np.any(movable):
            return state
        active = active[movable]
        flat = flat[movable]
        total = total[movable]
        dt = rng.exponential(1.0 / total)
        alive = dt <= t_rem[active]
        t_rem[active] -= dt
        active = active[alive]
        if active.size == 0:
            return state
        flat = flat[alive]
        total = total[alive]
        u = rng.random(active.size) * total
        idx = (np.cumsum(flat, axis=1) < u[:, None]).sum(axis=1)
        idx = np.minimum(idx, k * k - 1)
        i, j = idx // k, idx % k
        state[active, i] -= 1
        state[active, j] += 1
    raise SimulationBudgetExceeded(f"more than {max_rounds} Moran rounds")


def wf_chain_sample_many(n0, t: float, p: WFParams, rng: np.random.Generator,
                         size: int | None = None) -> np.ndarray:
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

    The calibration test locks this choice against the Gillespie-simulated
    Moran chain.  ``n0`` is one source repeated ``size`` times or one row
    per path; ``u`` and ``G`` depend on ``N``, so the generations run once
    for all the rows of each distinct total, in increasing order of ``N``.
    """
    state = _start_rows(n0, p, size)
    totals = state.sum(axis=1)
    for n_tot in np.unique(totals[totals > 0]):
        u = 1.0 - math.sqrt(n_tot / (n_tot + p.theta))
        gens_per_unit = p.theta / (2.0 * u)
        gens = max(1, int(round(WF_CHAIN_GENERATIONS_PER_UNIT * gens_per_unit * t)))
        base = u * p.alpha_array() / p.theta
        sel = totals == n_tot
        rows = state[sel]
        for _ in range(gens):
            rows = rng.multinomial(n_tot, (1.0 - u) * rows / n_tot + base)
        state[sel] = rows
    return state


def entrance_truncation_level(t: float) -> int:
    """Starting level used to approximate the coalescent entrance boundary."""
    return int(min(500, max(50, math.ceil(10.0 / t))))


def _entrance_descent_time(level: int, theta: float) -> float:
    """Expected time for the block chain to fall from infinity to ``level``.

    The sojourn at level k is Exp(k(theta+k-1)/2), so the expected descent
    time is ``sum_{k>level} 2/(k(k+theta-1))``, which telescopes to a
    digamma difference.  Its standard deviation is O(level^{-3/2}), so
    starting the chain at ``level`` but at this (deterministic) age makes
    the entrance-boundary truncation error second order.
    """
    from scipy.special import polygamma, psi
    c = theta - 1.0
    if abs(c) < 1e-9:
        return float(2.0 * polygamma(1, level + 1))
    return float(2.0 / c * (psi(level + 1 + c) - psi(level + 1)))


_SENSITIVITY_CHECKED: set = set()


def _entrance_block_pmf(t: float, p: WFParams) -> np.ndarray:
    """Block-count law from the entrance boundary, truncated and age-shifted.

    The chain is started at the truncation level at its expected entrance
    age, i.e. the law returned is ``block_count_probs(level, t - eps)``
    with ``eps`` from :func:`_entrance_descent_time`.  On first use for a
    given (t, alpha) the start-level sensitivity is checked by doubling the
    truncation level; a shift above 1e-3 in any probability is logged as a
    warning.
    """
    def shifted(level: int) -> np.ndarray:
        t_eff = max(t - _entrance_descent_time(level, p.theta), 1e-12)
        return block_count_probs(level, t_eff, p)

    level = entrance_truncation_level(t)
    pmf = shifted(level)
    key = (float(t), p.alpha)
    if key not in _SENSITIVITY_CHECKED:
        _SENSITIVITY_CHECKED.add(key)
        pmf2 = shifted(2 * level)
        shift = np.max(np.abs(pmf - pmf2[:len(pmf)]))
        if shift > 1e-3:
            logger.warning(
                "entrance truncation level %d at t=%g is sensitive "
                "(doubling shifts a probability by %.2e)", level, t, shift)
    return pmf


def wf_transition_sample_many(x, t: float, p: WFParams,
                              rng: np.random.Generator,
                              size: int | None = None) -> np.ndarray:
    """Draws from the WF diffusion transition via its mixture series.

    For each path: draw the surviving lineage count from the block-count
    law started at the entrance truncation level, thin it into type counts
    ``l ~ Multinomial(m_tot, x)``, and draw ``x' ~ Dirichlet(alpha + l)``.
    ``x`` may be a single simplex point or one row per path.
    """
    if t <= 0:
        raise ValueError("time step must be positive")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if size is None:
        size = x.shape[0]
    if x.shape[0] == 1:
        x = np.broadcast_to(x, (size, p.k))
    if x.shape != (size, p.k):
        raise DimensionError(f"expected x of shape ({size}, {p.k})")
    pmf = _entrance_block_pmf(t, p)
    totals = rng.choice(len(pmf), p=pmf, size=size)
    l = np.zeros((size, p.k), dtype=np.int64)
    for v in np.unique(totals):
        sel = totals == v
        if v > 0:
            l[sel] = rng.multinomial(int(v), x[sel])
    g = rng.standard_gamma(p.alpha_array()[None, :] + l)
    return g / g.sum(axis=1, keepdims=True)


def wf_transition_sample(x, t: float, p: WFParams,
                         rng: np.random.Generator) -> np.ndarray:
    """One draw of the WF diffusion transition from simplex point ``x``."""
    return wf_transition_sample_many(np.asarray(x, dtype=float), t, p, rng, 1)[0]


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
                                    rng: np.random.Generator,
                                    size: int | None = None) -> np.ndarray:
    """Binned WF-diffusion approximation of the Moran dual.

    Rescales each start row (``n0`` repeated ``size`` times, or one row per
    path) to a simplex point, draws the diffusion transition, and bins back
    to counts with a largest-remainder correction so each row's total
    ``|n0|`` is always preserved.
    """
    state = _start_rows(n0, p, size)
    totals = state.sum(axis=1)
    moving = totals > 0
    if np.any(moving):
        xs = wf_transition_sample_many(state[moving] / totals[moving, None], t, p, rng)
        state[moving] = _bin_largest_remainder(xs, totals[moving])
    return state


def emission_log_pmf(x, y: ObservationRecord, p: WFParams) -> np.ndarray:
    """Log-likelihood of a categorical count batch at simplex point(s) ``x``.

    Ordered-sample probability ``sum_j c_j log x_j`` (the multinomial
    coefficient is constant across particles and components and is omitted).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    c = np.asarray(_as_counts(y.values, p.k), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logx = np.where(x > 0, np.log(x), -np.inf)
        terms = np.where(c[None, :] > 0, c[None, :] * logx, 0.0)
    out = terms.sum(axis=1)
    return out if out.shape[0] > 1 else np.array([float(out[0])])


def _dirichlet_logpdf(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Dirichlet(a) log-density on rows of x, with boundary handling."""
    const = gammaln(a.sum()) - gammaln(a).sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        logx = np.where(x > 0, np.log(x), -np.inf)
        terms = np.where(np.abs(a - 1.0)[None, :] > 0, (a - 1.0)[None, :] * logx, 0.0)
    return const + terms.sum(axis=1)


class WFFamily:
    """Dirichlet component kernels g(x, n) = Dirichlet(alpha + n)."""

    tag = "wf-dirichlet"
    #: tolerance on simplex membership
    SIMPLEX_TOL = 1e-10

    def __init__(self, params: WFParams):
        self.params = params

    def component_mean(self, point: Index, theta=None) -> np.ndarray:
        a = self.params.alpha_array() + np.asarray(point, dtype=float)
        return a / a.sum()

    def component_var(self, point: Index, theta=None) -> np.ndarray:
        a = self.params.alpha_array() + np.asarray(point, dtype=float)
        mean = a / a.sum()
        return mean * (1.0 - mean) / (a.sum() + 1.0)

    def component_logpdf(self, x, point: Index, theta=None) -> np.ndarray:
        a = self.params.alpha_array() + np.asarray(point, dtype=float)
        return _dirichlet_logpdf(np.atleast_2d(np.asarray(x, dtype=float)), a)

    def marginal_component_logpdf(self, grid, point: Index, theta=None,
                                  coord: int = 0) -> np.ndarray:
        from scipy.stats import beta as beta_dist
        a = self.params.alpha_array() + np.asarray(point, dtype=float)
        return beta_dist.logpdf(np.asarray(grid, dtype=float),
                                a[coord], a.sum() - a[coord])

    def marginal_component_cdf(self, x: float, point: Index, theta=None,
                               coord: int = 0) -> float:
        from scipy.special import betainc
        a = self.params.alpha_array() + np.asarray(point, dtype=float)
        return float(betainc(a[coord], a.sum() - a[coord], min(max(x, 0.0), 1.0)))

    def sample_component(self, point: Index, theta, rng: np.random.Generator,
                         size: int) -> np.ndarray:
        a = self.params.alpha_array() + np.asarray(point, dtype=float)
        return rng.dirichlet(a, size)

    def check_domain(self, grid: np.ndarray) -> None:
        grid = np.atleast_2d(np.asarray(grid, dtype=float))
        if grid.shape[1] != self.params.k:
            raise DomainError(f"simplex points must have length {self.params.k}")
        if np.any(grid < 0):
            raise DomainError("simplex coordinates must be non-negative")
        if np.any(np.abs(grid.sum(axis=1) - 1.0) > self.SIMPLEX_TOL):
            raise DomainError("simplex coordinates must sum to one")


class _DualSampler:
    """One of the WF dual samplers, drawn for a whole filter step at once.

    Called as ``sampler(points, counts, theta, dt, rng)`` with ``(M, K)``
    source points and their copy counts, it returns ``counts.sum()`` rows,
    the copies of each source together, in source order, from one call of
    the batched ``draw(rows, dt, params, rng)``.  ``theta`` is unused: the
    WF duals have no deterministic component.
    """

    def __init__(self, draw, params: WFParams):
        self.draw = draw
        self.params = params

    def __call__(self, points, counts, theta, dt, rng):
        return self.draw(np.repeat(points, counts, axis=0), dt, self.params, rng)


#: dual kind -> batched sampler: exact typed death, or the Moran dual by
#: Gillespie simulation, WF chain or binned diffusion
_DUAL_DRAWS = {
    "pure_death": typed_death_sample_many,
    "moran": moran_sample_many,
    "wf_chain": wf_chain_sample_many,
    "wf_diffusion": wf_diffusion_binned_sample_many,
}


class WFModel:
    """Bundles the WF primitives behind the interface the filters consume.

    ``kernel_tail_eps`` is forwarded to :func:`typed_death_kernel`; leave
    it at zero for exact kernels and set a tiny positive value to truncate
    negligible surviving-count levels in long-horizon pruned runs.
    """

    name = "wf"

    def __init__(self, params: WFParams, kernel_tail_eps: float = 0.0):
        self.params = params
        self.family = WFFamily(params)
        self.theta0 = None
        self.kernel_tail_eps = kernel_tail_eps

    @property
    def signal_dim(self) -> int:
        return self.params.k

    # -- conjugate filtering interface ------------------------------------

    def prior_mixture(self) -> DualMixture:
        zero = (0,) * self.params.k
        return DualMixture(self.family, (zero,), np.array([1.0]), None)

    def shift_index(self, y: ObservationRecord, point: Index) -> Index:
        return update_counts(point, y, self.params)

    def shift_param(self, y: ObservationRecord, theta) -> None:
        return None

    def log_marginal_point(self, point: Index, theta, y: ObservationRecord) -> float:
        return log_marginal(point, y, self.params)

    def pd_kernel(self, point: Index, theta, dt: float) -> dict:
        return typed_death_kernel(point, dt, self.params, self.kernel_tail_eps)

    def theta_flow(self, theta, dt: float) -> None:
        return None

    def dual_sampler(self, kind: str):
        if kind not in _DUAL_DRAWS:
            raise ValueError(f"unknown WF dual kind {kind!r}")
        return _DualSampler(_DUAL_DRAWS[kind], self.params)

    def theta_evolve_for(self, kind: str):
        return None

    # -- signal-space interface (bootstrap baseline) -----------------------

    def sample_prior(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.dirichlet(self.params.alpha_array(), size)

    def signal_sample_many(self, x: np.ndarray, dt: float,
                           rng: np.random.Generator) -> np.ndarray:
        return wf_transition_sample_many(x, dt, self.params, rng)

    def emission_log_pmf(self, x: np.ndarray, y: ObservationRecord) -> np.ndarray:
        return emission_log_pmf(x, y, self.params)

    def sample_emission(self, x: np.ndarray, batch: int,
                        rng: np.random.Generator) -> tuple:
        return tuple(int(v) for v in rng.multinomial(batch, x))

    # -- smoothing closure --------------------------------------------------

    def combine_index(self, m: Index, n: Index) -> Index:
        return tuple(mi + ni for mi, ni in zip(m, n))

    def combine_param(self, theta_a, theta_b) -> None:
        return None

    def log_combine_const(self, m: Index, n: Index, theta_a=None, theta_b=None) -> float:
        """log C with h(x,m) h(x,n) = C h(x, m+n)."""
        theta = self.params.theta
        mt, nt = sum(m), sum(n)
        out = (gammaln(theta + mt) + gammaln(theta + nt)
               - gammaln(theta) - gammaln(theta + mt + nt))
        for a, mi, ni in zip(self.params.alpha, m, n):
            out += gammaln(a) + gammaln(a + mi + ni) - gammaln(a + mi) - gammaln(a + ni)
        return float(out)

    def closure_spread(self, m: Index, n: Index, theta_a, theta_b,
                       grid: np.ndarray) -> float:
        """Max relative spread of h*h / h(combined) over simplex grid rows."""
        logs = (log_density_ratio(grid, m, self.params)
                + log_density_ratio(grid, n, self.params)
                - log_density_ratio(grid, self.combine_index(m, n), self.params))
        logs = np.atleast_1d(logs)
        vals = np.exp(logs - np.max(logs))
        return float((vals.max() - vals.min()) / vals.max())
