"""Independent reference implementations used to cross-check the package.

Everything here is deliberately implemented from first principles (plain
Python loops, adaptive quadrature, grid integration, scipy distributions)
and never calls the closed forms or fast samplers under test.  Two kinds
of helper are exceptions: the test-only conveniences
``cir_log_density_ratio``, ``cir_density_ratio``, ``update_conjugate``,
``wf_log_density_ratio``, ``wf_density_ratio``, ``update_counts`` and
``closure_spread``, built on the package's count checks and smoothing
closure, ``mixture_dict``, a mixture's weights keyed by row,
``linear_bd_draw_reference``, a frozen copy of the ``bd``
draw that fixes its random stream, ``death_kernel``, the box of every
source's arrivals under the model's ``pd_kernel`` law, whose weighted sum
``mixtures.propagate`` must match, ``wf_pd_kernel_rows``, a frozen copy of
the vectorized WF kernel whose merged rows ``mixtures.propagate`` must give
exactly (and its weights to a relative tolerance), and
``beta_marginal_logpdf_rows``, the per-row Beta marginal formula that the
package's deduplicated evaluation must match bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy import integrate
from scipy.linalg import expm
from scipy.special import betaln, eval_jacobi, gammaln, roots_jacobi, xlog1py, xlogy
from scipy.stats import chisquare, ncx2

from dualfilter.mixtures import dual_rows
from dualfilter.wf import block_count_probs


def _counts(n, k: int) -> tuple:
    """One count vector of length ``k``, checked by ``mixtures.dual_rows``."""
    return tuple(dual_rows([n], k)[0].tolist())


# ---------------------------------------------------------------------------
# Mixture and kernel views
# ---------------------------------------------------------------------------

def death_kernel(model, points, theta, dt: float) -> tuple:
    """Rows ``(arrivals, probs, source, theta_t)`` of the typed pure-death
    dual from the ``(M, K)`` sources: each source's box of ``n <= m`` in
    ``np.meshgrid`` "ij" order, less the rows of zero level probability.

    From ``m`` with ``T = |m|``, ``n`` has probability ``d_T(|n|) * prod_i
    C(m_i, n_i) / C(T, |n|)``: the law ``d_T`` of the surviving total,
    which ``model.pd_kernel`` gives with ``theta_t`` for the ascending
    distinct totals, times a uniform thinning (one for ``K = 1``).  Raises
    ``DimensionError`` for sources that are not ``model.signal_dim`` wide.
    """
    points = dual_rows(points, model.signal_dim)
    k = points.shape[1]
    mtot = points.sum(axis=1)
    totals, level = np.unique(mtot, return_inverse=True)
    laws, theta_t = model.pd_kernel(totals, theta, dt)
    size = np.prod(points + 1, axis=1)
    source = np.repeat(np.arange(len(points)), size)
    index = np.arange(len(source)) - np.repeat(np.cumsum(size) - size, size)
    cols = [None] * k
    for j in range(k - 1, -1, -1):
        index, cols[j] = np.divmod(index, (points[:, j] + 1)[source])
    ntot = sum(cols[1:], cols[0])
    d = laws[(np.cumsum(totals + 1) - (totals + 1))[level[source]] + ntot]
    keep = d > 0.0
    if not keep.all():
        cols = [c[keep] for c in cols]
        source, ntot, d = source[keep], ntot[keep], d[keep]
    logfact = gammaln(np.arange(mtot.max() + 1) + 1.0)
    terms = [logfact[points[:, j]][source] - logfact[cols[j]]
             - logfact[points[:, j][source] - cols[j]] for j in range(k)]
    loghyp = np.stack(terms, axis=1).sum(axis=1)
    loghyp -= logfact[mtot][source] - logfact[ntot] - logfact[mtot[source] - ntot]
    return np.stack(cols, axis=1), d * np.exp(loghyp), source, theta_t


def kernel_dict(kernel) -> dict:
    """``{arrival tuple: probability}`` of one source's kernel rows,
    ``death_kernel``'s ``(arrivals, probs, source, theta_t)``, without
    their zero entries."""
    pts, probs = kernel[:2]
    return {tuple(pt): float(pr) for pt, pr in zip(np.asarray(pts).tolist(), probs)
            if pr > 0.0}


def mixture_dict(mix) -> dict:
    """``{row tuple: weight}`` of a mixture's support."""
    return dict(zip(map(tuple, mix.points.tolist()), mix.weights.tolist()))


def from_weights_unique(points, weights) -> tuple[np.ndarray, np.ndarray]:
    """Rows and weights of a merged mixture by ``np.unique(axis=0)``.

    Repeated rows are merged by ``np.bincount`` over the unique-row index,
    the total is normalized with ``math.fsum`` and zero weights are
    dropped, as ``DualMixture.from_weights`` did before its lexsort merge.
    """
    points = np.asarray(points, dtype=np.int64)
    uniq, inverse = np.unique(points, axis=0, return_inverse=True)
    merged = np.bincount(inverse.ravel(), weights=np.asarray(weights, dtype=float),
                         minlength=len(uniq))
    merged /= math.fsum(merged)
    keep = merged > 0.0
    return uniq[keep], merged[keep]


# ---------------------------------------------------------------------------
# Distance helpers
# ---------------------------------------------------------------------------

def tv_int_samples(a, b) -> float:
    """Total variation between the empirical laws of two integer samples."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n = int(max(a.max(), b.max())) + 1
    pa = np.bincount(a, minlength=n) / len(a)
    pb = np.bincount(b, minlength=n) / len(b)
    return 0.5 * float(np.abs(pa - pb).sum())


def tv_tuple_samples(a, b) -> float:
    """Total variation between empirical laws of two samples of tuples/rows."""
    from collections import Counter
    ca = Counter(map(tuple, np.asarray(a).tolist()))
    cb = Counter(map(tuple, np.asarray(b).tolist()))
    keys = set(ca) | set(cb)
    return 0.5 * sum(abs(ca[k] / len(a) - cb[k] / len(b)) for k in keys)


def tv_sample_vs_pmf(samples, pmf) -> float:
    """Total variation between an integer sample and an exact pmf vector."""
    samples = np.asarray(samples, dtype=np.int64)
    n = max(int(samples.max()) + 1, len(pmf))
    emp = np.bincount(samples, minlength=n) / len(samples)
    ref = np.zeros(n)
    ref[:len(pmf)] = pmf
    return 0.5 * float(np.abs(emp - ref).sum()) + 0.5 * max(0.0, 1.0 - ref.sum())


def chi2_pvalue_vs_pmf(samples, pmf, min_expected: float = 5.0) -> float:
    """Goodness-of-fit p-value of an integer sample against a pmf.

    Bins with expected count below ``min_expected`` are merged into their
    lower neighbour so the chi-square approximation is valid.
    """
    samples = np.asarray(samples, dtype=np.int64)
    n = max(int(samples.max()) + 1, len(pmf))
    obs = np.bincount(samples, minlength=n).astype(float)
    exp = np.zeros(n)
    exp[:len(pmf)] = np.asarray(pmf) * len(samples)
    # sweep once, merging small expected bins to the left
    obs_bins, exp_bins = [obs[0]], [exp[0]]
    for o, e in zip(obs[1:], exp[1:]):
        if exp_bins[-1] < min_expected:
            obs_bins[-1] += o
            exp_bins[-1] += e
        else:
            obs_bins.append(o)
            exp_bins.append(e)
    if exp_bins[-1] < min_expected and len(exp_bins) > 1:
        exp_bins[-2] += exp_bins.pop()
        obs_bins[-2] += obs_bins.pop()
    exp_arr = np.asarray(exp_bins)
    exp_arr *= np.sum(obs_bins) / exp_arr.sum()
    return float(chisquare(np.asarray(obs_bins), exp_arr).pvalue)


# ---------------------------------------------------------------------------
# CIR oracles
# ---------------------------------------------------------------------------

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


def linear_bd_kernel_row(m0: int, t: float, lam: float, beta_imm: float,
                         mu: float, top: int) -> np.ndarray:
    """Transition pmf over ``0..top`` of the linear B&D chain from ``m0``.

    Row ``m0`` of ``expm(Q t)`` for the generator truncated to
    ``{0, ..., top}``: up rate ``lam*k + beta_imm`` (none out of ``top``)
    and down rate ``mu*k`` from state ``k``.  Paths that reach ``top``
    cannot climb past it, so ``top`` should sit far above every state the
    chain plausibly visits.
    """
    k = np.arange(top + 1, dtype=float)
    q = np.diag(lam * k[:-1] + beta_imm, 1) + np.diag(mu * k[1:], -1)
    q -= np.diag(q.sum(axis=1))
    return expm(q * t)[m0]


def cir_log_density_ratio(x, m: int, theta: float, p):
    """Log of the Gamma(delta/2+m, theta) density over the reversible density.

    Multiplying the reversible Gamma(delta/2, beta) density by
    ``exp(cir_log_density_ratio)`` yields the conjugate-family member
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


def cir_density_ratio(x, m: int, theta: float, p):
    """Linear-scale version of :func:`cir_log_density_ratio`.

    Raises:
        OverflowError: when the value exceeds the double range; callers must
            switch to the log version (always needed for large ``m``,
            typically m > 100).
    """
    logv = cir_log_density_ratio(x, m, theta, p)
    if np.any(np.asarray(logv) > 709.0):
        raise OverflowError("density ratio exceeds float range; use cir_log_density_ratio")
    out = np.exp(logv)
    return out if np.ndim(out) else float(out)


def update_conjugate(m: int, theta: float, y, p) -> tuple[int, float]:
    """Conjugate Gamma-Poisson update for a batch of k Poisson counts.

    Returns ``(m + sum(y), theta + k*tau)``.
    """
    counts = y.values
    return m + sum(counts), theta + len(counts) * p.tau


#: relative tolerance of the critical birth/death rate tie in the B&D draw
_RATE_TIE_RTOL = 1e-12


def _survival_pair_reference(lam: float, mu: float, t) -> tuple[np.ndarray, np.ndarray]:
    """(g, h) of the two-stage linear-B&D transition over elapsed time t.

    ``h = (lam-mu) / (lam*exp((lam-mu)*t) - mu)`` and ``g = h*exp((lam-mu)*t)``,
    with the analytic limit ``h = 1/(1+lam*t)`` at the critical tie
    ``lam == mu``.  Branches keep every exponential argument non-positive so
    large ``t`` cannot overflow.
    """
    t = np.asarray(t, dtype=float)
    d = lam - mu
    if abs(d) < _RATE_TIE_RTOL * max(lam, mu, 1e-300):
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


def _negbin_reference(rng: np.random.Generator, n: np.ndarray, h: np.ndarray) -> np.ndarray:
    """NegativeBinomial(n, h) failure counts with the NBin(0, .) = 0 convention."""
    out = np.zeros(n.shape, dtype=np.int64)
    mask = (n > 0) & (h < 1.0)
    if np.any(mask):
        out[mask] = rng.negative_binomial(n[mask], np.asarray(h)[mask] if np.ndim(h) else h)
    return out


def linear_bd_draw_reference(m0, t: float, theta: float, p,
                             rng: np.random.Generator, size: int) -> np.ndarray:
    """The two-stage B&D draw of ``linear_bd_sample_many`` as first written,
    with array arguments in every ``Generator`` call.

    It fixes the random stream of the ``bd`` dual: the package's draw must
    return the same values from the same generator state.
    """
    diff = max(theta - p.beta, 0.0)
    lam = 2.0 * p.sigma ** 2 * diff
    beta_imm = p.sigma ** 2 * p.delta * diff
    mu = 2.0 * p.sigma ** 2 * theta
    g, h = (float(v) for v in _survival_pair_reference(lam, mu, t))
    m0 = np.broadcast_to(np.asarray(m0, dtype=np.int64), (size,))

    surv = rng.binomial(m0, g)
    native = surv + _negbin_reference(rng, surv, np.full(size, h))

    if beta_imm <= 0.0:
        return native

    n_imm = rng.poisson(beta_imm * t, size)
    total = int(n_imm.sum())
    if total == 0:
        return native
    path = np.repeat(np.arange(size), n_imm)
    residual = t - rng.uniform(0.0, t, total)
    gi, hi = _survival_pair_reference(lam, mu, residual)
    alive = rng.random(total) < gi
    fam = np.zeros(total, dtype=np.int64)
    if np.any(alive):
        ones = np.ones(int(alive.sum()), dtype=np.int64)
        fam[alive] = 1 + _negbin_reference(rng, ones, np.asarray(hi)[alive])
    immigrants = np.bincount(path, weights=fam, minlength=size).astype(np.int64)
    return native + immigrants


def gamma_pdf(x, shape, rate):
    x = np.asarray(x, dtype=float)
    return np.exp(shape * np.log(rate) - gammaln(shape)
                  + (shape - 1) * np.log(x) - rate * x)


def quad_cir_marginal(m: int, theta: float, counts, p) -> float:
    """Adaptive quadrature of ``int f_x(y) Ga(x; delta/2+m, theta) dx``."""
    a = p.alpha + m
    counts = list(counts)

    def integrand(x):
        pois = math.exp(sum(c * math.log(p.tau * x) - p.tau * x - gammaln(c + 1)
                            for c in counts)) if x > 0 else (
            0.0 if sum(counts) > 0 else math.exp(-p.tau * x * len(counts)))
        dens = math.exp(a * math.log(theta) - gammaln(a)
                        + (a - 1) * math.log(x) - theta * x) if x > 0 else 0.0
        return pois * dens

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=400, epsabs=1e-13,
                            epsrel=1e-12)
    return val


def rk_pure_death_theta(t: float, theta0: float, p) -> float:
    """Runge-Kutta integration of the dual-parameter ODE."""
    from scipy.integrate import solve_ivp

    def rhs(_, th):
        return -2.0 * p.sigma ** 2 * th * (th - p.gamma / p.sigma ** 2)

    sol = solve_ivp(rhs, (0.0, t), [theta0], rtol=1e-12, atol=1e-14,
                    dense_output=True)
    return float(sol.y[0, -1])


def quad_survival(t: float, theta0: float, p, theta_fn) -> float:
    """Survival probability from numerical quadrature of the hazard."""
    val, _ = integrate.quad(lambda u: 2.0 * p.sigma ** 2 * theta_fn(u, theta0, p),
                            0.0, t, limit=400, epsabs=1e-13, epsrel=1e-12)
    return math.exp(-val)


def thinning_death_sample(m: int, t: float, theta0: float, p, theta_fn,
                          rng: np.random.Generator) -> int:
    """Inhomogeneous pure-death simulation by Poisson thinning.

    Per-capita death rate ``2 sigma^2 Theta_u`` is bounded by its value at
    the monotone extreme of the flow, so candidate events are proposed at
    the bounding rate and accepted with probability ``rate(u)/bound``.
    """
    beta = p.gamma / p.sigma ** 2
    bound = 2.0 * p.sigma ** 2 * max(theta0, beta)
    state = m
    u = 0.0
    while state > 0:
        u += rng.exponential(1.0 / (bound * state))
        if u > t:
            break
        rate = 2.0 * p.sigma ** 2 * theta_fn(u, theta0, p)
        if rng.random() < rate / bound:
            state -= 1
    return state


def cir_transition_matrix(grid: np.ndarray, t: float, p) -> np.ndarray:
    """Exact CIR transition densities T[i, j] = p_t(grid[j] | grid[i]).

    Uses the scaled noncentral chi-square form of the transition with
    ``delta`` degrees of freedom, independent of the package's sampler.
    """
    e = math.exp(-2.0 * p.gamma * t)
    c = p.beta / (1.0 - e)
    out = np.empty((len(grid), len(grid)))
    for i, x in enumerate(grid):
        out[i] = 2.0 * c * ncx2.pdf(2.0 * c * grid, p.delta, 2.0 * c * x * e)
    return out


@functools.lru_cache(maxsize=4)
def _cir_grid_transition(n_grid: int, hi: float, dt: float, p) -> np.ndarray:
    """:func:`cir_transition_matrix` on the forward-backward grid, built once
    per key (a 2400-point build takes seconds) and returned read-only."""
    trans = cir_transition_matrix(np.linspace(1e-9, hi, n_grid), dt, p)
    trans.setflags(write=False)
    return trans


def cir_grid_forward_backward(records, p, n_grid: int = 2400, hi: float | None = None):
    """Grid-based forward-backward pass for the CIR HMM.

    Steps by the gaps between the record times, with one cached transition
    matrix per distinct gap; gaps that agree to 12 significant digits, such
    as the float differences of ``0.1 * i``, share one.  Returns per-step
    dicts with filtering/predictive/smoothing means and the log marginal
    likelihood, all computed by trapezoid integration on a fixed grid with
    the exact (noncentral chi-square) transition density.
    """
    from dualfilter.cir import CIRModel

    model = CIRModel(p)
    if hi is None:
        hi = 8.0 * p.alpha / p.beta
    grid = np.linspace(1e-9, hi, n_grid)
    w = np.gradient(grid)
    prior = gamma_pdf(grid, p.alpha, p.beta)
    gaps = [float(f"{g:.12g}") for g in np.diff([r.time for r in records])]
    trans = [_cir_grid_transition(n_grid, hi, g, p) for g in gaps]

    filt, pred, loglik = [], [], []
    cur_pred = prior
    likes = []
    for i, y in enumerate(records):
        like = np.exp(model.emission_log_pmf(grid, y))
        likes.append(like)
        pred.append(cur_pred)
        joint = cur_pred * like
        z = float(np.sum(joint * w))
        loglik.append(math.log(z))
        f = joint / z
        filt.append(f)
        if i + 1 < len(records):
            cur_pred = (f * w) @ trans[i]

    n = len(records)
    back = [np.ones_like(grid)]
    for i in range(n - 2, -1, -1):
        nxt = likes[i + 1] * back[0]
        back.insert(0, trans[i] @ (nxt * w))
    smooth = []
    for f, b in zip(filt, back):
        s = f * b
        smooth.append(s / np.sum(s * w))

    def mean(d):
        return float(np.sum(grid * d * w))

    def sd(d):
        m = mean(d)
        return math.sqrt(max(np.sum(grid ** 2 * d * w) - m * m, 0.0))

    return {
        "grid": grid,
        "weights": w,
        "filt": filt,
        "pred": pred,
        "smooth": smooth,
        "loglik": loglik,
        "filt_mean": [mean(d) for d in filt],
        "filt_sd": [sd(d) for d in filt],
        "smooth_mean": [mean(d) for d in smooth],
    }


def cir_two_step_enumeration(y0: int, y1: int, dt: float, p):
    """Brute-force two-step CIR filter by path enumeration.

    Update with ``y0`` (single count), propagate the pure-death dual over
    ``dt`` with survival from numerically integrated hazard, update with
    ``y1`` using quadrature marginals.  Returns (weights dict keyed by the
    final index, final theta, total log evidence).
    """
    beta = p.gamma / p.sigma ** 2
    m0 = y0
    theta0 = beta + p.tau
    theta1 = rk_pure_death_theta(dt, theta0, p)
    s = quad_survival(dt, theta0, p, lambda u, th, pp: rk_pure_death_theta(u, th, pp))
    ev0 = quad_cir_marginal(0, beta, [y0], p)
    raw = {}
    ev1 = 0.0
    for n in range(m0 + 1):
        trans = math.comb(m0, n) * s ** n * (1.0 - s) ** (m0 - n)
        mu = quad_cir_marginal(n, theta1, [y1], p)
        raw[(n + y1,)] = trans * mu
        ev1 += trans * mu
    weights = {k: v / ev1 for k, v in raw.items() if v > 0}
    return weights, theta1 + p.tau, math.log(ev0) + math.log(ev1)


# ---------------------------------------------------------------------------
# WF oracles
# ---------------------------------------------------------------------------

def wf_log_density_ratio(x, n, p):
    """Log of the Dirichlet(alpha+n) density over the Dirichlet(alpha) density.

    Returns ``-inf`` where some ``x_i`` is zero with ``n_i > 0``; the ratio
    is identically one at ``n = 0``.
    """
    n = _counts(n, p.k)
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


def beta_marginal_logpdf_rows(grid, points, alpha) -> np.ndarray:
    """Beta log-densities ``(M, G)`` of the first coordinate, one row per
    dual point: Beta(alpha_1 + n_1, sum(alpha + n) - alpha_1 - n_1) on
    ``grid``, ``-inf`` off ``[0, 1]``."""
    conc = np.asarray(alpha, dtype=float) + np.asarray(points, dtype=float)
    a = conc[:, :1]
    b = conc.sum(axis=1)[:, None] - a
    x = np.asarray(grid, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = xlog1py(b - 1.0, -x) + xlogy(a - 1.0, x) - betaln(a, b)
    return np.where((x >= 0.0) & (x <= 1.0), out, -np.inf)


def wf_pd_kernel_rows(points, dt: float, p) -> tuple:
    """``(arrivals, probs, source)`` of the typed Kingman kernel from the
    ``(M, K)`` sources, frozen as first vectorized: each source's box
    decoded by ``%`` and ``//`` on ``(L, K)`` arrays, the type profile's log
    terms summed by ``.sum(axis=1)``.  Merged by ``from_weights_unique``,
    its rows of nonzero probability are those of ``mixtures.propagate`` of a
    ``WFModel`` mixture."""
    points = np.array(points, dtype=np.int64, ndmin=2)
    mtot = points.sum(axis=1)
    span = np.cumprod(points[:, ::-1] + 1, axis=1)[:, ::-1]
    source = np.repeat(np.arange(len(points)), span[:, 0])
    first = np.cumsum(span[:, 0]) - span[:, 0]
    arrivals = (np.arange(len(source)) - first[source])[:, None] % span[source]
    arrivals //= (span // (points + 1))[source]
    ntot = arrivals.sum(axis=1)
    totals, level = np.unique(mtot, return_inverse=True)
    laws = np.concatenate([block_count_probs(v, dt, p) for v in totals.tolist()])
    d = laws[(np.cumsum(totals + 1) - (totals + 1))[level[source]] + ntot]
    logfact = gammaln(np.arange(mtot.max() + 1) + 1.0)
    loghyp = ((logfact[points][source] - logfact[arrivals]
               - logfact[points[source] - arrivals]).sum(axis=1)
              - (logfact[mtot][source] - logfact[ntot] - logfact[mtot[source] - ntot]))
    return arrivals, d * np.exp(loghyp), source


def wf_density_ratio(x, n, p):
    """Linear-scale version of :func:`wf_log_density_ratio` (bounded on the simplex)."""
    out = np.exp(wf_log_density_ratio(x, n, p))
    return out if np.ndim(out) else float(out)


def update_counts(m, y, p) -> tuple:
    """Conjugate Dirichlet-categorical update: add the batch count vector."""
    m = _counts(m, p.k)
    c = _counts(y.values, p.k)
    return tuple(mi + ci for mi, ci in zip(m, c))


def quad_wf_marginal(m, counts, p) -> float:
    """Quadrature of the Dirichlet-categorical marginal (K = 2 or 3).

    Integrates ``prod_j x_j^{c_j}`` against the Dirichlet(alpha+m) density
    over the simplex (ordered-sample probability, no multinomial factor).
    """
    a = [ai + mi for ai, mi in zip(p.alpha, m)]
    c = list(counts)
    lognorm = gammaln(sum(a)) - sum(gammaln(ai) for ai in a)
    if p.k == 2:
        def f(x1):
            x2 = 1.0 - x1
            return math.exp(lognorm + (a[0] + c[0] - 1) * math.log(x1)
                            + (a[1] + c[1] - 1) * math.log(x2))
        val, _ = integrate.quad(f, 0.0, 1.0, limit=400, epsabs=1e-13, epsrel=1e-12)
        return val
    if p.k == 3:
        def f(x2, x1):
            x3 = 1.0 - x1 - x2
            if x3 <= 0:
                return 0.0
            return math.exp(lognorm + (a[0] + c[0] - 1) * math.log(x1)
                            + (a[1] + c[1] - 1) * math.log(x2)
                            + (a[2] + c[2] - 1) * math.log(x3))
        val, _ = integrate.dblquad(f, 0.0, 1.0, 0.0, lambda x1: 1.0 - x1,
                                   epsabs=1e-10, epsrel=1e-10)
        return val
    raise NotImplementedError("quadrature oracle only for K = 2 or 3")


def kingman_rates(m, p) -> dict:
    """Death rates of the typed Kingman dual: direction i -> m_i(theta+|m|-1)/2."""
    m = tuple(int(v) for v in m)
    tot = sum(m)
    return {i: mi * (p.theta + tot - 1.0) / 2.0 for i, mi in enumerate(m)}


def moran_rates(n, p) -> dict:
    """Moran dual rates: ordered pair (i, j) -> n_i (alpha_j + n_j) / 2."""
    n = tuple(int(v) for v in n)
    out = {}
    for i, ni in enumerate(n):
        if ni == 0:
            continue
        for j in range(p.k):
            if j != i:
                out[(i, j)] = ni * (p.alpha[j] + n[j]) / 2.0
    return out


def kingman_transitions(p):
    """Transition list (next state, rate) for the typed Kingman dual."""
    def transitions(state):
        out = []
        for i, r in kingman_rates(state, p).items():
            if r > 0.0:
                nxt = list(state)
                nxt[i] -= 1
                out.append((tuple(nxt), r))
        return out
    return transitions


def moran_transitions(p):
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
    from dualfilter import SimulationBudgetExceeded
    state = tuple(int(v) for v in n0)
    clock = 0.0
    for _ in range(max_events):
        moves = transitions_fn(state)
        total = math.fsum(r for _, r in moves)
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


def typed_kingman_path(m0, t: float, p, rng: np.random.Generator) -> tuple:
    """Plain-Python typed Kingman death path (oracle for small states)."""
    state = list(m0)
    theta = p.theta
    clock = 0.0
    while True:
        tot = sum(state)
        if tot == 0:
            return tuple(state)
        total_rate = tot * (theta + tot - 1.0) / 2.0
        clock += rng.exponential(1.0 / total_rate)
        if clock > t:
            return tuple(state)
        u = rng.random() * tot
        acc = 0.0
        for i, si in enumerate(state):
            acc += si
            if u < acc:
                state[i] -= 1
                break
    return tuple(state)


def moran_path(n0, t: float, p, rng: np.random.Generator) -> tuple:
    """Plain-Python Moran path (oracle for small states)."""
    state = list(n0)
    clock = 0.0
    while True:
        moves = []
        for i, ni in enumerate(state):
            if ni == 0:
                continue
            for j in range(p.k):
                if j != i:
                    moves.append((i, j, ni * (p.alpha[j] + state[j]) / 2.0))
        total = sum(r for _, _, r in moves)
        if total <= 0.0:
            return tuple(state)
        clock += rng.exponential(1.0 / total)
        if clock > t:
            return tuple(state)
        u = rng.random() * total
        acc = 0.0
        for i, j, r in moves:
            acc += r
            if u < acc:
                state[i] -= 1
                state[j] += 1
                break
    return tuple(state)


def block_count_path(m: int, t: float, theta: float, rng: np.random.Generator) -> int:
    """Plain-Python block-counting death path."""
    k = m
    clock = 0.0
    while k > 0:
        clock += rng.exponential(2.0 / (k * (theta + k - 1.0)))
        if clock > t:
            break
        k -= 1
    return k


def block_count_series_mp(m: int, t: float, theta: float, dps: int = 80) -> np.ndarray:
    """Block-counting transition law from the alternating spectral series.

    The series of Griffiths (1980) and Tavare (1984), summed in ``mpmath``
    at ``dps`` decimal digits so that its cancellation costs no accuracy
    at double precision:
    ``d_{m,n}(t) = [n = 0] + sum_{k >= max(n,1)} (-1)^(k-n) e^(-k(k+theta-1)t/2)
    (2k+theta-1) (n+theta)_(k-1) m_[k] / (n! (k-n)! (m+theta)_(k))``,
    with rising factorials ``(a)_(k)`` and the falling factorial ``m_[k]``.
    """
    import mpmath
    with mpmath.workdps(dps):
        t, theta = mpmath.mpf(t), mpmath.mpf(theta)
        out = np.empty(m + 1)
        for n in range(m + 1):
            total = mpmath.mpf(1 if n == 0 else 0)
            for k in range(max(n, 1), m + 1):
                total += ((-1) ** (k - n) * mpmath.exp(-k * (k + theta - 1) * t / 2)
                          * (2 * k + theta - 1) * mpmath.rf(n + theta, k - 1)
                          * mpmath.rf(m - k + 1, k)
                          / (mpmath.factorial(n) * mpmath.factorial(k - n)
                             * mpmath.rf(m + theta, k)))
            out[n] = float(total)
    return out


def moran_law(n0, t: float, p) -> dict:
    """Moran dual law at time ``t`` from its genealogy, ``{state: probability}``.

    The ``N = |n0|`` lines of descent leave ``A`` ancestors with the
    block-counting law of :func:`block_count_series_mp`; their types ``c``
    are multivariate hypergeometric from ``n0``, and the other ``N - A``
    individuals a Dirichlet-multinomial refill with weights ``alpha + c``:
    ``sum_a P(A=a) Hyp(c; n0, a) DM(n - c; N - a, alpha + c)``.
    """
    n0 = tuple(int(v) for v in n0)
    big_n = sum(n0)
    block = block_count_series_mp(big_n, t, p.theta)
    law: dict = {}
    for c in itertools.product(*(range(v + 1) for v in n0)):
        ancestors, conc = sum(c), [a + ci for a, ci in zip(p.alpha, c)]
        free = big_n - ancestors
        hyp = (math.prod(math.comb(v, ci) for v, ci in zip(n0, c))
               / math.comb(big_n, ancestors))
        for r in itertools.product(range(free + 1), repeat=p.k):
            if sum(r) != free:
                continue
            log_dm = (math.lgamma(free + 1) + math.lgamma(sum(conc))
                      - math.lgamma(free + sum(conc))
                      + math.fsum(math.lgamma(ri + a) - math.lgamma(a)
                                  - math.lgamma(ri + 1) for ri, a in zip(r, conc)))
            state = tuple(ci + ri for ci, ri in zip(c, r))
            law[state] = law.get(state, 0.0) + block[ancestors] * hyp * math.exp(log_dm)
    return law


def moran_generator_row(n0, t: float, p) -> dict:
    """Row ``n0`` of ``expm(Q t)`` for the Moran generator on ``|n| = |n0|``,
    ``{state: probability}`` over every composition of ``|n0|``."""
    states = [s for s in itertools.product(range(sum(n0) + 1), repeat=p.k)
              if sum(s) == sum(n0)]
    index = {s: i for i, s in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    for s in states:
        for nxt, rate in moran_transitions(p)(s):
            q[index[s], index[nxt]] += rate
    q[np.diag_indices_from(q)] = -q.sum(axis=1)
    return dict(zip(states, expm(q * t)[index[tuple(n0)]]))


def wf_two_step_brute_force(y0, y1, dt: float, p, n_paths: int,
                            rng: np.random.Generator) -> dict:
    """Brute-force two-step WF filter with Gillespie kernels.

    The propagation kernel is estimated from typed Kingman paths; updates
    use quadrature marginals.  Returns the final filtering weight map.
    """
    m0 = tuple(y0)
    kernel: dict = {}
    for _ in range(n_paths):
        arr = typed_kingman_path(m0, dt, p, rng)
        kernel[arr] = kernel.get(arr, 0) + 1
    raw = {}
    for n, cnt in kernel.items():
        mu = quad_wf_marginal(n, y1, p)
        key = tuple(ni + ci for ni, ci in zip(n, y1))
        raw[key] = raw.get(key, 0.0) + (cnt / n_paths) * mu
    z = sum(raw.values())
    return {k: v / z for k, v in raw.items()}


def wf_spectral_forward_backward(records, alpha, n_nodes: int = 400) -> dict:
    """Forward-backward pass of the two-type WF HMM from the spectral
    expansion of the WF transition density, independent of the dual.

    ``records`` hold count pairs ``(c1, c2)`` of type-1 and type-2 draws,
    ``alpha = (a1, a2)``.  The transition density of the first coordinate
    is the Beta(a1, a2) density at ``y`` times
    ``sum_n exp(-n(n+theta-1)t/2) Q_n(x) Q_n(y)``, where ``Q_n`` is the
    Jacobi polynomial ``P_n^(a2-1, a1-1)(2x-1)`` normalized in
    ``L2(Beta(a1, a2))`` (Griffiths, 1979).  Every law is kept as its
    density against Beta(a1, a2) on ``n_nodes`` Gauss-Jacobi nodes.  Those
    densities are polynomials of degree at most the total count, so with
    one mode per degree and enough nodes every integral is exact up to
    rounding.  Returns per-step filtering and smoothing means of the first
    coordinate and the log-evidence increments of the ordered sample
    (``log E[x^c1 (1-x)^c2]``, no multinomial coefficient).
    """
    a1, a2 = (float(a) for a in alpha)
    counts = np.array([r.values for r in records], dtype=float)
    n_modes = int(counts.sum()) + 1
    if n_nodes < n_modes:
        raise ValueError("need at least one node per mode")
    u, w = roots_jacobi(n_nodes, a2 - 1.0, a1 - 1.0)
    x, q = 0.5 * (u + 1.0), w / w.sum()  # Beta(a1, a2) quadrature
    modes = np.arange(n_modes)
    basis = eval_jacobi(modes[:, None], a2 - 1.0, a1 - 1.0, u[None, :])
    basis /= np.sqrt(basis ** 2 @ q)[:, None]
    rates = modes * (modes + a1 + a2 - 1.0) / 2.0

    def move(g, gap):
        return (np.exp(-rates * gap) * (basis @ (q * g))) @ basis

    likes = [x ** c1 * (1.0 - x) ** c2 for c1, c2 in counts]
    gaps = np.diff([r.time for r in records])
    filt, loglik = [], []
    g = np.ones_like(x)
    for i, like in enumerate(likes):
        joint = g * like
        z = float(q @ joint)
        loglik.append(math.log(z))
        filt.append(joint / z)
        if i < len(gaps):
            g = move(filt[-1], gaps[i])
    back = [np.ones_like(x)]
    for i in range(len(likes) - 2, -1, -1):
        back.insert(0, move(likes[i + 1] * back[0], gaps[i]))
    smooth = [f * b / (q @ (f * b)) for f, b in zip(filt, back)]
    return {"filt_mean": np.array([q @ (f * x) for f in filt]),
            "smooth_mean": np.array([q @ (s * x) for s in smooth]),
            "loglik": np.array(loglik)}


# ---------------------------------------------------------------------------
# Product closure of the mixture kernels
# ---------------------------------------------------------------------------

def closure_spread(model, m, n, theta_a, theta_b, grid) -> float:
    """Max relative spread of ``h(x,m,theta_a) h(x,n,theta_b) / h(x, m+n,
    combined theta)`` over a grid of signal points (should be ~0).

    ``h`` is the model's density ratio, :func:`cir_log_density_ratio` on a
    CIR grid or :func:`wf_log_density_ratio` on simplex grid rows.
    """
    if model.name == "cir":
        def log_h(idx, theta):
            return cir_log_density_ratio(grid, int(idx[0]), theta, model.params)
    else:
        def log_h(idx, theta):
            return np.atleast_1d(wf_log_density_ratio(grid, idx, model.params))
    logs = (log_h(m, theta_a) + log_h(n, theta_b)
            - log_h(np.add(m, n), model.combine(m, n, theta_a, theta_b)[1]))
    vals = np.exp(logs - np.max(logs))
    return float((vals.max() - vals.min()) / vals.max())
