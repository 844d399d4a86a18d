"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion summary lines).  Several criteria are Monte-Carlo gates with
fixed seeds; each states its tolerance inline.
"""

import csv
import math
import time

import numpy as np
from scipy.stats import binom, nbinom

from dualfilter import (CIRModel, CIRParams, FilterConfig, ObservationRecord,
                        WFModel, WFParams, run_filter, smoother)
from dualfilter.cir import gillespie_bd, linear_bd_sample_many, pure_death_flow
from dualfilter.experiments import build_spec, run_scenario
from dualfilter.wf import moran_sample_many, wf_transition_sample_many

from .oracles import (chi2_pvalue_vs_pmf, cir_two_step_enumeration, closure_spread,
                      tv_int_samples, tv_sample_vs_pmf, update_conjugate,
                      update_counts, wf_density_ratio, wf_two_step_brute_force)
from .oracles import cir_density_ratio as density_ratio

CIR = CIRParams(delta=11.0, gamma=1.1, sigma=1.0, tau=1.0)
WF3 = WFParams((1.1, 1.1, 1.1))
CIR_MODEL = CIRModel(CIR)
WF3_MODEL = WFModel(WF3)


def cir_log_marginal(m: int, theta: float, y) -> float:
    return CIR_MODEL.log_marginal_point(np.array([[m]]), theta, y)[0]


def wf_log_marginal(m: tuple, y) -> float:
    return WF3_MODEL.log_marginal_point(np.array([m]), None, y)[0]
WF2 = WFParams((1.1, 1.9))


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# A1: conjugate updates are batch-merge associative to 1e-12
# ---------------------------------------------------------------------------

def test_a01_conjugacy_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(0, 40))
        theta = CIR.beta + float(rng.uniform(0, 5))
        b1 = tuple(int(v) for v in rng.integers(0, 10, rng.integers(1, 4)))
        b2 = tuple(int(v) for v in rng.integers(0, 10, rng.integers(1, 4)))
        m1, t1 = update_conjugate(m, theta, ObservationRecord(0, b1), CIR)
        m2, t2 = update_conjugate(m1, t1, ObservationRecord(0, b2), CIR)
        mm, tm = update_conjugate(m, theta, ObservationRecord(0, b1 + b2), CIR)
        worst = max(worst, abs(m2 - mm), abs(t2 - tm))
        # the chain rule must hold on marginal likelihoods as well
        lhs = (cir_log_marginal(m, theta, ObservationRecord(0, b1))
               + cir_log_marginal(m1, t1, ObservationRecord(0, b2)))
        rhs = cir_log_marginal(m, theta, ObservationRecord(0, b1 + b2))
        worst = max(worst, abs(lhs - rhs))
    for _ in range(200):
        m = tuple(int(v) for v in rng.integers(0, 12, 3))
        c1 = tuple(int(v) for v in rng.integers(0, 5, 3))
        c2 = tuple(int(v) for v in rng.integers(0, 5, 3))
        a = update_counts(update_counts(m, ObservationRecord(0, c1), WF3),
                          ObservationRecord(0, c2), WF3)
        b = update_counts(m, ObservationRecord(0, tuple(x + y for x, y in zip(c1, c2))),
                          WF3)
        worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
        lhs = (wf_log_marginal(m, ObservationRecord(0, c1))
               + wf_log_marginal(update_counts(m, ObservationRecord(0, c1), WF3),
                                 ObservationRecord(0, c2)))
        # sequential product gives the ordered-sample probability of the
        # concatenated batch, which is the merged-batch marginal
        rhs = wf_log_marginal(m, ObservationRecord(
            0, tuple(x + y for x, y in zip(c1, c2))))
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report("A1", ok, f"max associativity defect {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# A2: CIR duality identity for both duals, 4 combined SE at 1e5 per side
# ---------------------------------------------------------------------------

def test_a02_cir_duality_identity():
    n = 100_000
    worst_z = 0.0
    checks = 0
    for xi, x in enumerate((0.5, 5.0)):
        for ti, t in enumerate((0.05, 0.5)):
            rng = np.random.default_rng(1000 + 10 * xi + ti)
            xs = CIR_MODEL.signal_sample_many(np.full(n, x), t, rng)
            for thi, theta in enumerate((CIR.beta, CIR.beta + 1.0)):
                for m in range(9):
                    lhs = density_ratio(xs, m, theta, CIR)
                    lhs_m = lhs.mean()
                    lhs_se = lhs.std() / math.sqrt(n)
                    # birth-death dual: theta is constant
                    ms = linear_bd_sample_many(m, t, theta, CIR, rng, n)
                    hv = np.array([density_ratio(x, int(k), theta, CIR)
                                   for k in range(int(ms.max()) + 1)])
                    rhs = hv[ms]
                    z_bd = abs(lhs_m - rhs.mean()) / max(
                        math.hypot(lhs_se, rhs.std() / math.sqrt(n)), 1e-300)
                    # pure-death dual: binomial thinning plus the theta flow
                    s, flow = pure_death_flow(t, theta, CIR)
                    ns = rng.binomial(m, s, n)
                    hv2 = np.array([density_ratio(x, int(k), flow, CIR)
                                    for k in range(m + 1)])
                    rhs2 = hv2[ns]
                    z_pd = abs(lhs_m - rhs2.mean()) / max(
                        math.hypot(lhs_se, rhs2.std() / math.sqrt(n)), 1e-300)
                    if m == 0 and theta == CIR.beta:
                        # h is identically one: both sides are exactly equal
                        assert lhs.std() == 0.0 and abs(lhs_m - rhs.mean()) == 0.0
                        continue
                    worst_z = max(worst_z, z_bd, z_pd)
                    checks += 1
                    assert z_bd <= 4.0, (m, x, t, theta, "bd", z_bd)
                    assert z_pd <= 4.0, (m, x, t, theta, "pd", z_pd)
    report("A2", True, f"{checks} configurations, worst |z| = {worst_z:.2f} <= 4")


# ---------------------------------------------------------------------------
# A3: WF duality identity (Moran dual), 4 combined SE at 1e5 per side
# ---------------------------------------------------------------------------

def test_a03_wf_duality_identity():
    n = 100_000
    cases = {
        WF2: (np.array([0.3, 0.7]), [(1, 0), (2, 1), (3, 3), (0, 2)]),
        WF3: (np.array([0.5, 0.2, 0.3]),
              [(1, 0, 0), (1, 1, 1), (2, 1, 0), (3, 2, 1)]),
    }
    worst_z = 0.0
    checks = 0
    for p, (x, starts) in cases.items():
        for si, start in enumerate(starts):
            for ti, t in enumerate((0.1, 1.0)):
                rng = np.random.default_rng(2000 + 100 * p.k + 10 * si + ti)
                xs = wf_transition_sample_many(np.repeat(x[None], n, axis=0), t, p, rng)
                lhs = wf_density_ratio(xs, start, p)
                lhs_m = lhs.mean()
                lhs_se = lhs.std() / math.sqrt(n)
                ms = moran_sample_many(np.repeat([start], n, axis=0), t, p, rng)
                uniq, inv = np.unique(ms, axis=0, return_inverse=True)
                hv = np.array([wf_density_ratio(x[None, :], tuple(r), p)
                               for r in uniq])
                rhs = hv[inv]
                z = abs(lhs_m - rhs.mean()) / max(
                    math.hypot(lhs_se, rhs.std() / math.sqrt(n)), 1e-300)
                worst_z = max(worst_z, z)
                checks += 1
                assert z <= 4.0, (p.k, start, t, z)
    report("A3", True, f"{checks} configurations, worst |z| = {worst_z:.2f} <= 4")


# ---------------------------------------------------------------------------
# A4: two-stage sampler vs Gillespie across a 3x3 grid; critical reduction
# ---------------------------------------------------------------------------

def test_a04_sampler_equivalence():
    n = 100_000
    t, m0 = 0.1, 4
    worst_tv = 0.0
    for di, delta in enumerate((3.0, 11.0, 24.0)):
        for gi, gap in enumerate((0.5, 1.0, 2.0)):
            p = CIRParams(delta, 1.1, 1.0)
            theta = p.beta + gap
            rng = np.random.default_rng(3000 + 10 * di + gi)
            a = np.array([gillespie_bd(m0, t, theta, p, rng) for _ in range(n)])
            b = linear_bd_sample_many(m0, t, theta, p, rng, n)
            tv = tv_int_samples(a, b)
            worst_tv = max(worst_tv, tv)
            assert tv < 0.02, (delta, gap, tv)
    # pure-death reduction: exact Binomial(m0, e^{-mu t}) law
    samples = linear_bd_sample_many(12, 0.3, CIR.beta, CIR,
                                    np.random.default_rng(303), n)
    mu = 2.0 * CIR.sigma ** 2 * CIR.beta
    ref = binom.pmf(np.arange(13), 12, math.exp(-mu * 0.3))
    pval = chi2_pvalue_vs_pmf(samples, ref)
    ok = worst_tv < 0.02 and pval > 0.001
    report("A4", ok, f"worst TV {worst_tv:.4f} < 0.02, "
                     f"critical-reduction chi2 p = {pval:.3f} > 0.001")
    assert pval > 0.001


# ---------------------------------------------------------------------------
# A5: B&D dual ergodic law is NBin(alpha, beta/(beta+k))
# ---------------------------------------------------------------------------

def test_a05_ergodic_negative_binomial():
    k = 1
    samples = linear_bd_sample_many(3, 50.0, CIR.beta + k, CIR,
                                    np.random.default_rng(404), 100_000)
    ref = nbinom.pmf(np.arange(int(samples.max()) + 1), CIR.alpha,
                     CIR.beta / (CIR.beta + k))
    tv = tv_sample_vs_pmf(samples, ref)
    report("A5", tv < 0.02, f"TV to NBin ergodic law {tv:.4f} < 0.02")
    assert tv < 0.02


# ---------------------------------------------------------------------------
# A6: exact filters vs brute-force oracles
# ---------------------------------------------------------------------------

def test_a06_exact_filter_oracles():
    model = CIRModel(CIR)
    cfg = FilterConfig(method="exact")
    records = [ObservationRecord(0.0, (4,)), ObservationRecord(0.1, (2,))]
    trace = run_filter(records, cfg, model)
    want, _, _ = cir_two_step_enumeration(4, 2, 0.1, CIR)
    got = trace.filtering[1].as_dict()
    worst = max(abs(got.get(k, 0.0) - v) for k, v in want.items())
    assert worst <= 1e-8

    wf_model = WFModel(WF2)
    y0, y1, dt = (3, 1), (1, 1), 0.5
    wf_cfg = FilterConfig(method="exact")
    wf_trace = run_filter([ObservationRecord(0.0, y0),
                          ObservationRecord(dt, y1)], wf_cfg, wf_model)
    bf = wf_two_step_brute_force(y0, y1, dt, WF2, 100_000,
                                 np.random.default_rng(55))
    got_wf = wf_trace.filtering[1].as_dict()
    keys = set(got_wf) | set(bf)
    tv = 0.5 * sum(abs(got_wf.get(kk, 0.0) - bf.get(kk, 0.0)) for kk in keys)
    ok = worst <= 1e-8 and tv < 0.03
    report("A6", ok, f"CIR weight defect {worst:.2e} <= 1e-8, "
                     f"WF brute-force TV {tv:.4f} < 0.03")
    assert tv < 0.03


# ---------------------------------------------------------------------------
# A7: one-step predictive convergence at desk scale
# ---------------------------------------------------------------------------

def _scenario_metric(csv_path, metric):
    """metric values keyed by (method label, N) across replicates."""
    out: dict = {}
    with open(csv_path) as fh:
        for row in csv.DictReader(fh):
            if row["metric"] != metric:
                continue
            label = row["dual"] or row["method"]
            out.setdefault((label, int(row["N"])), []).append(float(row["value"]))
    return out


def test_a07_predictive_convergence(tmp_path):
    t0 = time.perf_counter()
    spec = build_spec("cir_predictive",
                      {"methods": ["pd", "bd", "bootstrap"],
                       "particle_counts": [50, 1500]}, seed=2024)
    assert run_scenario(spec, tmp_path) == 0
    l1 = _scenario_metric(tmp_path / "cir_predictive.csv", "l1_pred")
    med = {k: float(np.median(v)) for k, v in l1.items()}
    pd50 = med[("pure_death", 50)]
    bd50 = med[("bd", 50)]
    bpf1500 = med[("bootstrap", 1500)]
    elapsed = time.perf_counter() - t0
    ok = pd50 <= bpf1500 and bd50 <= bpf1500 and bd50 <= 0.05 and elapsed < 600
    report("A7", ok,
           f"median grid-L1: PD@50 {pd50:.4f}, BD@50 {bd50:.4f} "
           f"<= bootstrap@1500 {bpf1500:.4f}; BD@50 <= 0.05; {elapsed:.0f}s")
    assert pd50 <= bpf1500
    assert bd50 <= bpf1500
    assert bd50 <= 0.05  # "almost indistinguishable" operationalization
    assert elapsed < 600


# ---------------------------------------------------------------------------
# A8: filtering-error ordering at desk scale (directional claims)
# ---------------------------------------------------------------------------

def test_a08_filtering_error_ordering(tmp_path):
    spec = build_spec("cir_filtering", seed=2024)  # desk preset: 50 times, 20 reps
    assert run_scenario(spec, tmp_path) == 0
    err = _scenario_metric(tmp_path / "cir_filtering.csv", "err_mean")
    med = {k: float(np.median(v)) for k, v in err.items()}
    details = []
    ok = True
    for n in spec.particle_counts:
        pd, bd, bpf = med[("pure_death", n)], med[("bd", n)], med[("bootstrap", n)]
        details.append(f"N={n}: PD {pd:.4f} <= BD {bd:.4f}, BD/BPF {bd / bpf:.2f}")
        ok = ok and pd <= bd and bd <= 2.0 * bpf
    report("A8", ok, "; ".join(details))
    for n in spec.particle_counts:
        assert med[("pure_death", n)] <= med[("bd", n)]
        assert med[("bd", n)] <= 2.0 * med[("bootstrap", n)]


# ---------------------------------------------------------------------------
# A9: Moran dual propagation relaxes the mean to the prior mean
# ---------------------------------------------------------------------------

def test_a09_moran_ergodic_propagation():
    m = (2, 1, 1)
    mtot = sum(m)
    target = WF3.alpha[0] / WF3.theta
    devs, ses = [], []
    for i, t in enumerate((1.0, 5.0, 20.0)):
        ms = moran_sample_many(np.repeat([m], 100_000, axis=0), t, WF3,
                               np.random.default_rng(500 + i))
        vals = (WF3.alpha[0] + ms[:, 0]) / (WF3.theta + mtot)
        devs.append(abs(float(vals.mean()) - target))
        ses.append(float(vals.std()) / math.sqrt(len(vals)))
    monotone = all(devs[i + 1] <= devs[i] + 3 * (ses[i] + ses[i + 1])
                   for i in range(2))
    final_ok = devs[-1] <= 3 * ses[-1]
    report("A9", monotone and final_ok,
           f"|mean - a1/theta| = {devs[0]:.5f} -> {devs[1]:.5f} -> {devs[2]:.5f} "
           f"(3SE {3 * ses[-1]:.5f})")
    assert monotone
    assert final_ok


# ---------------------------------------------------------------------------
# A10: pruning at 1e-10 leaves the filter means intact to 1e-6
# ---------------------------------------------------------------------------

def test_a10_pruning_control():
    model = CIRModel(CIR)
    rng = np.random.default_rng(77)
    counts = rng.poisson(5.0, 50).tolist()
    records = [ObservationRecord(i * 0.1, (c,)) for i, c in enumerate(counts)]
    exact = run_filter(records, FilterConfig(method="exact"), model)
    pruned = run_filter(records, FilterConfig(method="pruned", prune_eps=1e-10), model)
    worst = float(np.max(np.abs(exact.filt_mean - pruned.filt_mean)))
    report("A10", worst <= 1e-6,
           f"max |mean difference| over 50 steps {worst:.2e} <= 1e-6")
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# A11: smoothing consistency and product-closure checks
# ---------------------------------------------------------------------------

def test_a11_smoothing_consistency():
    model = CIRModel(CIR)
    cfg = FilterConfig(method="exact")
    records = [ObservationRecord(i * 0.1, (c,)) for i, c in
               enumerate([4, 2, 7, 3, 5])]
    trace = run_filter(records, cfg, model)
    smooth = smoother(trace)
    last, filt = smooth[-1], trace.filtering[-1]
    np.testing.assert_array_equal(last.points, filt.points)
    worst = float(np.max(np.abs(np.asarray(last.weights)
                                - np.asarray(filt.weights))))
    grid = np.linspace(0.1, 10.0, 100)
    spread_cir = closure_spread(model, (2,), (3,), 2.1, 3.1, grid)
    wf_model = WFModel(WF3)
    base = np.linspace(0.05, 0.9, 15)
    simplex = np.stack([base, (1 - base) / 3, 2 * (1 - base) / 3], axis=1)
    spread_wf = closure_spread(wf_model, (2, 0, 1), (1, 1, 0), None, None, simplex)

    wf_cfg = FilterConfig(method="exact")
    wf_records = [ObservationRecord(0.0, (3, 1, 0)), ObservationRecord(0.5, (1, 1, 1))]
    wf_trace = run_filter(wf_records, wf_cfg, wf_model)
    wf_smooth = smoother(wf_trace)
    worst_wf = float(np.max(np.abs(np.asarray(wf_smooth[-1].weights)
                                   - np.asarray(wf_trace.filtering[-1].weights))))
    ok = worst <= 1e-12 and worst_wf <= 1e-12 and spread_cir < 1e-9 and spread_wf < 1e-9
    report("A11", ok,
           f"terminal weight defect CIR {worst:.2e}, WF {worst_wf:.2e} <= 1e-12; "
           f"closure spreads {spread_cir:.2e}, {spread_wf:.2e} < 1e-9")
    assert worst <= 1e-12 and worst_wf <= 1e-12
    assert spread_cir < 1e-9 and spread_wf < 1e-9


# ---------------------------------------------------------------------------
# A12: scenario runs are byte-identical per seed at any thread count
# ---------------------------------------------------------------------------

def test_a12_determinism_across_threads(tmp_path):
    tiny = {
        "cir_predictive": {"replicates": 2, "particle_counts": [15, 30],
                           "n_times": 3},
        "cir_filtering": {"replicates": 2, "particle_counts": [15],
                          "n_times": 5},
        "wf_predictive": {"replicates": 1, "particle_counts": [15],
                          "batch_size": 5},
        "wf_filtering": {"replicates": 1, "particle_counts": [15],
                         "n_times": 3, "batch_size": 6},
    }
    details = []
    for scenario, cfg in tiny.items():
        spec = build_spec(scenario, cfg, seed=11)
        blobs = []
        for run, threads in enumerate((1, 1, 3)):
            out = tmp_path / f"{scenario}_{run}"
            assert run_scenario(spec, out, threads=threads) == 0
            blobs.append((out / f"{scenario}.csv").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2], scenario
        details.append(scenario)
    report("A12", True, f"byte-identical re-runs at 1 and 3 threads: "
                        f"{', '.join(details)}")
