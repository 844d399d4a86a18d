"""Property tests of the mixture algebra and the particle duals.

Each mixture example draws a model (CIR, or WF with K = 3), a mixture with
a few random support rows and weights, one observation batch and a time
step, and checks the array-backed recursion against direct per-point sums;
the propagation example also draws the kernel's tail threshold.
Each death-kernel example draws CIR rows, or WF rows with K = 2..4, and a
kernel cut, and checks each model's exact law of the surviving total, the
mass the row builder gives each source under the cut, and that propagation
raises where the cut drops every arrival of a source.
Each merge example draws rows of width 1-6, many of them repeated, in
shuffled order, and checks ``DualMixture.from_weights`` against the
``np.unique`` merge of ``tests/oracles.py``, and that the same rows as
integral floats build the same mixture bit for bit.
Each bad-row example draws CIR or WF rows with one flaw (a fractional,
non-finite or negative value, a 1-D or zero-width shape, or a wrong
width) and checks that every entry taking dual index rows raises
``ConfigError``, or ``DimensionError`` for the width.
Each sampler example draws a dual kind, a few random sources with small
copy counts, a time step and a seed, and checks the support bounds of the
arrivals, the theta the sampler moves to, and that the batched ``bd`` call
draws what the reference draw of ``tests/oracles.py`` draws source by
source from the same seed.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from dualfilter import (CIRModel, CIRParams, ConfigError, DimensionError, DualMixture,
                        FilterConfig, ObservationRecord, WFModel, WFParams,
                        dual_particle_propagate, propagate, prune, run_filter, update)
from dualfilter.cir import pure_death_flow
from dualfilter.errors import DegenerateWeights
from dualfilter.mixtures import dual_rows
from dualfilter.wf import block_count_probs, moran_sample_many, typed_death_sample_many

from .oracles import death_kernel, from_weights_unique, linear_bd_draw_reference

CIR = CIRModel(CIRParams(11.0, 1.1, 1.0))
WF = WFModel(WFParams((1.1, 1.1, 1.1)))

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True,
                             database=None)


@st.composite
def cases(draw):
    """(model, mixture, observation batch, time step)."""
    if draw(st.booleans()):
        model, theta = CIR, CIR.params.beta + draw(st.floats(0.0, 3.0))
        row = st.tuples(st.integers(0, 12))
        batch = st.lists(st.integers(0, 6), max_size=3)
    else:
        model, theta = WF, None
        row = st.tuples(*[st.integers(0, 3)] * 3)
        batch = st.tuples(*[st.integers(0, 3)] * 3)
    points = draw(st.lists(row, min_size=1, max_size=6, unique=True))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(points),
                        max_size=len(points)))
    mix = DualMixture.from_weights(model, points, raw, theta)
    y = ObservationRecord(0.0, tuple(draw(batch)))
    return model, mix, y, draw(st.floats(0.01, 1.0))


def normalized(acc: dict) -> dict:
    total = math.fsum(acc.values())
    return {k: v / total for k, v in acc.items()}


def direct_propagate(model, mix, dt, kernel_tail_eps) -> dict:
    acc: dict = {}
    for pt, w in zip(mix.points, mix.weights):
        arrivals, probs, _, _ = death_kernel(model, pt[None], mix.theta, dt,
                                             kernel_tail_eps)
        for n, pr in zip(np.asarray(arrivals).tolist(), probs):
            acc[tuple(n)] = acc.get(tuple(n), 0.0) + w * pr
    return normalized(acc)


def direct_update(model, mix, y) -> dict:
    acc: dict = {}
    for pt, w in zip(mix.points.tolist(), mix.weights):
        logmu = model.log_marginal_point(np.array([pt]), mix.theta, y)[0]
        if model is CIR:
            key = (pt[0] + sum(y.values),)
        else:
            key = tuple(a + b for a, b in zip(pt, y.values))
        acc[key] = acc.get(key, 0.0) + w * math.exp(logmu)
    return normalized(acc)


def assert_matches(mix: DualMixture, want: dict) -> None:
    got = mix.as_dict()
    assert set(got) == {k for k, v in want.items() if v > 0.0}
    for key, w in got.items():
        assert abs(w - want[key]) <= 1e-12
    assert abs(math.fsum(mix.weights) - 1.0) <= 1e-12


@PROPERTY_SETTINGS
@given(cases(), st.sampled_from([0.0, 1e-6]))
def test_propagate_matches_direct_sum(case, tail_eps):
    model, mix, _, dt = case
    if model is WF:
        # rows of different totals have different block-count rows, which
        # pins the tail filter to each source's own row
        assume(tail_eps == 0.0 or len(np.unique(mix.points.sum(axis=1))) > 1)
    out = propagate(mix, dt, tail_eps)
    assert_matches(out, direct_propagate(model, mix, dt, tail_eps))
    # the pure-death dual only moves down: every arrival lies below a source
    below = (out.points[:, None, :] <= mix.points[None, :, :]).all(axis=2)
    assert below.any(axis=1).all()


@st.composite
def death_cases(draw):
    """(model, points, theta, dt, eps): 1-5 distinct rows of the CIR model
    (counts up to 40), or of a WF model with K = 2..4 (counts up to 6), and
    a kernel cut of 0, 1e-6, 0.05 or 0.6."""
    if draw(st.booleans()):
        model, theta = CIR, CIR.params.beta + draw(st.floats(0.0, 3.0))
        row = st.tuples(st.integers(0, 40))
    else:
        k = draw(st.integers(2, 4))
        alpha = draw(st.lists(st.floats(0.2, 3.0), min_size=k, max_size=k))
        model = WFModel(WFParams(alpha))
        theta, row = None, st.tuples(*[st.integers(0, 6)] * k)
    eps = draw(st.sampled_from([0.0, 1e-6, 0.05, 0.6]))
    points = np.array(draw(st.lists(row, min_size=1, max_size=5, unique=True)))
    return model, points, theta, draw(st.floats(0.01, 2.0)), eps


@PROPERTY_SETTINGS
@given(death_cases())
def test_level_laws_and_death_kernel_rows(case):
    model, points, theta, dt, eps = case
    totals = np.unique(points.sum(axis=1))
    if model is CIR:
        s, flow = pure_death_flow(dt, theta, CIR.params)
        want = [binom.pmf(np.arange(t + 1), t, s) for t in totals]
    else:
        flow, want = None, [block_count_probs(t, dt, model.params) for t in totals]
    laws, theta_t = model.pd_kernel(totals, theta, dt)
    assert theta_t == flow
    segments = np.split(laws, np.cumsum(totals + 1)[:-1])
    for seg, w, t in zip(segments, want, totals, strict=True):
        assert len(seg) == t + 1 and np.all(seg >= 0.0)
        if model is CIR:
            np.testing.assert_allclose(seg, w, rtol=0, atol=1e-12)
        else:
            assert np.array_equal(seg, w)
        assert abs(math.fsum(seg) - 1.0) <= 1e-12
    # the cut zeroes exactly the levels at or below it: the row builder's
    # mass from each source is one, less those levels, and propagation
    # raises iff a source's total keeps no level
    cut = [np.where(seg > eps, seg, 0.0) for seg in segments]
    _, probs, source, theta_b = death_kernel(model, points, theta, dt, eps)
    assert theta_b == theta_t
    mass = np.bincount(source, probs, minlength=len(points))
    lost = np.array([1.0 - math.fsum(w) for w in cut])
    np.testing.assert_allclose(mass, 1.0 - lost[np.searchsorted(totals, points.sum(axis=1))],
                               rtol=0, atol=1e-12)
    mix = DualMixture.from_weights(model, points, np.ones(len(points)), theta)
    if all(w.any() for w in cut):
        assert propagate(mix, dt, eps).support_size >= 1
    else:
        with pytest.raises(ConfigError, match="kernel_tail_eps"):
            propagate(mix, dt, eps)


@PROPERTY_SETTINGS
@given(death_cases())
def test_cir_push_is_the_merged_box_bit_for_bit(case):
    # for K = 1 the thinning is one, so the push is the level law itself
    model, points, theta, dt, eps = case
    assume(model is CIR)
    weights = 1.0 / np.arange(1, len(points) + 1)
    mix = DualMixture.from_weights(model, points, weights, theta)
    arrivals, probs, source, theta_t = death_kernel(model, mix.points, theta, dt, eps)
    # a cut that drops a whole source raises, as the test above checks
    assume(np.bincount(source, probs, minlength=len(points)).all())
    want = DualMixture.from_weights(model, arrivals, mix.weights[source] * probs, theta_t)
    got = propagate(mix, dt, eps)
    assert got.theta == want.theta
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.weights, want.weights)


@PROPERTY_SETTINGS
@given(cases())
def test_update_matches_direct_sum(case):
    model, mix, y, _ = case
    out, _ = update(mix, y)
    assert_matches(out, direct_update(model, mix, y))


@PROPERTY_SETTINGS
@given(cases())
def test_prune_at_zero_is_identity(case):
    _, mix, _, _ = case
    out, removed = prune(mix, 0.0)
    assert out is mix
    assert removed == 0.0


@PROPERTY_SETTINGS
@given(cases(), st.integers(1, 3))
def test_pruned_at_zero_equals_exact(case, n_times):
    model, _, y, dt = case
    records = [ObservationRecord(i * dt, y.values) for i in range(n_times)]
    exact = run_filter(records, FilterConfig(method="exact"), model)
    pruned = run_filter(records, FilterConfig(method="pruned", prune_eps=0.0), model)
    for a, b in zip(exact.predictive + exact.filtering,
                    pruned.predictive + pruned.filtering):
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.theta == b.theta
    np.testing.assert_array_equal(exact.loglik, pruned.loglik)


@st.composite
def merge_cases(draw):
    """(rows, weights): up to 8 distinct rows of width 1-6 with values up to
    3 or up to 10**6, each repeated up to 5 times, shuffled, with some zero
    weights."""
    k = draw(st.integers(1, 6))
    top = draw(st.sampled_from([3, 10 ** 6]))
    distinct = draw(st.lists(st.tuples(*[st.integers(0, top)] * k), min_size=1,
                             max_size=8, unique=True))
    rows = draw(st.permutations([r for r in distinct
                                 for _ in range(draw(st.integers(1, 5)))]))
    weights = draw(st.lists(st.floats(0.0, 1.0) | st.just(0.0), min_size=len(rows),
                            max_size=len(rows)))
    assume(any(w > 0.0 for w in weights))
    return np.array(rows, dtype=np.int64), np.array(weights)


BIG = 2 ** 63 - 1


@PROPERTY_SETTINGS
@given(merge_cases())
# radix products 2**63 - 1 (keyed merge, largest key 2**63 - 2; BIG is
# divisible by 7) and 2**63 (lexsort merge), with K = 1 and K = 2
@example((np.array([[BIG - 1], [3], [BIG - 1]]), np.array([0.25, 0.5, 0.25])))
@example((np.array([[BIG], [3], [BIG]]), np.array([0.25, 0.5, 0.25])))
@example((np.array([[6, BIG // 7 - 1], [0, 5], [6, BIG // 7 - 1], [6, 0]]),
          np.array([0.1, 0.2, 0.3, 0.4])))
@example((np.array([[1, 2 ** 62 - 1], [0, 5], [1, 2 ** 62 - 1], [1, 0]]),
          np.array([0.1, 0.2, 0.3, 0.4])))
def test_from_weights_matches_unique_merge(case):
    rows, weights = case
    mix = DualMixture.from_weights(None, rows, weights)
    want_rows, want_weights = from_weights_unique(rows, weights)
    np.testing.assert_array_equal(mix.points, want_rows)
    assert np.array_equal(mix.weights, want_weights)
    if rows.max() < 2 ** 53:  # integral floats that hold the same dual indices
        same = DualMixture.from_weights(None, rows.astype(float), weights)
        assert same.points.dtype == np.int64
        assert np.array_equal(same.points, mix.points)
        assert np.array_equal(same.weights, mix.weights)
        direct = DualMixture(None, mix.points.astype(float), mix.weights)
        assert np.array_equal(direct.points, mix.points)
        assert np.array_equal(direct.weights, mix.weights)


def test_from_weights_rejects_empty_rows_and_zero_width():
    with pytest.raises(DegenerateWeights):
        DualMixture.from_weights(None, np.zeros((0, 2), dtype=np.int64), np.zeros(0))
    with pytest.raises(ValueError):
        DualMixture.from_weights(None, np.zeros((3, 0), dtype=np.int64), np.ones(3))


FLAWS = ["fractional", "non-finite", "negative", "1-D", "zero width", "wrong width"]


@st.composite
def bad_rows(draw):
    """(model, rows, flaw): 1-4 CIR rows or WF rows (K = 3) with one of ``FLAWS``."""
    model = draw(st.sampled_from([CIR, WF]))
    k = model.signal_dim
    flaw = draw(st.sampled_from(FLAWS))
    width = k
    if flaw == "wrong width":
        width = draw(st.sampled_from([w for w in range(1, 5) if w != k]))
    rows = np.array(draw(st.lists(st.lists(st.integers(0, 5), min_size=width,
                                           max_size=width), min_size=1, max_size=4)))
    i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1))
    if flaw == "fractional":
        rows = rows.astype(float)
        rows[i, j] += draw(st.floats(0.01, 0.99))
    elif flaw == "non-finite":
        rows = rows.astype(float)
        rows[i, j] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif flaw == "negative":
        rows[i, j] = -draw(st.integers(1, 5))
    elif flaw == "1-D":
        rows = rows[i]
    elif flaw == "zero width":
        rows = rows[:, :0]
    return model, rows, flaw


def row_entries(model, rows):
    """(call, flaws it lets pass) of each entry that takes dual index rows:
    a WF path draw takes a single ``(K,)`` row as one path."""
    theta = None if model is WF else CIR.params.beta + 1.0
    y = ObservationRecord(0.0, (1,) * model.signal_dim)
    n = len(rows) if np.ndim(rows) == 2 else 1
    weights = np.full(n, 1.0 / n)
    rng = np.random.default_rng(0)
    entries = [
        (lambda: dual_rows(rows, model.signal_dim), ()),
        (lambda: DualMixture(model, rows, weights, theta), ()),
        (lambda: DualMixture.from_weights(model, rows, weights, theta), ()),
        (lambda: model.log_marginal_point(rows, theta, y), ()),
        (lambda: model.component_moments(rows, theta), ()),
        (lambda: model.sample_component(rows, theta, rng), ()),
        (lambda: dual_particle_propagate(model.prior_mixture(),
                                         lambda *_: (rows, theta), n, 0.1, rng), ()),
    ]
    if model is WF:
        entries += [(lambda path=path: path(rows, 0.1, WF.params, rng), ("1-D",))
                    for path in (typed_death_sample_many, moran_sample_many)]
    return entries


@PROPERTY_SETTINGS
@given(bad_rows())
def test_every_row_entry_rejects_bad_rows(case):
    model, rows, flaw = case
    error = DimensionError if flaw == "wrong width" else ConfigError
    for call, passes in row_entries(model, rows):
        if flaw not in passes:
            with pytest.raises(error):
                call()


@st.composite
def sampler_cases(draw, kinds):
    """(model, kind, sources, counts, theta, dt, seed) for one of ``kinds``."""
    name, kind = draw(st.sampled_from(kinds))
    if name == "cir":
        model, theta = CIR, CIR.params.beta + draw(st.floats(0.0, 3.0))
        row = st.tuples(st.integers(0, 12))
    else:
        model, theta = WF, None
        row = st.tuples(*[st.integers(0, 4)] * 3)
    sources = np.array(sorted(draw(st.lists(row, min_size=1, max_size=4, unique=True))))
    counts = np.array(draw(st.lists(st.integers(1, 5), min_size=len(sources),
                                    max_size=len(sources))))
    return (model, kind, sources, counts, theta, draw(st.floats(0.01, 1.0)),
            draw(st.integers(0, 2 ** 32 - 1)))


def arrivals_and_starts(case):
    """The sampler's arrival rows, the source row each one started from and
    the sampler's new theta."""
    model, kind, sources, counts, theta, dt, seed = case
    out, theta_t = model.dual_sampler(kind)(sources, counts, theta, dt,
                                            np.random.default_rng(seed))
    return out, np.repeat(sources, counts, axis=0), theta_t


ALL_KINDS = [("cir", "pure_death"), ("cir", "bd"), ("cir", "bd_gillespie"),
             ("wf", "pure_death"), ("wf", "moran"), ("wf", "wf_chain"),
             ("wf", "wf_diffusion")]


@PROPERTY_SETTINGS
@given(sampler_cases(ALL_KINDS))
def test_sampler_returns_one_int_row_per_particle(case):
    model, kind, _, _, theta, dt, _ = case
    out, starts, theta_t = arrivals_and_starts(case)
    assert out.shape == starts.shape
    assert np.issubdtype(out.dtype, np.integer)
    assert np.all(out >= 0)
    assert theta_t == (None if model is WF
                       else CIR.pd_kernel([0], theta, dt)[1] if kind == "pure_death"
                       else theta)


@PROPERTY_SETTINGS
@given(sampler_cases([("wf", "moran"), ("wf", "wf_chain"), ("wf", "wf_diffusion")]))
def test_moran_duals_keep_each_total(case):
    out, starts, _ = arrivals_and_starts(case)
    np.testing.assert_array_equal(out.sum(axis=1), starts.sum(axis=1))


@PROPERTY_SETTINGS
@given(sampler_cases([("cir", "pure_death"), ("wf", "pure_death")]))
def test_pure_death_never_exceeds_its_source(case):
    out, starts, _ = arrivals_and_starts(case)
    assert np.all(out <= starts)


def _bd_case(sources, counts, excess, dt, seed):
    return (CIR, "bd", np.array(sources)[:, None], np.array(counts),
            CIR.params.beta + excess, dt, seed)


@PROPERTY_SETTINGS
@given(sampler_cases([("cir", "bd")]))
@example(_bd_case([2, 9], [3, 5], 0.0, 0.5, 1))        # theta == beta: no immigration
@example(_bd_case([0, 4], [5, 2], 1.0, 0.2, 2))        # a source with m0 = 0
@example(_bd_case([0, 6], [3, 100_000], 0.5, 0.3, 3))  # a source with 100k copies
def test_bd_step_keeps_the_per_source_stream(case):
    _, _, sources, counts, theta, dt, seed = case
    out, _, _ = arrivals_and_starts(case)
    rng = np.random.default_rng(seed)
    want = np.concatenate([linear_bd_draw_reference(int(m), dt, theta, CIR.params,
                                                    rng, int(c))
                           for m, c in zip(sources[:, 0], counts)])
    np.testing.assert_array_equal(out[:, 0], want)
