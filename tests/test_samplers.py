"""Batched dual samplers, each drawing a whole filter step in one call.

The sampler protocol is stated in
:func:`dualfilter.mixtures.dual_particle_propagate`; these tests check the
arrival rows it returns.  Source sets mix two different totals, as
predictive start mixtures do.
"""

from collections import Counter

import numpy as np
import pytest

from dualfilter.cir import linear_bd_rates, linear_bd_sample_many, pure_death_flow
from dualfilter.wf import wf_chain_sample_many

from .oracles import (death_kernel, kernel_dict, linear_bd_draw_reference,
                      linear_bd_kernel_row, tv_sample_vs_pmf)

CIR_POINTS = np.array([[3], [7]])
WF_POINTS = np.array([[2, 1, 0], [3, 1, 1]])
COUNTS = np.array([4, 5])

KINDS = [("cir", "pure_death"), ("cir", "bd"), ("cir", "bd_gillespie"),
         ("wf", "pure_death"), ("wf", "moran"), ("wf", "wf_chain"),
         ("wf", "wf_diffusion")]


def _draw(model, kind, points, counts, dt, seed):
    theta = model.params.beta + 1.0 if model.name == "cir" else None
    return model.dual_sampler(kind)(points, counts, theta, dt,
                                    np.random.default_rng(seed))[0]


@pytest.fixture
def models(cir_model, wf3_model):
    return {"cir": (cir_model, CIR_POINTS), "wf": (wf3_model, WF_POINTS)}


@pytest.mark.parametrize("name,kind", KINDS)
def test_batched_sampler_shape_and_dtype(models, name, kind):
    model, points = models[name]
    out = _draw(model, kind, points, COUNTS, 0.3, 1)
    assert out.shape == (COUNTS.sum(), points.shape[1])
    assert np.issubdtype(out.dtype, np.integer)
    assert np.all(out >= 0)


@pytest.mark.parametrize("kind", ["moran", "wf_chain", "wf_diffusion"])
def test_moran_approximations_conserve_each_total(wf3_model, kind):
    out = _draw(wf3_model, kind, WF_POINTS, COUNTS, 0.5, 2)
    np.testing.assert_array_equal(out.sum(axis=1),
                                  np.repeat(WF_POINTS.sum(axis=1), COUNTS))


def test_typed_death_never_exceeds_its_source(wf3_model):
    out = _draw(wf3_model, "pure_death", WF_POINTS, np.array([300, 300]), 0.5, 3)
    assert np.all(out <= np.repeat(WF_POINTS, [300, 300], axis=0))


def test_cir_pure_death_batch_equals_per_source_draws(cir_model):
    theta, dt = cir_model.params.beta + 1.0, 0.3
    s, _ = pure_death_flow(dt, theta, cir_model.params)
    rng = np.random.default_rng(4)
    ref = np.concatenate([rng.binomial(m, s, c) for (m,), c in zip(CIR_POINTS, COUNTS)])
    out = _draw(cir_model, "pure_death", CIR_POINTS, COUNTS, dt, 4)
    np.testing.assert_array_equal(out[:, 0], ref)


def test_cir_bd_batch_equals_per_source_draws(cir_model):
    p = cir_model.params
    theta, dt = p.beta + 1.0, 0.3
    rng = np.random.default_rng(5)
    ref = np.concatenate([linear_bd_draw_reference(m, dt, theta, p, rng, c)
                          for (m,), c in zip(CIR_POINTS, COUNTS)])
    out = _draw(cir_model, "bd", CIR_POINTS, COUNTS, dt, 5)
    np.testing.assert_array_equal(out[:, 0], ref)
    rng = np.random.default_rng(5)
    many = np.concatenate([linear_bd_sample_many(m, dt, theta, p, rng, c)
                           for (m,), c in zip(CIR_POINTS, COUNTS)])
    np.testing.assert_array_equal(many, ref)


def _tv(rows, pmf: dict) -> float:
    counts = Counter(map(tuple, rows.tolist()))
    n = len(rows)
    tv = sum(abs(counts.get(k, 0) / n - v) for k, v in pmf.items())
    return 0.5 * (tv + sum(c / n for k, c in counts.items() if k not in pmf))


def _blocks(out, counts):
    return np.split(out, np.cumsum(counts)[:-1])


def test_batched_typed_death_matches_kernel(wf3_model):
    counts, t = np.array([50_000, 50_000]), 0.3
    out = _draw(wf3_model, "pure_death", WF_POINTS, counts, t, 6)
    for src, block in zip(WF_POINTS, _blocks(out, counts)):
        kern = kernel_dict(death_kernel(wf3_model, src[None], None, t))
        assert _tv(block, kern) < 0.02


@pytest.mark.parametrize("t", [0.05, 0.3])
def test_cir_bd_streams_match_exact_kernel(cir_model, t):
    # both B&D streams against a row of expm(Q t) of the linear B&D generator
    p, counts = cir_model.params, np.array([50_000, 50_000])
    theta = p.beta + 1.0
    rng = np.random.default_rng(11)
    streams = {
        "sampler": _draw(cir_model, "bd", CIR_POINTS, counts, t, 10)[:, 0],
        "many": np.concatenate([linear_bd_sample_many(m, t, theta, p, rng, c)
                                for (m,), c in zip(CIR_POINTS, counts)]),
    }
    rates = linear_bd_rates(theta, p)
    for name, out in streams.items():
        for (m,), block in zip(CIR_POINTS, _blocks(out, counts)):
            row = linear_bd_kernel_row(m, t, *rates, 3 * int(block.max()) + 60)
            assert tv_sample_vs_pmf(block, row) < 0.02, (name, m)


def test_batched_wf_chain_matches_per_source_chain(wf3_model):
    counts, t = np.array([50_000, 50_000]), 0.5
    out = _draw(wf3_model, "wf_chain", WF_POINTS, counts, t, 7)
    rng = np.random.default_rng(8)
    for src, c, block in zip(WF_POINTS, counts, _blocks(out, counts)):
        ref = wf_chain_sample_many(np.repeat(src[None], c, axis=0), t,
                                   wf3_model.params, rng)
        emp = Counter(map(tuple, ref.tolist()))
        assert _tv(block, {k: v / c for k, v in emp.items()}) < 0.02
