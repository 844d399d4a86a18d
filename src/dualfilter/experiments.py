"""Experiment harness: dataset simulation, scenario orchestration, CSV output.

Four benchmark scenarios compare the inference procedures at desk scale:

* ``cir_predictive``: one-step predictive approximation quality for the
  CIR model (grid-L1 against the exact predictive), starting from a
  filtering mixture whose last Poisson observation equals 4;
* ``cir_filtering``: filtering error along a simulated CIR dataset for
  the pure-death/birth-death dual particle filters and the bootstrap
  baseline;
* ``wf_predictive``: one-step predictive approximation quality for a
  4-type Wright-Fisher model starting from a filtering mixture whose last
  multinomial observation equals (4, 0, 9, 2);
* ``wf_filtering``: filtering error for a 3-type WF model with 20
  categorical observations per time.

Every cell (replicate x method x particle count) derives its RNG stream
from ``(seed, scenario, cell_index, replicate)`` through a SeedSequence,
so results are byte-identical across re-runs at any number of worker
processes.  A worker runs one replicate at a time (its context, then its
cells); rows are flushed in cell order after all replicates complete.  The
manifest's ``seed_table`` holds the seed each cell ran with: the
``FilterConfig`` seed of a filtering cell, the SeedSequence entropy list of
a predictive cell, and its ``reference`` the ``prune_eps`` of :data:`REFERENCE`.
"""

from __future__ import annotations

import csv
import json
import logging
import sys
import time as time_mod
import zlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .cir import CIRModel, CIRParams
from .errors import ConfigError
from .filtering import (FilterConfig, ParticleCloud, density_on_grid, error_metrics,
                        grid_l1, metric_edges, run_filter)
from .mixtures import (ObservationRecord, dual_particle_propagate, is_integer,
                       is_real, propagate, sample_mixture)
from .wf import WFModel, WFParams

__all__ = [
    "ExperimentSpec",
    "PRESETS",
    "CSV_HEADER",
    "build_spec",
    "simulate_dataset",
    "run_scenario",
]

logger = logging.getLogger(__name__)

CSV_HEADER = ("scenario", "method", "dual", "N", "replicate",
              "time_index", "metric", "value")

#: map from method labels used in presets/CSV to (filter method, dual kind)
METHOD_TABLE = {
    "exact": ("exact", ""),
    "pd": ("dual_particle", "pure_death"),
    "bd": ("dual_particle", "bd"),
    "moran": ("dual_particle", "moran"),
    "wf_chain": ("dual_particle", "wf_chain"),
    "wf_diffusion": ("dual_particle", "wf_diffusion"),
    "bootstrap": ("bootstrap", ""),
}

#: reference filter of the filtering scenarios, for both models: the
#: induced mean error is orders of magnitude below the particle errors
REFERENCE = FilterConfig("pruned", prune_eps=1e-10)


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved description of one scenario run."""

    scenario: str
    flavor: str                 # "predictive" | "filtering"
    model: str                  # "cir" | "wf"
    params: tuple               # (delta, gamma, sigma, tau) or WF alpha vector
    n_times: int
    delta_t: float              # spacing of the simulated observation times
    batch_size: int
    methods: tuple
    particle_counts: tuple
    replicates: int
    seed: int
    horizon: float | None = None
    forced_last: tuple | None = None

    def __post_init__(self):
        if self.flavor not in ("predictive", "filtering"):
            raise ConfigError(f"unknown flavor {self.flavor!r}")
        if self.model not in ("cir", "wf"):
            raise ConfigError(f"unknown model {self.model!r}")
        try:
            model = self.build_model()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {self.model} params {self.params!r}: {exc}") from None
        if not self.methods or not set(self.methods) <= METHOD_TABLE.keys():
            raise ConfigError(f"methods must be known labels, not {self.methods!r}")
        for _, dual in map(METHOD_TABLE.get, self.methods):
            if dual:  # ConfigError for a dual this model does not have
                model.dual_sampler(dual)
        for name, low in (("n_times", 0), ("batch_size", 0), ("replicates", 1),
                          ("seed", 0)):
            value = getattr(self, name)
            if not is_integer(value) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, not {value!r}")
        if not self.particle_counts or not all(is_integer(v) and v >= 1
                                               for v in self.particle_counts):
            raise ConfigError(f"particle counts must be positive integers, "
                              f"not {self.particle_counts!r}")
        if not (is_real(self.delta_t) and self.delta_t > 0):
            raise ConfigError(f"delta_t must be finite and positive, not {self.delta_t!r}")
        if self.flavor == "predictive" and self.horizon is None:
            raise ConfigError("predictive scenarios need a horizon")
        if self.horizon is not None and not (is_real(self.horizon) and self.horizon > 0):
            raise ConfigError(f"horizon must be finite and positive, not {self.horizon!r}")
        if self.forced_last is not None:
            last = ObservationRecord(0.0, self.forced_last).values
            if self.model == "wf" and len(last) != len(self.params):
                raise ConfigError(f"forced_last must have {len(self.params)} counts, "
                                  f"not {len(last)}")

    def build_model(self):
        if self.model == "cir":
            return CIRModel(CIRParams(*self.params))
        return WFModel(WFParams(tuple(self.params)))


PRESETS: dict = {
    "cir_predictive": dict(
        # 30 history observations reach the filter's equilibrium support
        flavor="predictive", model="cir", params=(11.0, 1.1, 1.0, 1.0),
        n_times=30, delta_t=0.1, batch_size=1, horizon=0.05,
        forced_last=(4,), methods=("exact", "pd", "bd", "bootstrap"),
        particle_counts=(50, 100, 500, 1000, 1500), replicates=20,
        full=dict(replicates=50, n_times=200)),
    "cir_filtering": dict(
        flavor="filtering", model="cir", params=(11.0, 1.1, 1.0, 1.0),
        n_times=50, delta_t=0.1, batch_size=1,
        methods=("pd", "bd", "bootstrap"),
        particle_counts=(50, 200, 800), replicates=20,
        full=dict(n_times=200, replicates=50,
                  particle_counts=(50, 100, 500, 1000, 1500))),
    "wf_predictive": dict(
        flavor="predictive", model="wf", params=(3.0, 3.0, 3.0, 3.0),
        n_times=2, delta_t=0.1, batch_size=15, horizon=0.1,
        forced_last=(4, 0, 9, 2),
        methods=("exact", "pd", "moran", "wf_chain", "wf_diffusion", "bootstrap"),
        particle_counts=(50, 100, 500), replicates=20,
        full=dict(particle_counts=(50, 100, 500, 1000, 1500), replicates=100)),
    "wf_filtering": dict(
        flavor="filtering", model="wf", params=(1.1, 1.1, 1.1),
        n_times=10, delta_t=1.0, batch_size=20,
        methods=("pd", "moran", "wf_chain", "wf_diffusion", "bootstrap"),
        particle_counts=(50, 200, 800), replicates=20,
        full=dict(replicates=100)),
}

_SPEC_FIELDS = tuple(f.name for f in fields(ExperimentSpec))


def build_spec(scenario: str, config: dict | None = None, *, seed: int | None = None,
               particles=None, replicates=None, full: bool = False) -> ExperimentSpec:
    """Resolve a preset plus config-file and CLI overrides into a spec.

    The keyword overrides take precedence over ``config``; the seed falls
    back to the config's, then to 1234.  ``scenario``, ``flavor`` and
    ``model`` come from the preset: a config that sets them is rejected."""
    if scenario not in PRESETS:
        raise ConfigError(f"unknown scenario {scenario!r}; "
                          f"choose one of {sorted(PRESETS)}")
    base = dict(PRESETS[scenario])
    full_overrides = base.pop("full", {})
    if full:
        base.update(full_overrides)
    base["scenario"] = scenario
    for key, value in (config or {}).items():
        if key not in _SPEC_FIELDS or key in ("scenario", "flavor", "model"):
            raise ConfigError(f"config key {key!r} is unknown or fixed by the preset")
        base[key] = tuple(value) if isinstance(value, list) else value
    base["seed"] = seed if seed is not None else base.get("seed", 1234)
    if particles is not None:
        base["particle_counts"] = tuple(particles)
    if replicates is not None:
        base["replicates"] = replicates
    try:
        return ExperimentSpec(**base)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def _scenario_id(name: str) -> int:
    return zlib.crc32(name.encode())


def _entropy(seed: int, scenario: str, *path) -> list[int]:
    return [seed, _scenario_id(scenario)] + [int(v) for v in path]


def _derive_rng(entropy: list[int]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _derive_int_seed(entropy: list[int]) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _cell_seed(spec: ExperimentSpec, cell_idx: int, rep: int):
    """Seed of one cell: the ``FilterConfig`` seed of a filtering cell, the
    ``SeedSequence`` entropy of a predictive cell's generator."""
    entropy = _entropy(spec.seed, spec.scenario, cell_idx, rep)
    return _derive_int_seed(entropy) if spec.flavor == "filtering" else entropy


def simulate_dataset(spec: ExperimentSpec, rng: np.random.Generator):
    """Simulate a (signal path, observation list) pair for a spec.

    The signal starts from the reversible law and steps through the exact
    transition sampler; emissions are Poisson batches (CIR) or multinomial
    count vectors (WF).  ``forced_last`` overwrites the final observation
    values after simulation, leaving the RNG stream untouched.
    """
    model = spec.build_model()
    records: list[ObservationRecord] = []
    if spec.n_times == 0:
        return np.zeros((0, model.signal_dim)), records
    x = model.sample_prior(rng, 1)  # a batch of one signal point
    path = []
    for i in range(spec.n_times):
        if i > 0:
            x = model.signal_sample_many(x, spec.delta_t, rng)
        path.append(x.reshape(-1))
        values = model.sample_emission(x[0], spec.batch_size, rng)
        records.append(ObservationRecord(time=i * spec.delta_t, values=values))
    if spec.forced_last is not None and records:
        last = records[-1]
        records[-1] = ObservationRecord(time=last.time, values=spec.forced_last)
    return np.array(path), records


# ---------------------------------------------------------------------------
# Per-replicate contexts and per-cell work
# ---------------------------------------------------------------------------

def _predictive_context(spec: ExperimentSpec, rep: int) -> dict:
    model = spec.build_model()
    rng = _derive_rng(_entropy(spec.seed, spec.scenario, 0xDA7A, rep))
    _, records = simulate_dataset(spec, rng)
    trace = run_filter(records, FilterConfig(method="exact"), model)
    start = trace.filtering[-1]
    ref_pred = propagate(start, spec.horizon)
    edges = metric_edges(ref_pred)
    ref_mean, ref_sd = ref_pred.moments()
    return dict(model=model, start=start, ref_pred=ref_pred, edges=edges,
                ref_density=density_on_grid(ref_pred, edges),
                ref_mean=ref_mean, ref_sd=ref_sd)


def _filtering_context(spec: ExperimentSpec, rep: int) -> dict:
    model = spec.build_model()
    rng = _derive_rng(_entropy(spec.seed, spec.scenario, 0xDA7A, rep))
    signal, records = simulate_dataset(spec, rng)
    return dict(model=model, records=records, signal=signal,
                ref_trace=run_filter(records, REFERENCE, model))


def _predictive_cell(spec: ExperimentSpec, ctx: dict, seed: list[int],
                     rep: int, label: str, n: int) -> list[tuple]:
    model = ctx["model"]
    method, dual = METHOD_TABLE[label]
    rng = _derive_rng(seed)
    if method == "exact":
        approx = ctx["ref_pred"]
    elif method == "dual_particle":
        approx = dual_particle_propagate(ctx["start"], model.dual_sampler(dual), n,
                                         spec.horizon, rng)
    else:
        particles = sample_mixture(ctx["start"], rng, n)
        particles = model.signal_sample_many(particles, spec.horizon, rng)
        approx = ParticleCloud(particles, np.full(n, 1.0 / n))
    l1 = grid_l1(approx, ctx["ref_density"], ctx["edges"])
    mean, sd = approx.moments()
    base = (spec.scenario, method, dual, n, rep, "")
    return [base + ("l1_pred", l1),
            base + ("err_mean", float(np.abs(mean - ctx["ref_mean"]).mean())),
            base + ("err_sd", float(np.abs(sd - ctx["ref_sd"]).mean()))]


def _filtering_cell(spec: ExperimentSpec, ctx: dict, seed: int,
                    rep: int, label: str, n: int) -> list[tuple]:
    method, dual = METHOD_TABLE[label]
    cfg = FilterConfig(method=method, seed=seed,
                       n_particles=None if method == "exact" else n,
                       dual_kind=dual or None)
    trace = run_filter(ctx["records"], cfg, ctx["model"])
    metrics = error_metrics(trace, ctx["ref_trace"], signal=ctx["signal"])
    base = (spec.scenario, method, dual, n, rep, "")
    return [base + (name, value) for name, value in sorted(metrics["summary"].items())]


def _replicate(spec: ExperimentSpec, rep: int) -> list[tuple]:
    """Build replicate ``rep``'s context and run its cells in cell order.

    Returns one ``(idx, seed, rows, wall_s, error)`` tuple per cell, where
    ``seed`` is the one the cell ran with.  A failing cell yields a single
    ``metric="error"`` row and its error message; ``error`` is ``None``
    otherwise.
    """
    if spec.flavor == "predictive":
        build_ctx, cell_fn = _predictive_context, _predictive_cell
    else:
        build_ctx, cell_fn = _filtering_context, _filtering_cell
    t0 = time_mod.perf_counter()
    ctx = build_ctx(spec, rep)
    logger.info("%s replicate %d context ready (%.2fs)",
                spec.scenario, rep, time_mod.perf_counter() - t0)
    per_rep = len(spec.methods) * len(spec.particle_counts)
    out = []
    for j, (label, n) in enumerate(
            (label, n) for label in spec.methods for n in spec.particle_counts):
        idx = rep * per_rep + j
        seed = _cell_seed(spec, idx, rep)
        t0 = time_mod.perf_counter()
        error = None
        try:
            rows = cell_fn(spec, ctx, seed, rep, label, n)
        except Exception as exc:  # noqa: BLE001 - per-cell failures are recorded
            method, dual = METHOD_TABLE[label]
            rows = [(spec.scenario, method, dual, n, rep, "", "error", float("nan"))]
            error = f"{type(exc).__name__}: {exc}"
            logger.exception("cell %d (%s N=%d rep=%d) failed", idx, label, n, rep)
        wall_s = time_mod.perf_counter() - t0
        logger.info("%s cell %d/%d method=%s N=%d rep=%d done (%.2fs)", spec.scenario,
                    idx + 1, spec.replicates * per_rep, label, n, rep, wall_s)
        out.append((idx, seed, rows, wall_s, error))
    return out


def run_scenario(spec: ExperimentSpec, out_dir, threads: int = 1) -> int:
    """Run every cell of a scenario and write results.csv plus manifest.json.

    Replicates run through :func:`_replicate`, in this process when
    ``threads`` is 1 and otherwise in a pool of ``min(threads, replicates)``
    worker processes.  Returns the CLI exit code: 0 on success, 2 if any
    cell failed (failures are recorded as ``metric="error"`` rows and the
    run continues).  A spec without observation times, or a ``threads``
    that is not an integer >= 1, raises :class:`ConfigError` before
    anything is written.
    """
    from pathlib import Path
    if spec.n_times < 1:
        raise ConfigError(f"{spec.scenario} needs n_times >= 1, got {spec.n_times}")
    if not is_integer(threads) or threads < 1:
        raise ConfigError(f"threads must be an integer >= 1, not {threads!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    reps = range(spec.replicates)
    specs = [spec] * spec.replicates
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(threads, spec.replicates)) as pool:
            results = list(pool.map(_replicate, specs, reps))
    else:
        results = list(map(_replicate, specs, reps))
    cells = [cell for rep_cells in results for cell in rep_cells]

    csv_path = out / f"{spec.scenario}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for _, _, rows, _, _ in cells:
            writer.writerows([_fmt(v) for v in row] for row in rows)

    manifest = {
        "spec": {k: list(v) if isinstance(v, tuple) else v
                 for k, v in asdict(spec).items()},
        "version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "reference": {"prune_eps": REFERENCE.prune_eps}
        if spec.flavor == "filtering" else {"method": "exact"},
        "seed_table": {str(idx): seed for idx, seed, _, _, _ in cells},
        "wall_times_s": {str(idx): wall_s for idx, _, _, wall_s, _ in cells},
        "errors": {str(idx): error for idx, _, _, _, error in cells if error},
    }
    with open(out / f"{spec.scenario}_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)

    return 2 if manifest["errors"] else 0


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)
