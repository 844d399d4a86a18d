"""The three benchmark workloads: inputs from a seed, the timed calls, and
the checks on their outputs.

Each workload has three phases.  ``setup`` builds specs, models and data
from the seed (this is the set-up time).  ``execute`` makes the timed calls
into the package through its public API and keeps what they return.
``check`` reads the outputs, counts steps and failed ops, checks them and
returns the accuracy rows.  Calls go through module attributes
(``filtering.run_filter``) so that a traced run sees them.

* ``cir_filtering``: ``run_scenario`` on the ``cir_filtering`` desk preset.
  The dual samplers do most of the work, through many cheap calls (about
  40 support points per step); the exact kernels do almost none.
* ``wf_filtering``: ``run_scenario`` on the ``wf_filtering`` desk preset
  without ``moran`` (about 27 s per N=50 cell).  The same sampler layer used
  the other way: few support points and expensive calls.
* ``predictive``: ``run_scenario`` on the ``cir_predictive`` and
  ``wf_predictive`` desk presets.  The only workload where the error-metric
  layer, the short-horizon block-count law and the Moran sampler work.

A step is one observation time processed by one filter run, or one
predictive cell.  A failed op adds its time and no steps.
"""

from __future__ import annotations

import csv
import hashlib
import io
import traceback
import zlib
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

from dualfilter import experiments
from dualfilter.experiments import METHOD_TABLE, build_spec, simulate_dataset

#: Inputs of a fixed size.  The cost of a dataset varies with its content
#: (about 14% between datasets for ``wf_filtering``, and
#: 2.6-fold between the 10% and 90% quantiles for ``wf_predictive``), so a
#: run that drew datasets freely would measure its seed more than the
#: program.  Each workload therefore takes, among candidate datasets derived
#: from the seed, the first whose size statistic lies in a band around the
#: typical value:
#:
#: * ``wf_predictive``: support size of the exact predictive,
#:   prod(y1 + forced_last + 1), set by the one random history observation;
#:   the band lies below the median of 3267 to keep a round short.  The
#:   totals |y1| + |forced_last| = 30, which decide the block-count
#:   fallbacks, are the same for every dataset;
#: * ``wf_filtering``: sum over times of prod(y + 1), the number of count
#:   vectors below each observation, which sets the filters' support sizes.
WF_PREDICTIVE_SUPPORT = (1600, 2000)
WF_FILTERING_COMPOSITIONS = (2300, 2550)

#: workload -> preset overrides of the small size used by the smoke test
TINY = {
    "cir_filtering": {"n_times": 4, "particle_counts": [10]},
    "wf_filtering": {"n_times": 3, "particle_counts": [10]},
    "cir_predictive": {"n_times": 4, "particle_counts": [10]},
    "wf_predictive": {"n_times": 1, "particle_counts": [10]},
}


def setup(workload: str, seed: int, round_index: int = 0, tiny: bool = False) -> dict:
    """Specs, models and data of one round of a workload.

    Each round of a run draws its own dataset, from ``(seed, round_index)``,
    so that a run averages the cost of several datasets.
    """
    seed = int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])
    if workload == "cir_filtering":
        return {"specs": [_spec("cir_filtering", seed, tiny)]}
    if workload == "wf_filtering":
        spec = _spec("wf_filtering", seed, tiny,
                     methods=["pd", "wf_chain", "wf_diffusion", "bootstrap"])
        if not tiny:
            spec = replace(spec, seed=_scenario_seed(
                spec, seed, lambda ys: np.prod(ys + 1, axis=1).sum(),
                WF_FILTERING_COMPOSITIONS))
        return {"specs": [spec]}
    if workload == "predictive":
        wf_spec = _spec("wf_predictive", seed, tiny)
        if not tiny:
            # simulating the one history observation alone runs no signal
            # transition, and so fills none of the per-process caches
            first = build_spec("wf_predictive", {"n_times": 1, "forced_last": None})
            forced = np.asarray(wf_spec.forced_last)
            wf_spec = replace(wf_spec, seed=_scenario_seed(
                first, seed, lambda ys: np.prod(ys[0] + forced + 1),
                WF_PREDICTIVE_SUPPORT))
        return {"specs": [_spec("cir_predictive", seed, tiny), wf_spec]}
    raise ValueError(f"unknown workload {workload!r}")


def execute(workload: str, inputs: dict, out_dir: Path) -> dict:
    """The timed calls; returns their raw outputs."""
    codes = []
    for spec in inputs["specs"]:
        try:
            codes.append(experiments.run_scenario(spec, out_dir, threads=1))
        except Exception:  # noqa: BLE001 - a crashed scenario fails all its cells
            traceback.print_exc()
            codes.append(None)
    return {"codes": codes}


def check(workload: str, inputs: dict, outputs: dict, out_dir: Path) -> dict:
    """Steps, ops, failed ops, problems found, accuracy rows and a digest."""
    result = {"steps": 0, "ops": 0, "failed": 0, "problems": [], "accuracy": []}
    digest = hashlib.sha256()
    for spec, code in zip(inputs["specs"], outputs["codes"]):
        path = out_dir / f"{spec.scenario}.csv"
        if code is None:
            n_cells = spec.replicates * len(spec.methods) * len(spec.particle_counts)
            result["ops"] += n_cells
            result["failed"] += n_cells
            continue
        data = path.read_bytes()
        digest.update(data)
        _check_scenario(spec, code, data.decode(), result)
    result["digest"] = digest.hexdigest()
    return result


# ---------------------------------------------------------------------------
# scenario workloads
# ---------------------------------------------------------------------------

def _spec(scenario: str, seed: int, tiny: bool, **overrides):
    config = dict(overrides, replicates=1)
    if tiny:
        config.update(TINY[scenario])
    return build_spec(scenario, config, seed=seed)


def _scenario_seed(spec, seed: int, size, band) -> int:
    """First scenario seed derived from ``seed`` whose replicate-0 dataset
    has ``size(counts)`` in ``band``.

    Replays how ``run_scenario`` seeds the replicate-0 dataset of ``spec``;
    ``counts`` is the array of observed values, one row per time.
    """
    lo, hi = band
    for j in range(10_000):
        cand = int(np.random.SeedSequence([seed, 0x5E1EC7, j]).generate_state(1)[0])
        rng = np.random.default_rng(np.random.SeedSequence(
            [cand, zlib.crc32(spec.scenario.encode()), 0xDA7A, 0]))
        _, records = simulate_dataset(spec, rng)
        if lo <= size(np.array([r.values for r in records])) <= hi:
            return cand
    raise RuntimeError(f"no {spec.scenario} dataset of the set size")


def _check_scenario(spec, code: int, text: str, result: dict) -> None:
    """Count steps and ops from a scenario CSV and check its rows."""
    rows = list(csv.DictReader(io.StringIO(text)))
    cells: dict[tuple, dict] = defaultdict(dict)
    for row in rows:
        key = (row["method"], row["dual"], int(row["N"]), int(row["replicate"]))
        cells[key][row["metric"]] = float(row["value"])
    expected = {(*METHOD_TABLE[label], n, rep)
                for rep in range(spec.replicates)
                for label in spec.methods for n in spec.particle_counts}
    problems = result["problems"]
    if set(cells) != expected:
        problems.append(f"{spec.scenario}: cells {sorted(set(cells) ^ expected)} "
                        "missing or unexpected")
    predictive = spec.flavor == "predictive"
    wanted = ({"l1_pred", "err_mean", "err_sd"} if predictive
              else {"err_mean", "err_sd", "err_signal"})
    failed = [key for key, metrics in cells.items() if "error" in metrics]
    if (code == 2) != bool(failed):
        problems.append(f"{spec.scenario}: exit code {code} with {len(failed)} error rows")
    steps_per_cell = 1 if predictive else spec.n_times
    result["ops"] += len(expected)
    result["failed"] += len(expected - set(cells)) + len(failed)
    # each replicate runs one exact (predictive) or pruned (filtering)
    # filter over the history before its cells
    result["steps"] += spec.replicates * spec.n_times
    table: dict[tuple, dict] = defaultdict(lambda: defaultdict(list))
    for key, metrics in cells.items():
        if "error" in metrics:
            continue
        result["steps"] += steps_per_cell
        if set(metrics) != wanted or not all(np.isfinite(v) for v in metrics.values()):
            problems.append(f"{spec.scenario} cell {key}: metrics {metrics}")
        if key[0] == "exact" and metrics.get("l1_pred") != 0.0:
            problems.append(f"{spec.scenario} cell {key}: exact l1_pred "
                            f"{metrics.get('l1_pred')} is not 0")
        for name, value in metrics.items():
            table[key[:3]][name].append(value)
    for (method, dual, n), metrics in sorted(table.items()):
        row = {"workload_part": spec.scenario, "method": method, "dual": dual, "N": n}
        row.update({name: float(np.mean(v)) for name, v in sorted(metrics.items())})
        result["accuracy"].append(row)
