"""dualfilter benchmark: filter-step throughput on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads (see ``workloads.py``) are
``cir_filtering``, ``wf_filtering`` and ``predictive``.  The
run repeats rounds of the workload, each in a fresh process
(``worker.py``), until the next round would end after ``--seconds``.  Round
``k`` draws its own dataset from ``(--seed, k)``, so a run averages the cost
of several datasets and the same seed gives the same inputs.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``steps_per_s``: filter steps over the summed timed phases of the rounds;
* ``setup_s``: process start until the inputs are ready (median of rounds);
* ``peak_rss_mb``: peak resident set of a round process (median of rounds).

With ``--trace 1`` each dataset runs untraced and then traced, and the line
reports the per-layer metrics of ``tracing.py`` for the first dataset, its
ops attempted and failed and accuracy means, and ``trace.overhead``, the
traced over the untraced ``steps_per_s``.  Self time is a span's duration
less the time covered by its child spans.

``correct`` is true when every round's outputs pass the workload's checks
and the traced and untraced rounds of a dataset wrote byte-identical
results, which shows that tracing leaves the random streams alone.  ``attempted``
and ``failed`` count ops over all rounds.  The run record, with the
per-round figures, the accuracy table and the environment, is written to
``perfbench/out/<workload>-seed<N>-trace<0|1>/record.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cir_filtering", "wf_filtering", "predictive")
#: a run must end within 180 s; no round may start a child beyond this
HARD_LIMIT_S = 170.0
#: the package runs single-threaded, numpy's BLAS included
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")


def run_round(workload: str, seed: int, index: int, trace: int, out: Path,
              limit: float) -> dict:
    """Run one round in a fresh process and return its parsed result."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--round", str(index),
           "--trace", str(trace), "--out", str(out / f"round{index}-trace{trace}")]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd + ["--spawned", repr(start)], cwd=ROOT, env=WORKER_ENV,
                          stdout=subprocess.PIPE, text=True, timeout=max(limit, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"round exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - start
    return result


def run_rounds(workload: str, seed: int, seconds: float, trace: int, out: Path) -> list:
    """Rounds until the next cycle would end after ``seconds``.

    A cycle is one untraced round, or an untraced and a traced round on the
    same dataset.  Every cycle takes the next dataset.
    """
    kinds = (0, 1) if trace else (0,)
    rounds: list[dict] = []
    start = time.monotonic()
    for index in itertools.count():
        for kind in kinds:
            limit = HARD_LIMIT_S - (time.monotonic() - start)
            rounds.append(run_round(workload, seed, index, kind, out, limit))
        elapsed = time.monotonic() - start
        cycle = sum(statistics.median(r["wall_s"] for r in rounds if r["trace"] == k)
                    for k in kinds)
        if elapsed + cycle > min(seconds, HARD_LIMIT_S):
            return rounds


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "dualfilter").glob("*.py")))


def environment() -> dict:
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "src_dualfilter_lines": src_lines()}


def summarize(rounds: list, trace: int) -> tuple[bool, dict, list]:
    """Correctness, metrics and the problems found, from the rounds."""
    problems = [p for r in rounds for p in r["problems"]]
    for index in {r["round"] for r in rounds}:
        if len({r["digest"] for r in rounds if r["round"] == index}) != 1:
            problems.append(f"traced and untraced round {index} wrote different results")
    plain = [r for r in rounds if r["trace"] == 0]
    first = rounds[0]
    if not trace:
        metrics = {
            "steps_per_s": (steps_per_s(plain), "steps/s"),
            "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
    else:
        traced = [r for r in rounds if r["trace"] == 1]
        metrics = {name: (value, unit_of(name)) for name, value in traced[0]["layers"].items()}
        metrics.update({
            "ops": (first["ops"], "count"),
            "ops_failed": (first["failed"], "count"),
            "err_mean": (_particle_mean(first["accuracy"], "err_mean"), "signal"),
            "l1_pred": (_particle_mean(first["accuracy"], "l1_pred"), "L1"),
            "trace.overhead": (steps_per_s(traced) / steps_per_s(plain), "ratio"),
        })
    out = {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()}
    return not problems, out, problems


def steps_per_s(rounds: list) -> float:
    """Steps over the summed timed phases of the rounds."""
    return sum(r["steps"] for r in rounds) / sum(r["timed_s"] for r in rounds)


def unit_of(name: str) -> str:
    suffix = name.rpartition(".")[2]
    return {"s": "s", "removed_mass": "mass"}.get(suffix, "count")


def _particle_mean(accuracy: list, metric: str) -> float:
    """Mean over the particle cells (dual-particle and bootstrap rows)."""
    values = [row[metric] for row in accuracy
              if row["method"] in ("dual_particle", "bootstrap") and metric in row]
    return float(sum(values) / len(values)) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dualfilter" / "__init__.py").is_file():
        print(f"no dualfilter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds, args.trace, out)
    except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark round failed: {exc}", file=sys.stderr)
        return 1
    correct, metrics, problems = summarize(rounds, args.trace)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "correct": correct,
        "problems": problems, "metrics": metrics,
        "accuracy": rounds[0]["accuracy"],
        "rounds": [{k: v for k, v in r.items() if k not in ("accuracy", "layers")}
                   for r in rounds],
    }
    (out / "record.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["ops"] for r in rounds),
                      "failed": sum(r["failed"] for r in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
