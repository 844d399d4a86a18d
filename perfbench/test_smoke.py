"""Smoke test of the benchmark harness at a tiny size.

    python -m pytest perfbench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import dualfilter  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_round_matches_untraced(workload, tmp_path):
    original = dualfilter.filtering.run_filter
    inputs = workloads.setup(workload, seed=3, tiny=True)
    results = []
    for traced in (False, True):
        out = tmp_path / str(traced)
        out.mkdir()
        rec = tracing.Recorder()
        restore = tracing.install(rec) if traced else None
        try:
            outputs = workloads.execute(workload, inputs, out)
        finally:
            if restore:
                restore()
        results.append(workloads.check(workload, inputs, outputs, out))
    plain, traced = results
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["digest"] == traced["digest"]
    assert plain["steps"] == traced["steps"] > 0
    assert plain["ops"] >= 1 and plain["failed"] == 0
    assert plain["accuracy"]
    layers = tracing.layer_metrics(rec)
    assert list(layers) == tracing.layer_names()
    assert sum(v for k, v in layers.items() if k.endswith(".calls")) > 0
    assert dualfilter.filtering.run_filter is original
    assert dualfilter.experiments.run_filter is original


def test_sampler_proxy_keeps_the_many_path():
    model = dualfilter.CIRModel(dualfilter.CIRParams(11.0, 1.1, 1.0))
    rec = tracing.Recorder()
    restore = tracing.install(rec)
    try:
        with_many = model.dual_sampler("bd")
        without_many = model.dual_sampler("bd_gillespie")
    finally:
        restore()
    assert hasattr(with_many, "many")
    assert not hasattr(without_many, "many")


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["b", 5.0, 6.0, 0]]
    assert tracing.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_run_fails_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cir_filtering",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
