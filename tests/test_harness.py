import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dualfilter import ConfigError, FilterConfig, run_filter
from dualfilter.cli import main
from dualfilter.experiments import (CSV_HEADER, PRESETS, build_spec,
                                    run_scenario, simulate_dataset)


def tiny_config(**extra):
    cfg = {"replicates": 2, "particle_counts": [10, 20], "n_times": 3}
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# spec resolution
# ---------------------------------------------------------------------------

def test_build_spec_applies_overrides():
    spec = build_spec("cir_predictive", {"replicates": 3}, seed=9,
                      particles=[5, 7])
    assert spec.replicates == 3
    assert spec.particle_counts == (5, 7)
    assert spec.seed == 9


def test_build_spec_full_scale():
    desk = build_spec("cir_filtering")
    full = build_spec("cir_filtering", full=True)
    assert full.n_times > desk.n_times
    assert full.replicates > desk.replicates


def test_build_spec_rejects_unknown_scenario():
    with pytest.raises(ConfigError):
        build_spec("nope")


def test_build_spec_rejects_unknown_key():
    with pytest.raises(ConfigError):
        build_spec("cir_predictive", {"bogus": 1})


@pytest.mark.parametrize("config, overrides", [({"particle_counts": [10.5]}, {}),
                                               ({"replicates": 2.5}, {}),
                                               (None, {"particles": [10.5]}),
                                               (None, {"replicates": 2.5})],
                         ids=["particle_counts", "replicates", "particles_keyword",
                              "replicates_keyword"])
def test_build_spec_rejects_fractional_counts(config, overrides):
    with pytest.raises(ConfigError):
        build_spec("cir_filtering", config, **overrides)


@pytest.mark.parametrize("scenario, config", [
    ("wf_predictive", {"forced_last": [1, 2]}),
    ("wf_predictive", {"forced_last": [4, 0, -9, 2]}),
    ("cir_predictive", {"forced_last": [-1]}),
    ("cir_predictive", {"forced_last": [2.5]}),
    ("wf_predictive", {"horizon": math.inf}),
    ("cir_predictive", {"horizon": math.nan}),
    ("cir_filtering", {"delta_t": math.inf}),
    ("cir_filtering", {"delta_t": math.nan}),
    ("cir_filtering", {"particle_counts": []}),
    ("cir_filtering", {"methods": []}),
    ("cir_filtering", {"flavor": "smoothing"}),
    ("cir_filtering", {"model": "ou"}),
    ("cir_filtering", {"methods": ["pd", "nope"]}),
    ("cir_predictive", {"horizon": None}),
    ("cir_filtering", {"delta_t": "0.1"}),
    ("cir_predictive", {"seed": -1}),
    ("cir_predictive", {"seed": 2.5}),
    # scenario, flavor and model are the preset's
    ("wf_filtering", {"model": "cir"}),
    ("cir_predictive", {"flavor": "filtering"}),
    ("cir_filtering", {"scenario": "wf_filtering"}),
    # a label whose dual the model does not have
    ("cir_filtering", {"methods": ["pd", "moran"]}),
    ("wf_filtering", {"methods": ["bd"]}),
    # a JSON true is not the integer 1
    ("cir_filtering", {"replicates": True}),
    ("cir_filtering", {"n_times": True}),
    ("cir_filtering", {"batch_size": True}),
    ("cir_filtering", {"seed": True}),
    ("cir_filtering", {"particle_counts": [True]}),
], ids=["forced_last_length", "forced_last_negative", "forced_last_cir_negative",
        "forced_last_fractional", "horizon_inf", "horizon_nan", "delta_t_inf",
        "delta_t_nan", "no_particle_counts", "no_methods", "flavor", "model",
        "method_label", "predictive_without_horizon", "delta_t_type",
        "negative_seed", "fractional_seed", "preset_model", "preset_flavor",
        "preset_scenario", "moran_on_cir", "bd_on_wf", "bool_replicates",
        "bool_n_times", "bool_batch_size", "bool_seed", "bool_particle_count"])
def test_build_spec_rejects_bad_values(scenario, config):
    with pytest.raises(ConfigError):
        build_spec(scenario, config)


def test_build_spec_accepts_no_forced_last():
    assert build_spec("wf_predictive", {"forced_last": None}).forced_last is None


def test_presets_pin_benchmark_parameterizations():
    assert PRESETS["cir_predictive"]["params"] == (11.0, 1.1, 1.0, 1.0)
    assert PRESETS["cir_predictive"]["horizon"] == 0.05
    assert PRESETS["cir_predictive"]["forced_last"] == (4,)
    assert PRESETS["wf_predictive"]["params"] == (3.0, 3.0, 3.0, 3.0)
    assert PRESETS["wf_predictive"]["forced_last"] == (4, 0, 9, 2)
    assert PRESETS["wf_predictive"]["horizon"] == 0.1
    assert PRESETS["wf_filtering"]["params"] == (1.1, 1.1, 1.1)
    assert PRESETS["wf_filtering"]["delta_t"] == 1.0
    assert PRESETS["wf_filtering"]["batch_size"] == 20
    assert PRESETS["cir_filtering"]["delta_t"] == 0.1


# ---------------------------------------------------------------------------
# dataset simulation
# ---------------------------------------------------------------------------

def test_simulate_dataset_empty():
    spec = build_spec("cir_filtering", {"n_times": 0})
    signal, records = simulate_dataset(spec, np.random.default_rng(0))
    assert len(records) == 0
    assert signal.shape[0] == 0


def test_simulate_dataset_deterministic():
    spec = build_spec("wf_filtering", tiny_config(batch_size=5))
    s1, r1 = simulate_dataset(spec, np.random.default_rng(33))
    s2, r2 = simulate_dataset(spec, np.random.default_rng(33))
    np.testing.assert_array_equal(s1, s2)
    assert r1 == r2


def test_simulate_dataset_forces_last_observation():
    spec = build_spec("cir_predictive", {"n_times": 5})
    _, records = simulate_dataset(spec, np.random.default_rng(1))
    assert records[-1].values == (4,)


def test_simulate_dataset_strong_reversion():
    # gamma large: the signal hugs delta*sigma^2/(2*gamma)
    spec = build_spec("cir_filtering",
                      {"params": [11.0, 50.0, 1.0, 1.0], "n_times": 200})
    signal, _ = simulate_dataset(spec, np.random.default_rng(2))
    want = 11.0 / (2 * 50.0)
    assert abs(signal.mean() - want) / want < 0.2


def test_simulate_dataset_wf_batches_sum():
    spec = build_spec("wf_filtering", tiny_config(batch_size=7))
    _, records = simulate_dataset(spec, np.random.default_rng(3))
    assert all(sum(r.values) == 7 for r in records)


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------

def test_run_scenario_row_count_and_schema(tmp_path):
    spec = build_spec("cir_predictive", tiny_config(), seed=5)
    assert run_scenario(spec, tmp_path) == 0
    lines = (tmp_path / "cir_predictive.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    n_metrics = 3
    want = len(spec.methods) * len(spec.particle_counts) * spec.replicates * n_metrics
    assert len(lines) - 1 == want
    manifest = json.loads((tmp_path / "cir_predictive_manifest.json").read_text())
    assert manifest["spec"]["scenario"] == "cir_predictive"
    assert "wall_times_s" in manifest and "seed_table" in manifest


def test_manifest_seed_reruns_predictive_cell(tmp_path):
    import csv

    import dualfilter.experiments as exp

    spec = build_spec("cir_predictive", tiny_config(), seed=5)
    assert run_scenario(spec, tmp_path) == 0
    with open(tmp_path / "cir_predictive.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    manifest = json.loads((tmp_path / "cir_predictive_manifest.json").read_text())
    # cells run replicate-major, then method, then particle count
    rep, label, n = 1, "bd", spec.particle_counts[1]
    idx = ((rep * len(spec.methods) + spec.methods.index(label))
           * len(spec.particle_counts) + 1)
    ctx = exp._predictive_context(spec, rep)
    got = exp._predictive_cell(spec, ctx, manifest["seed_table"][str(idx)],
                               rep, label, n)
    assert [[exp._fmt(v) for v in row] for row in got] == rows[3 * idx:3 * idx + 3]


def test_manifest_seed_reruns_filtering_cell(tmp_path):
    import csv

    import dualfilter.experiments as exp

    spec = build_spec("cir_filtering", tiny_config(n_times=5), seed=5)
    assert run_scenario(spec, tmp_path) == 0
    with open(tmp_path / "cir_filtering.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    manifest = json.loads((tmp_path / "cir_filtering_manifest.json").read_text())
    rep, label, n = 1, "bd", spec.particle_counts[1]
    idx = ((rep * len(spec.methods) + spec.methods.index(label))
           * len(spec.particle_counts) + 1)
    ctx = exp._filtering_context(spec, rep)
    got = [[exp._fmt(v) for v in row]
           for row in exp._filtering_cell(spec, ctx, manifest["seed_table"][str(idx)],
                                          rep, label, n)]
    # a cell's rows are the ones with its (method, dual, N, replicate)
    assert got == [row for row in rows if row[1:5] == got[0][1:5]]


@pytest.mark.parametrize("scenario", ["cir_filtering", "wf_filtering"])
def test_manifest_reference_reruns_the_reference_trace(tmp_path, scenario):
    import dualfilter.experiments as exp

    spec = build_spec(scenario, tiny_config(replicates=1, particle_counts=[10],
                                            methods=["pd"]), seed=5)
    assert run_scenario(spec, tmp_path) == 0
    manifest = json.loads((tmp_path / f"{scenario}_manifest.json").read_text())
    cfg = FilterConfig(method="pruned", **manifest["reference"])
    ctx = exp._filtering_context(spec, 0)
    got, want = run_filter(ctx["records"], cfg, ctx["model"]), ctx["ref_trace"]
    for a, b in zip(got.predictive + got.filtering, want.predictive + want.filtering,
                    strict=True):
        assert np.array_equal(a.points, b.points) and np.array_equal(a.weights, b.weights)
        assert a.theta == b.theta
    assert np.array_equal(got.loglik, want.loglik)


def test_run_scenario_reruns_byte_identical(tmp_path):
    spec = build_spec("cir_predictive", tiny_config(), seed=5)
    run_scenario(spec, tmp_path / "a")
    run_scenario(spec, tmp_path / "b")
    a = (tmp_path / "a" / "cir_predictive.csv").read_bytes()
    b = (tmp_path / "b" / "cir_predictive.csv").read_bytes()
    assert a == b


def test_run_scenario_thread_count_invariant(tmp_path):
    spec = build_spec("cir_filtering", tiny_config(n_times=5), seed=5)
    run_scenario(spec, tmp_path / "t1", threads=1)
    run_scenario(spec, tmp_path / "t4", threads=4)
    a = (tmp_path / "t1" / "cir_filtering.csv").read_bytes()
    b = (tmp_path / "t4" / "cir_filtering.csv").read_bytes()
    assert a == b
    manifests = []
    for run in ("t1", "t4"):
        path = tmp_path / run / "cir_filtering_manifest.json"
        manifest = json.loads(path.read_text())
        assert len(manifest.pop("wall_times_s")) == spec.replicates * 3 * 2
        manifests.append(manifest)
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("threads", [0, -1, True, 2.5])
def test_run_scenario_rejects_bad_threads(tmp_path, threads):
    spec = build_spec("cir_predictive", tiny_config(replicates=1, particle_counts=[10],
                                                    n_times=2, methods=["exact"]), seed=5)
    out = tmp_path / "out"
    with pytest.raises(ConfigError):
        run_scenario(spec, out, threads=threads)
    assert not out.exists()


def test_run_scenario_filtering_with_exact_method(tmp_path):
    # exact cells run without a particle count
    spec = build_spec("cir_filtering", tiny_config(replicates=1, particle_counts=[10],
                                                   methods=["exact", "pd"]), seed=5)
    assert run_scenario(spec, tmp_path) == 0


def test_run_scenario_caps_worker_processes(tmp_path, monkeypatch):
    import concurrent.futures

    seen = []

    class InProcessPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    spec = build_spec("cir_predictive", tiny_config(particle_counts=[10]), seed=5)
    assert run_scenario(spec, tmp_path, threads=1000) == 0
    assert seen == [2]


def test_run_scenario_seed_changes_results(tmp_path):
    base = tiny_config()
    run_scenario(build_spec("cir_predictive", base, seed=5), tmp_path / "a")
    run_scenario(build_spec("cir_predictive", base, seed=6), tmp_path / "b")
    a = (tmp_path / "a" / "cir_predictive.csv").read_bytes()
    b = (tmp_path / "b" / "cir_predictive.csv").read_bytes()
    assert a != b


@pytest.mark.parametrize("threads", [1, 2])
def test_run_scenario_records_cell_failures(tmp_path, monkeypatch, threads):
    import dualfilter.experiments as exp

    original = exp._predictive_cell
    calls = {"n": 0}

    def flaky(spec, ctx, cell_idx, rep, label, n):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("boom")
        return original(spec, ctx, cell_idx, rep, label, n)

    monkeypatch.setattr(exp, "_predictive_cell", flaky)
    spec = build_spec("cir_predictive",
                      {"replicates": 1, "particle_counts": [10],
                       "n_times": 2, "methods": ["exact", "pd"]}, seed=1)
    # with threads=2 the cell fails inside a worker process, which sees the
    # patched module because the pool forks (the Linux default start method)
    assert run_scenario(spec, tmp_path, threads=threads) == 2
    text = (tmp_path / "cir_predictive.csv").read_text()
    assert "error,nan" in text
    manifest = json.loads((tmp_path / "cir_predictive_manifest.json").read_text())
    assert any("boom" in v for v in manifest["errors"].values())


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_unknown_scenario_is_config_error(capsys):
    assert main(["--scenario", "cir_predictive", "--particles", "abc"]) == 64
    assert "config error" in capsys.readouterr().err


def test_cli_missing_scenario_is_config_error(capsys):
    assert main([]) == 64


def test_cli_bad_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--scenario", "cir_predictive", "--config", str(bad)]) == 64


@pytest.mark.parametrize("config", [
    {"scenario": "cir_filtering", "delta_t": 0},
    {"scenario": "cir_predictive", "horizon": -0.1},
    {"scenario": "cir_filtering", "n_times": -1},
    {"scenario": "cir_predictive", "params": [-1, 1.1, 1, 1]},
    {"scenario": "cir_predictive", "params": [11, 1.1, 1, 1, 1]},
    {"scenario": "wf_predictive", "params": 3},
    {"scenario": "cir_filtering", "batch_size": -1},
    {"scenario": "cir_filtering", "batch_size": 1.5},
    {"scenario": "cir_filtering", "n_times": 2.5},
    {"scenario": "wf_predictive", "forced_last": [1, 2]},
    # build_spec accepts n_times = 0 (simulate_dataset handles it); a run does not
    {"scenario": "cir_predictive", "n_times": 0},
    {"scenario": "wf_filtering", "n_times": 0},
    {"scenario": "cir_filtering", "methods": ["pd", "moran"]},
    {"scenario": "wf_filtering", "model": "cir"},
], ids=["delta_t", "horizon", "n_times", "params_value", "params_arity",
        "params_scalar", "batch_size", "batch_size_fractional", "n_times_fractional",
        "forced_last_length", "no_times_predictive", "no_times_filtering",
        "moran_on_cir", "preset_model"])
def test_cli_bad_config_value_is_config_error(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(config, replicates=1, particle_counts=[10])))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out-dir", str(out)]) == 64
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--particles", ","], ["--threads", "0"],
                                   ["--seed", "-1"]],
                         ids=["no_particles", "no_threads", "negative_seed"])
def test_cli_bad_flag_is_config_error(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["--scenario", "cir_filtering", "--out-dir", str(out)] + flags) == 64
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(["cir_predictive"]))
    assert main(["--scenario", "cir_predictive", "--config", str(path)]) == 64
    assert "config error" in capsys.readouterr().err


def test_cli_runs_tiny_scenario(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "cir_predictive",
                               "replicates": 1, "n_times": 2,
                               "particle_counts": [10],
                               "methods": ["exact", "pd"]}))
    code = main(["--config", str(cfg), "--seed", "3",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "cir_predictive.csv").exists()


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "cir_predictive",
                               "replicates": 4, "n_times": 2,
                               "particle_counts": [10],
                               "methods": ["pd"]}))
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--replicates", "1",
                 "--particles", "5", "--out-dir", str(out)])
    assert code == 0
    lines = (out / "cir_predictive.csv").read_text().splitlines()
    assert len(lines) - 1 == 1 * 1 * 1 * 3  # one method, one N, one replicate


def test_cli_seed_flag_overrides_config_seed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "cir_predictive", "seed": 3,
                               "replicates": 1, "n_times": 2,
                               "particle_counts": [10], "methods": ["pd"]}))
    for flags, want in ((["--seed", "7"], 7), ([], 3)):
        out = tmp_path / f"out{want}"
        assert main(["--config", str(cfg), "--out-dir", str(out)] + flags) == 0
        manifest = json.loads((out / "cir_predictive_manifest.json").read_text())
        assert manifest["spec"]["seed"] == want


def test_console_entry_point_help():
    # the subprocess imports the package from the source tree, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "dualfilter.cli", "--help"],
                            capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0
    assert "--scenario" in result.stdout


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Library quick start"):]
    block = section[section.index("```python\n") + len("```python\n"):]
    exec(compile(block[:block.index("```")], "README.md", "exec"), {})
    # the exact filter's means, the particle errors and one smoothed row per time
    assert len(capsys.readouterr().out.splitlines()) == 2 + 5


def run_scenarios_fresh(runs, out_dir):
    """Run each ``(scenario, config)`` in one fresh interpreter on the source
    tree, then fail unless ``scipy.linalg`` is still unimported."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = f"""
import sys
from dualfilter.experiments import build_spec, run_scenario
for scenario, config in {runs!r}:
    spec = build_spec(scenario, config, seed=5)
    assert run_scenario(spec, {str(out_dir)!r} + scenario) == 0
assert "scipy.linalg" not in sys.modules, "scipy.linalg was imported"
"""
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def test_cir_runs_never_import_scipy_linalg(tmp_path):
    # no scenario needs scipy.linalg; a fresh process that runs only CIR
    # scenarios must not pay for its import
    result = run_scenarios_fresh([(scenario, tiny_config())
                                  for scenario in ("cir_filtering", "cir_predictive")],
                                 tmp_path / "out")
    assert result.returncode == 0, result.stderr


def test_wf_runs_never_import_scipy_linalg(tmp_path):
    # exact and pruned propagation, the moran dual and the entrance law all
    # read the block-count law, whose matrix exponential is built in numpy
    methods = ["exact", "moran", "wf_diffusion", "bootstrap"]
    result = run_scenarios_fresh([("wf_predictive", tiny_config()),
                                  ("wf_filtering", tiny_config(methods=methods))],
                                 tmp_path / "out")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("scenario", ["cir_predictive", "wf_predictive"])
def test_exact_predictive_cells_score_zero(tmp_path, scenario):
    # every cell scores against the replicate's one reference density; the
    # exact cell recomputes that density from the same mixture
    import csv
    spec = build_spec(scenario, {"replicates": 2, "particle_counts": [10],
                                 "n_times": 1}, seed=5)
    assert run_scenario(spec, tmp_path) == 0
    with open(tmp_path / f"{scenario}.csv") as fh:
        l1 = [(row["method"], float(row["value"])) for row in csv.DictReader(fh)
              if row["metric"] == "l1_pred"]
    assert len(l1) == spec.replicates * len(spec.methods)
    assert [v for m, v in l1 if m == "exact"] == [0.0] * spec.replicates
    assert all(v > 0.0 for m, v in l1 if m != "exact")


def test_wf_predictive_method_ordering(tmp_path):
    # among the Moran-dual approximations the binned-diffusion sampler
    # converges slowest; the pure-death closed form converges fastest
    spec = build_spec("wf_predictive",
                      {"replicates": 4, "particle_counts": [300],
                       "methods": ["pd", "moran", "wf_chain", "wf_diffusion"]},
                      seed=17)
    assert run_scenario(spec, tmp_path) == 0
    vals = {}
    import csv
    with open(tmp_path / "wf_predictive.csv") as fh:
        for row in csv.DictReader(fh):
            if row["metric"] == "l1_pred":
                vals.setdefault(row["dual"], []).append(float(row["value"]))
    med = {k: float(np.median(v)) for k, v in vals.items()}
    assert med["wf_diffusion"] >= med["moran"]
    assert med["wf_diffusion"] >= med["wf_chain"]
    assert med["pure_death"] <= med["moran"]
