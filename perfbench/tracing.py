"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public functions and model methods of each
``dualfilter`` module.  Every wrapped call records one span (name, start,
end, parent span) and adds counts read from its arguments or return value.
Spans stay in memory until the run ends; :meth:`Recorder.write` dumps them
and :func:`layer_metrics` turns them into per-layer self times, where a
span's self time is its duration minus the time covered by its child spans.

Wrappers are installed at every name a caller looks up: the home module
and every ``dualfilter`` module that imported the function by name, and
the model classes for methods.  :func:`install` returns a function that
puts the originals back.
"""

from __future__ import annotations

import functools
import json
import logging
import sys
import time
from collections import defaultdict

#: message prefixes of the ``dualfilter.wf`` log records that are counted
MC_FALLBACK_PREFIX = "block-count series unstable"
ENTRANCE_WARNING_PREFIX = "entrance truncation level"

FILTER_METHODS = ("exact", "pruned", "dual_particle", "bootstrap")
DUAL_KINDS = {"cir": ("pure_death", "bd"),
              "wf": ("pure_death", "moran", "wf_chain", "wf_diffusion")}


class Recorder:
    """Keeps spans as ``[name, start, end, parent_index]`` plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` timed as a span.

        ``name`` is the span name or a function of the call arguments that
        gives it; ``count(counts, name, args, kwargs, out)`` adds counts
        after a call that returned.  A call that raises adds to
        ``<name>.failed`` and re-raises.  Every call adds to ``<name>.calls``.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            span = [label, 0.0, 0.0, rec._stack[-1] if rec._stack else -1]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = time.perf_counter()
            rec.counts[label + ".calls"] += 1
            try:
                out = fn(*args, **kwargs)
            except Exception:
                rec.counts[label + ".failed"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                rec._stack.pop()
            if count is not None:
                count(rec.counts, label, args, kwargs, out)
            return out

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def self_times(spans) -> dict[str, float]:
    """Total self time per span name, from the parent links."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, start, end, _), covered in zip(spans, child_time):
        totals[name] += (end - start) - covered
    return totals


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _support_out(counts, label, args, kwargs, out):
    mix = out[0] if isinstance(out, tuple) else out
    counts[label + ".support_out"] += mix.support_size


def _removed_mass(counts, label, args, kwargs, out):
    counts[label + ".removed_mass"] += out[1]


def _particles(counts, label, args, kwargs, out):
    counts[label + ".particles"] += _arg(args, kwargs, 2, "n_particles")
    counts[label + ".unique_arrivals"] += out.support_size


def _entries(counts, label, args, kwargs, out):
    counts[label + ".entries"] += len(out)


def _one_draw(counts, label, args, kwargs, out):
    counts[label + ".draws"] += 1


def _many_draws(counts, label, args, kwargs, out):
    counts[label + ".draws"] += len(out)


class _SamplerProxy:
    """Times a dual sampler; ``many`` exists only if the sampler has it,
    because ``dual_particle_propagate`` picks its code path by that."""

    def __init__(self, rec: Recorder, name: str, sampler):
        self._call = rec.wrap(name, sampler.__call__, _one_draw)
        if hasattr(sampler, "many"):
            self.many = rec.wrap(name, sampler.many, _many_draws)

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)


class _LogCounter(logging.Handler):
    """Counts the ``dualfilter.wf`` records that mark numerical fallbacks."""

    def __init__(self, counts):
        super().__init__(logging.DEBUG)
        self.counts = counts

    def emit(self, record):
        if record.msg.startswith(MC_FALLBACK_PREFIX):
            self.counts["wf.block_count_probs.mc_fallbacks"] += 1
        elif record.msg.startswith(ENTRANCE_WARNING_PREFIX):
            self.counts["wf.entrance.sensitive_warnings"] += 1


def _run_filter_name(args, kwargs):
    return "filtering.run_filter." + _arg(args, kwargs, 1, "cfg").method


#: (home module, function, span name, counter)
FUNCTIONS = (
    ("experiments", "simulate_dataset", "experiments.simulate_dataset", None),
    ("experiments", "run_scenario", "experiments.run_scenario", None),
    ("filtering", "run_filter", _run_filter_name, None),
    ("filtering", "error_metrics", "filtering.error_metrics", None),
    ("filtering", "grid_l1", "filtering.grid_l1", None),
    ("filtering", "metric_edges", "filtering.metric_edges", None),
    ("mixtures", "update", "mixtures.update", _support_out),
    ("mixtures", "propagate", "mixtures.propagate", _support_out),
    ("mixtures", "prune", "mixtures.prune", _removed_mass),
    ("mixtures", "dual_particle_propagate", "mixtures.dual_particle_propagate",
     _particles),
    ("mixtures", "mixture_moments", "mixtures.mixture_moments", None),
    ("mixtures", "systematic_counts", "mixtures.systematic_counts", None),
    ("wf", "block_count_probs", "wf.block_count_probs", None),
)

#: model methods: (method, span suffix, counter)
METHODS = (
    ("log_marginal_point", "log_marginal_point", None),
    ("pd_kernel", "pd_kernel", _entries),
    ("signal_sample_many", "signal_sample", None),
    ("emission_log_pmf", "emission_log_pmf", None),
)


def install(rec: Recorder):
    """Install the wrappers and the log counter; return an undo function."""
    from dualfilter import cir, wf

    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "dualfilter" or n.startswith("dualfilter."))]
    for home, attr, name, count in FUNCTIONS:
        original = getattr(sys.modules["dualfilter." + home], attr)
        traced = rec.wrap(name, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patch(module, key, traced)

    for layer, model in (("cir", cir.CIRModel), ("wf", wf.WFModel)):
        for attr, suffix, count in METHODS:
            patch(model, attr, rec.wrap(f"{layer}.{suffix}", model.__dict__[attr], count))

        def dual_sampler(self, kind, _layer=layer, _original=model.__dict__["dual_sampler"]):
            return _SamplerProxy(rec, f"{_layer}.dual_sampler.{kind}", _original(self, kind))

        patch(model, "dual_sampler", dual_sampler)

    wf_logger = logging.getLogger("dualfilter.wf")
    handler = _LogCounter(rec.counts)
    old_level = wf_logger.level
    wf_logger.addHandler(handler)
    wf_logger.setLevel(logging.DEBUG)

    def restore():
        wf_logger.removeHandler(handler)
        wf_logger.setLevel(old_level)
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def layer_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = ["experiments.simulate_dataset.s", "experiments.run_scenario.s"]
    for m in FILTER_METHODS:
        names += [f"filtering.run_filter.{m}.s", f"filtering.run_filter.{m}.calls"]
    names += ["filtering.error_metrics.s",
              "filtering.grid_l1.s", "filtering.grid_l1.calls",
              "filtering.metric_edges.s",
              "mixtures.update.s", "mixtures.update.calls", "mixtures.update.support_out",
              "mixtures.propagate.s", "mixtures.propagate.calls",
              "mixtures.propagate.support_out",
              "mixtures.prune.s", "mixtures.prune.removed_mass",
              "mixtures.dual_particle_propagate.s",
              "mixtures.dual_particle_propagate.calls",
              "mixtures.dual_particle_propagate.particles",
              "mixtures.dual_particle_propagate.unique_arrivals",
              "mixtures.mixture_moments.s", "mixtures.mixture_moments.calls",
              "mixtures.systematic_counts.s", "mixtures.systematic_counts.calls"]
    for layer in ("cir", "wf"):
        names += [f"{layer}.log_marginal_point.s", f"{layer}.log_marginal_point.calls",
                  f"{layer}.pd_kernel.s", f"{layer}.pd_kernel.calls",
                  f"{layer}.pd_kernel.entries"]
        for kind in DUAL_KINDS[layer]:
            names += [f"{layer}.dual_sampler.{kind}.{x}" for x in ("s", "calls", "draws")]
        names += [f"{layer}.signal_sample.s", f"{layer}.signal_sample.calls",
                  f"{layer}.emission_log_pmf.s"]
    names += ["wf.block_count_probs.s", "wf.block_count_probs.calls",
              "wf.block_count_probs.mc_fallbacks", "wf.entrance.sensitive_warnings"]
    return names


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Self time (``.s``) and counts for every name in :func:`layer_names`."""
    selfs = self_times(rec.spans)
    out = {}
    for name in layer_names():
        base, _, suffix = name.rpartition(".")
        out[name] = float(selfs.get(base, 0.0) if suffix == "s" else rec.counts.get(name, 0.0))
    return out
