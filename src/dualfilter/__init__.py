"""Exact and approximate filtering for diffusion HMMs via discrete duals.

The package covers hidden Markov models driven by Cox-Ingersoll-Ross and
K-type Wright-Fisher diffusions.  Conjugacy of the emissions to the
reversible law keeps every filtering, predictive and smoothing law a finite
mixture indexed by a discrete dual process, so propagation happens on a
countable space: exactly through closed-form pure-death transitions, or
approximately through particles pushed by birth-death/Moran duals.  A
signal-space bootstrap particle filter provides the baseline, and
:mod:`dualfilter.experiments` drives the comparison scenarios.
"""

__version__ = "0.1.0"

from .errors import (AlignmentError, ConfigError, DegenerateWeights,
                     DimensionError, DomainError, DualFilterError,
                     InvalidDualParam, InvalidKernel,
                     SimulationBudgetExceeded, UnsupportedModel,
                     ZeroLikelihood)
from .mixtures import (DualMixture, ObservationRecord, dual_particle_propagate,
                       mixture_marginal_pdf, mixture_pdf,
                       propagate, prune, sample_mixture,
                       systematic_counts, update)
from .cir import CIRModel, CIRParams
from .wf import WFModel, WFParams
from .filtering import (FilterConfig, FilterTrace, ParticleCloud, error_metrics,
                        run_filter, smoother)
from .experiments import ExperimentSpec, build_spec, run_scenario, simulate_dataset

__all__ = [
    "__version__",
    "DualFilterError", "DegenerateWeights", "InvalidKernel", "ZeroLikelihood",
    "DomainError", "InvalidDualParam", "DimensionError",
    "SimulationBudgetExceeded", "AlignmentError", "UnsupportedModel",
    "ConfigError",
    "DualMixture", "ObservationRecord", "prune", "propagate",
    "update", "dual_particle_propagate", "mixture_pdf",
    "mixture_marginal_pdf", "sample_mixture", "systematic_counts",
    "CIRParams", "CIRModel", "WFParams", "WFModel",
    "FilterConfig", "FilterTrace", "ParticleCloud",
    "run_filter", "smoother", "error_metrics",
    "ExperimentSpec", "build_spec", "run_scenario", "simulate_dataset",
]
