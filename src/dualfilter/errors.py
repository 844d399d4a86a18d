"""Exception types shared across the package."""


class DualFilterError(Exception):
    """Base class for all package-specific errors."""


class DegenerateWeights(DualFilterError):
    """Raised when a weight vector has no positive finite mass left."""


class InvalidKernel(DualFilterError):
    """Raised when a transition kernel carries more than unit mass."""


class ZeroLikelihood(DualFilterError):
    """Raised when every mixture component assigns zero (or invalid) likelihood."""


class DomainError(DualFilterError):
    """Raised when an evaluation point lies outside the signal state space."""


class InvalidDualParam(DualFilterError):
    """Raised when a deterministic dual parameter violates its lower bound."""


class DimensionError(DualFilterError):
    """Raised when a count vector does not match the model dimension."""


class SimulationBudgetExceeded(DualFilterError):
    """Raised when an event-driven simulation exceeds its event cap."""


class AlignmentError(DualFilterError):
    """Raised when observation times do not strictly increase, when two filter
    traces do not share a time grid, or when a trace and its data differ in
    length or times."""


class UnsupportedModel(DualFilterError):
    """Raised when an operation needs model structure the model does not provide."""


class ConfigError(DualFilterError, ValueError):
    """Raised for invalid configuration or input at the package boundary:
    experiment specs, filter configs, observation records, model parameters,
    dual kinds, and out-of-range arguments of the public kernels, samplers
    and mixture functions (CLI exit code 64)."""
