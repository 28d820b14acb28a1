"""Exception types shared across the package."""


class DriftLabError(Exception):
    """Base class for all package-specific errors."""


class AssemblyError(DriftLabError):
    """A discrete operator could not be assembled from the given model and grid."""


class SolverError(DriftLabError):
    """The eigensolver failed to converge; carries a diagnostic report."""

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report or {}


class DegenerateEigenfunctionError(DriftLabError):
    """Normalization was attempted on a constant (or near-constant) eigenfunction."""


class BarrierDomainError(DriftLabError, ValueError):
    """A test function was evaluated outside [-pi/2, pi/2]."""


class BarrierHypothesisError(DriftLabError):
    """A barrier-based estimate was evaluated where its hypotheses fail hard."""


class InapplicableBoundError(DriftLabError):
    """A closed-form bound was requested outside its range of validity."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class ConfigError(DriftLabError):
    """An experiment configuration is malformed or references unknown entities."""
