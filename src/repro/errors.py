"""Exception hierarchy for the csTuner reproduction.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch package failures without
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class InvalidSettingError(ReproError):
    """A parameter setting violates an explicit or implicit constraint.

    The offending constraint is recorded in :attr:`reason` so tuners can
    report *why* a candidate was rejected (the paper's constraint-checking
    rules, Section IV-B).
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class UnknownStencilError(ReproError, KeyError):
    """Requested stencil name is not in the registered suite."""


class UnknownParameterError(ReproError, KeyError):
    """Requested parameter name is not part of the optimization space."""


class ModelFitError(ReproError):
    """A PMNF regression model could not be fitted to the dataset."""


class SearchError(ReproError):
    """The evolutionary search was asked to run in an impossible state."""


class CommunicatorError(ReproError):
    """Misuse of the island ring (bad size, mismatched payload count)."""


class OrchestrationError(ReproError):
    """One or more work units of a parallel experiment sweep failed."""


class DatasetError(ReproError):
    """A performance dataset is empty, malformed or incompatible."""
