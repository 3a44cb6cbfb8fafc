"""Exception types shared across the package.

Every error raised by the library derives from :class:`PanelLPError` so that
callers (in particular the command line driver) can distinguish expected
data/usage failures from genuine bugs.
"""

from __future__ import annotations


class PanelLPError(Exception):
    """Base class for all errors raised by this package."""


class DataError(PanelLPError):
    """A problem with an input file (bad cell, duplicate key, missing column).

    Carries enough context to point at the offending location.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:" if line is None else f"{path}:{line}:"
            prefix += " "
        super().__init__(prefix + message)


class ConfigError(PanelLPError):
    """Malformed or incomplete run configuration."""


class MissingVariableError(PanelLPError):
    """A named variable does not exist in the panel."""


class DegenerateVariableError(PanelLPError):
    """A transform hit a variable it cannot handle (e.g. zero variance)."""


class EmptySampleError(PanelLPError):
    """No rows survive listwise deletion for a regression sample."""


class DegenerateDesignError(PanelLPError):
    """The design matrix has no usable columns after rank filtering."""


class UnidentifiedShockError(PanelLPError):
    """A horizon's sample cannot identify the shock: it holds no shocked
    cell, or the year effects absorb every shocked one."""


class InsufficientClustersError(PanelLPError):
    """Cluster-robust inference needs at least two clusters."""


class EventError(PanelLPError):
    """Malformed event list (empty, duplicate country within an event, ...)."""
