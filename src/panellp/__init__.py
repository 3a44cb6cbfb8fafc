"""Panel local projections: event dummies, fixed-effects regressions per
horizon, and cluster-robust impulse-response bands.

A module's ``__all__`` is the one list of its public names; the package
re-exports those of the library modules below and the simulator's."""

__version__ = "0.1.0"

from . import errors, estimator, events, ingest, lp, panel
from ._heap import hold_freed_heap
from .errors import *
from .estimator import *
from .events import *
from .ingest import *
from .lp import *
from .panel import *

# every run of horizons frees and rebuilds a few MiB of arrays; keep that
# memory mapped, so a process's speed does not depend on what it freed first
hold_freed_heap()

__all__ = [
    "__version__",
    *errors.__all__,
    *panel.__all__,
    *estimator.__all__,
    *events.__all__,
    *lp.__all__,
    *ingest.__all__,
    # simgen, loaded on first use by __getattr__
    "DGPSpec",
    "SimTruth",
    "generate",
]


def __getattr__(name: str):
    # the simulator loads on first use, so importing the package for an
    # estimate run does not pay for it
    if name in ("DGPSpec", "SimTruth", "generate"):
        from . import simgen

        return getattr(simgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
