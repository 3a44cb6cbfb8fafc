"""Fixed glibc heap thresholds for the per-run allocation pattern.

Each run of equal-sample horizons in :func:`panellp.lp.estimate_irf`
gathers its design into an n-row block and fits it, and each call builds
its study from a few dozen entity x period grids, a few MiB in all; both
are freed before the next run or call starts.  With glibc's defaults,
blocks over 128 KiB are served by ``mmap`` and the freed top of the heap
is handed back to the kernel, so the next run faults the same pages in
again.  glibc raises both thresholds whenever a process frees a large
mapped block, which makes a process's mode depend on the sizes of the
arrays it happens to free first: two processes of the same workload
settle one in the refaulting mode and the other not, and their op times
differ by about a fifth.

:func:`hold_freed_heap` fixes the thresholds at the ceiling glibc's own
rule can reach on 64-bit builds (32 MiB for ``mmap``, twice that for the
trim), so every process keeps its freed heap from the first run on.  It
leaves the allocator alone off glibc and when the environment already
tunes it (``GLIBC_TUNABLES`` or a ``MALLOC_*_`` variable).
"""

from __future__ import annotations

import ctypes
import os
import sys

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def hold_freed_heap() -> bool:
    """Set glibc's mmap and trim thresholds; True if both were set."""
    if not sys.platform.startswith("linux"):
        return False
    if "GLIBC_TUNABLES" in os.environ or any(
        k.startswith("MALLOC_") and k.endswith("_") for k in os.environ
    ):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not a glibc process
        return False
    # the trim threshold first: setting either one ends glibc's adaptive rule
    return bool(
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
        and mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    )
