"""Kernel worker threads.

Every kernel has one numpy/scipy implementation, tested against an
independent oracle. The global ``--threads N`` option sets a bound on kernel
worker threads (``set_thread_bound``); ``worker_count`` applies it, capped at
the usable CPUs. Non-local means is the kernel that honours it.

The benchmark's environment record reads ``selected()``, which is always
"numpy", and the flag below, which is always False.
"""

from __future__ import annotations

import os

HAVE_NUMBA = False

_thread_bound: int | None = None


def set_thread_bound(n: int | None) -> None:
    """Bound the kernel worker threads at ``n`` (at least 1); None lifts it."""
    global _thread_bound
    _thread_bound = None if n is None else max(1, int(n))


def worker_count(parts: int) -> int:
    """Workers for a kernel split into ``parts`` pieces: the thread bound,
    capped at the usable CPUs and at ``parts``, and at least 1."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platforms without CPU affinity
        cpus = os.cpu_count() or 1
    bound = cpus if _thread_bound is None else min(_thread_bound, cpus)
    return max(1, min(bound, parts))


def selected() -> str:
    """The kernel backend name recorded in benchmark environments."""
    return "numpy"
