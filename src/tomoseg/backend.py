"""Kernel backend selection.

Four kernels ship in two implementations, a numba @njit loop and a
hand-written numpy version, each the other's oracle: watershed flooding,
regional minima, grayscale reconstruction and non-local means. The
environment variable TOMOSEG_BACKEND forces one of "numba" or "numpy" for
those four; when unset, numba is used if it imports. Every other kernel has
one numpy/scipy implementation, tested against a brute-force oracle.

The global ``--threads N`` option sets a bound on kernel worker threads
(``set_thread_bound``); ``worker_count`` applies it, capped at the usable
CPUs. Non-local means on the numpy path is the kernel that honours it.
"""

from __future__ import annotations

import os

try:
    from numba import njit  # noqa: F401

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(func):
            return func

        if args and callable(args[0]):
            return args[0]
        return wrap


ENV_VAR = "TOMOSEG_BACKEND"

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
    """Return the active backend name, "numba" or "numpy"."""
    choice = os.environ.get(ENV_VAR, "").strip().lower()
    if choice == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError(f"{ENV_VAR}=numba but numba is not importable")
        return "numba"
    if choice == "numpy":
        return "numpy"
    if choice:
        raise ValueError(f"unknown {ENV_VAR} value {choice!r}; use 'numba' or 'numpy'")
    return "numba" if HAVE_NUMBA else "numpy"


def use_numba() -> bool:
    return selected() == "numba"
