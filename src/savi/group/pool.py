"""One process-wide thread pool for a party's long runs of independent
group operations.

ctypes releases the interpreter lock for the length of each libsodium
call, so threads overlap the scalar multiplications and additions that
make up most of a round.  Every batch of linear combinations, the
commitment's table lookups among them, is one run of ``multiexps``, so
a prover's many short rows are cut as one long row is; generator
derivation is the only other run.  ``map_chunks`` cuts a run into one
slice per core, hands all slices but the first to the pool and runs
the first in the caller.  It runs the whole run in the caller when the
backend's operations hold the interpreter lock (the mock group), when
a slice would hold fewer than ``MIN_CHUNK`` items, when the process may
use one core only, and when the caller is itself a pool thread (so
pool work never waits on pool work).  Results come back in order and every operation is counted
by the thread that does it (``OpCounter``), so nothing a caller
computes or counts depends on scheduling.

The pool has one thread per core but one, and is created the first
time a run is split.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .base import GroupBackend

T = TypeVar("T")
R = TypeVar("R")

# The fewest items worth a slice: handing one to another thread costs
# tens of microseconds, a libsodium mul about 50 and an addition 17.
MIN_CHUNK = 16

CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_in_pool = threading.local()


def _mark_pool_thread() -> None:
    _in_pool.active = True


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                CORES - 1, thread_name_prefix="savi-pool", initializer=_mark_pool_thread
            )
        return _pool


def map_chunks(
    fn: Callable[[Sequence[T]], list[R]], items: Sequence[T], backend: GroupBackend
) -> list[R]:
    """``fn`` over consecutive slices of ``items``, the lists it returns
    concatenated in order; ``fn``'s group operations are ``backend``'s.

    Called on all of ``items`` at once, ``fn`` must give the same list,
    so a caller's result never depends on how the run was cut.
    """
    slices = min(CORES, len(items) // MIN_CHUNK)
    if not backend.releases_gil or slices <= 1 or getattr(_in_pool, "active", False):
        return fn(items)
    cuts = [len(items) * i // slices for i in range(slices + 1)]
    pool = _executor()
    futures = [pool.submit(fn, items[a:b]) for a, b in zip(cuts[1:-1], cuts[2:])]
    try:
        out = fn(items[: cuts[1]])
    finally:
        # wait for every slice, even when the caller's own slice raised
        rest = [future.result() for future in futures]
    for part in rest:
        out += part
    return out
