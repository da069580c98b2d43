"""Process-wide parallelism for a party's long runs of group operations:
threads for libsodium runs, processes for the server's ``h``.

One routine runs every split run on a ``concurrent.futures`` executor:
it cuts the run into slices, submits all slices but the first, runs the
caller's own work and the first slice in the caller, waits for every
slice and concatenates the results in order.  A failure, the caller's
or a slice's, is raised once every slice has finished, so no slice
still runs, and counts operations, when the caller sees it.

Threads.  ctypes releases the interpreter lock for the length of each
libsodium call, so threads overlap the scalar multiplications and
additions that make up most of a round.  Every batch of linear
combinations, the commitment's table lookups among them, is one run of
``multiexps``, so a prover's many short rows are cut as one long row is;
generator derivation is the only other run.  ``map_chunks`` cuts a run
into one slice per core on a thread pool.  It runs the whole run in the
caller when the backend's operations hold the interpreter lock (the
mock group), when a slice would hold fewer than ``MIN_CHUNK`` items,
when the process may use one core only, and when the caller is itself a
pool thread (so pool work never waits on pool work).  Every operation
is counted by the thread that does it (``OpCounter``), so nothing a
caller computes or counts depends on scheduling.  The pool has one
thread per core but one, and is created the first time a run is split.

Processes.  Pure-Python arithmetic holds the interpreter lock, so
threads cannot share the additions of the server's ``h``
(``bucket_multiexp`` over the lifted bases).  ``map_forked`` cuts such a
run over a ``ProcessPoolExecutor`` of ``CORES - 1`` forked workers.
They are forked the first time a run is worth splitting, after the
state they work on exists, so they inherit it and only the slices and
their answers are pickled.  A run on other state, or a pool that lost a
worker, shuts them down and forks new ones, so no more than
``CORES - 1`` are ever alive; the executor joins them at exit.  The
process that forks them already runs threads, so a worker touches
Python arithmetic only: no libsodium, no lock, no thread.  Both
backends take the same path, and the work a worker does comes back in
its answer for the caller to count.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor, wait
from typing import Callable, Sequence, TypeVar

from .base import GroupBackend

T = TypeVar("T")
R = TypeVar("R")
S = TypeVar("S")
F = TypeVar("F")

# The fewest items worth a slice: handing one to another thread costs
# 26-40 microseconds, a libsodium mul 63-98 and an addition 19-23
# (shared 2-vCPU VM).
MIN_CHUNK = 16

# The fewest terms worth a worker process's slice: a slice and its
# answer pass through the executor's queues in 0.33-0.38 ms (a two-item
# run), and each term of h's rows costs a Python addition or more, 4-7
# microseconds, so the smallest slice holds 1.1-1.8 ms of work.
MIN_FORKED_TERMS = 256

CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _split(
    executor: Executor,
    fn: Callable[[Sequence[T]], list[R]],
    items: Sequence[T],
    slices: int,
    first: Callable[[], F],
) -> tuple[F, list[R]]:
    """(``first()``, ``fn(items)``), ``fn`` run over ``slices``
    consecutive slices of ``items`` and the lists it returns concatenated
    in order.

    All slices but the first go to ``executor`` before the caller runs
    ``first()`` (its own work, such as a libsodium run) and then the
    first slice, so no core waits.
    """
    cuts = [len(items) * i // slices for i in range(slices + 1)]
    futures = []
    try:
        for a, b in zip(cuts[1:-1], cuts[2:]):
            futures.append(executor.submit(fn, items[a:b]))
        head = first()
        out = fn(items[: cuts[1]])
    finally:
        wait(futures)  # every slice finishes, even when the caller's own work raised
    for future in futures:
        out += future.result()
    return head, out


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
    return _split(_executor(), fn, items, slices, lambda: None)[1]


_workers: ProcessPoolExecutor | None = None
_run: tuple = ()  # the (fn, state) the workers were forked with, and inherited
_workers_lock = threading.Lock()


def _ignore_interrupt() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles an interrupt


def _run_slice(items: Sequence) -> list:
    """``fn(state, items)`` for the run's (fn, state), in the caller or
    in a worker that inherited them."""
    fn, state = _run
    return fn(state, items)


def _intact(workers: ProcessPoolExecutor) -> bool:
    """Whether every worker is alive: the executor breaks when one dies
    and refuses the next run.  It has no public test of either."""
    return not workers._broken and all(p.is_alive() for p in workers._processes.values())


def _forked(fn: Callable, state: object) -> ProcessPoolExecutor:
    """The workers for (fn, state), forked anew unless the live ones
    were forked with the same two objects and are intact."""
    global _workers, _run
    if _workers is not None and _run[0] is fn and _run[1] is state and _intact(_workers):
        return _workers
    shutdown_workers()
    _run = (fn, state)
    _workers = ProcessPoolExecutor(
        CORES - 1, mp_context=multiprocessing.get_context("fork"), initializer=_ignore_interrupt
    )
    return _workers


def shutdown_workers() -> None:
    """Stop the worker processes; the next split run forks new ones."""
    global _workers, _run
    if _workers is not None:
        _workers.shutdown()
    _workers, _run = None, ()


def map_forked(
    fn: Callable[[S, Sequence[T]], list[R]],
    state: S,
    items: Sequence[T],
    weight: int,
    first: Callable[[], F],
) -> tuple[F, list[R]]:
    """(``first()``, ``fn(state, items)``), ``fn`` run over consecutive
    slices of ``items`` and the lists it returns concatenated in order.

    All slices but the first go to the worker processes, and the caller
    runs ``first()`` and then the first slice.  The workers are forked
    with ``fn`` and ``state`` and serve later runs that bring the same
    two objects; another ``state`` forks them again.  ``fn`` must run
    Python arithmetic only and, called on all of ``items`` at once, give
    the same list.

    ``weight`` is the terms an item holds.  The whole run stays in the
    caller when a slice would hold fewer than ``MIN_FORKED_TERMS``
    terms, when the process may use one core only, and while another
    thread's run holds the workers.
    """
    slices = min(CORES, len(items), len(items) * weight // MIN_FORKED_TERMS)
    if slices <= 1 or not _workers_lock.acquire(blocking=False):
        return first(), fn(state, items)
    try:
        return _split(_forked(fn, state), _run_slice, items, slices, first)
    finally:
        _workers_lock.release()
