"""Process-wide parallelism for a party's long runs of group operations:
threads for libsodium runs, processes for the server's ``h``.

Threads.  ctypes releases the interpreter lock for the length of each
libsodium call, so threads overlap the scalar multiplications and
additions that make up most of a round.  Every batch of linear
combinations, the commitment's table lookups among them, is one run of
``multiexps``, so a prover's many short rows are cut as one long row is;
generator derivation is the only other run.  ``map_chunks`` cuts a run
into one slice per core, hands all slices but the first to the pool and
runs the first in the caller.  It runs the whole run in the caller when
the backend's operations hold the interpreter lock (the mock group),
when a slice would hold fewer than ``MIN_CHUNK`` items, when the process
may use one core only, and when the caller is itself a pool thread (so
pool work never waits on pool work).  Results come back in order and
every operation is counted by the thread that does it (``OpCounter``),
so nothing a caller computes or counts depends on scheduling.  The pool
has one thread per core but one, and is created the first time a run is
split.

Processes.  Pure-Python arithmetic holds the interpreter lock, so
threads cannot share the additions of the server's ``h``
(``bucket_multiexp`` over the lifted bases).  ``map_forked`` sends all
slices of such a run but the caller's to ``CORES - 1`` worker
processes.  They are forked the first time a run is worth splitting,
after the state they work on exists, so they inherit it and only the
slices and their answers cross a pipe.  A run on other state replaces
them, so no more than ``CORES - 1`` are ever alive, and they are shut
down at exit.  The process that forks them already runs threads, so a
worker touches Python arithmetic only: no libsodium, no lock, no
thread.  Both backends take the same path, and the work a worker does
comes back in its answer for the caller to count.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .base import GroupBackend

T = TypeVar("T")
R = TypeVar("R")
S = TypeVar("S")
F = TypeVar("F")

# The fewest items worth a slice: handing one to another thread costs
# tens of microseconds, a libsodium mul 78-101 and an addition 22-24.
MIN_CHUNK = 16

# The fewest terms worth a worker process's slice: a slice and its
# answer cross a pipe in about a tenth of a millisecond, and each term
# of h's rows costs a Python addition or more, about 5 microseconds.
MIN_FORKED_TERMS = 256

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


class _Worker:
    """A forked process that answers ``fn(state, items)`` for each list
    of items it is sent."""

    def __init__(self, fn: Callable, state: object, older: list["_Worker"]) -> None:
        context = multiprocessing.get_context("fork")
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=_serve,
            args=(child, fn, state, [self.conn] + [w.conn for w in older]),
            name="savi-worker",
            daemon=True,
        )
        self.process.start()
        child.close()


def _serve(conn, fn: Callable, state: object, inherited: list) -> None:
    """A worker's loop, until the parent closes its end of the pipe."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles an interrupt
    for other in inherited:
        other.close()  # the parent's ends, so each worker sees its parent close
    while True:
        try:
            items = conn.recv()
        except (EOFError, OSError):
            return
        try:
            reply = (True, fn(state, items))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except (EOFError, OSError):
            return


_workers: list[_Worker] = []
_workers_run: tuple = ()  # the (fn, state) the live workers were forked with
_workers_lock = threading.Lock()


def _forked(fn: Callable, state: object) -> list[_Worker]:
    """``CORES - 1`` live workers forked with (fn, state), forked now
    unless the live ones were."""
    global _workers_run
    if (
        _workers_run
        and _workers_run[0] is fn
        and _workers_run[1] is state
        and len(_workers) == CORES - 1
        and all(w.process.is_alive() for w in _workers)
    ):
        return _workers
    shutdown_workers()
    for _ in range(CORES - 1):
        _workers.append(_Worker(fn, state, _workers))
    _workers_run = (fn, state)
    return _workers


def shutdown_workers() -> None:
    """Stop the worker processes; the next split run forks new ones."""
    global _workers_run
    _workers_run = ()
    for worker in _workers:
        worker.conn.close()  # the worker reads the end of its pipe and exits
    for worker in _workers:
        worker.process.join(timeout=5)
        if worker.process.is_alive():  # still busy on a slice nobody will read
            worker.process.terminate()
            worker.process.join()
    _workers.clear()


atexit.register(shutdown_workers)


def _collect(workers: list[_Worker]) -> list:
    """Each worker's answer to the slice it was sent, in order; raises
    the first failure once every worker has answered."""
    replies = []
    try:
        for worker in workers:
            replies.append(worker.conn.recv())
    except BaseException:  # a worker died, or the caller was interrupted
        shutdown_workers()  # so no later run reads a stale answer
        raise
    for ok, value in replies:
        if not ok:
            raise value
    return [value for _, value in replies]


def map_forked(
    fn: Callable[[S, Sequence[T]], list[R]],
    state: S,
    items: Sequence[T],
    weight: int,
    first: Callable[[], F],
) -> tuple[F, list[R]]:
    """(``first()``, ``fn(state, items)``), ``fn`` run over consecutive
    slices of ``items`` and the lists it returns concatenated in order.

    All slices but the first go to the worker processes, sent before
    the caller runs ``first()`` (its own work, such as a libsodium run)
    and then the first slice, so no core waits.  The workers are forked
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
        workers = _forked(fn, state)
        cuts = [len(items) * i // slices for i in range(slices + 1)]
        sent = []
        try:
            for worker, a, b in zip(workers, cuts[1:-1], cuts[2:]):
                worker.conn.send(items[a:b])
                sent.append(worker)
            head = first()
            out = fn(state, items[: cuts[1]])
        finally:
            # wait for every slice, even when the caller's own work raised
            rest = _collect(sent)
        for part in rest:
            out += part
        return head, out
    finally:
        _workers_lock.release()
