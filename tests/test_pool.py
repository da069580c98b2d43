"""The process-wide pool: a multiexp or a batch of them cut into slices
equals the serial loop, point and op counts alike, and op counts
survive threads; h's rows cut over worker processes equal h in the
caller, and the workers live and die as the pool module says."""

import dataclasses
import importlib
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from savi.commit import commit_update
from savi.group import GROUP_ORDER, GeneratorSet, MockBackend, derive_generators, make_backend, pool
from savi.group.multiexp import multiexp, multiexps
from savi.harness import Simulation, desk_preset, run_simulation
from savi.harness.attacks import AttackSpec
from savi.rng import DeterministicRng
from savi.group.generators import LAMBDA
from savi.protocol.server import compute_h
from savi.sampling import SampleMatrix
from savi.zkp import Transcript, gen_prf_wf
from sigma_reference import make_link, wf_holds

Q = GROUP_ORDER

# the module: the package attribute savi.group.multiexp is the function
multiexp_module = importlib.import_module("savi.group.multiexp")

# the fewest terms that a multiexp cuts into slices
SPLIT = 2 * pool.MIN_CHUNK


@pytest.fixture(params=["mock", "ristretto255"], scope="module")
def backend(request):
    return make_backend(request.param)


@pytest.fixture()
def three_cores(monkeypatch):
    """Cut runs into slices for three cores, whatever this machine has,
    on the mock group too."""
    monkeypatch.setattr(pool, "CORES", 3)
    monkeypatch.setattr(MockBackend, "releases_gil", True)


@pytest.fixture()
def slice_sizes(monkeypatch):
    """The lengths of the slices each multiexp ran, in order."""
    sizes = []
    partial_sum = multiexp_module._partial_sum
    lock = threading.Lock()

    def recorded(backend, terms):
        with lock:
            sizes.append(len(terms))
        return partial_sum(backend, terms)

    monkeypatch.setattr(multiexp_module, "_partial_sum", recorded)
    return sizes


@pytest.fixture()
def worker_slices(monkeypatch):
    """For each run split over worker processes, the number of items
    each worker answered."""
    runs = []
    split = pool._split

    def recorded(executor, fn, items, slices, first):
        if not isinstance(executor, ProcessPoolExecutor):
            return split(executor, fn, items, slices, first)
        futures = []

        def submit(fn, part):  # the process pool's, keeping each slice's future
            futures.append(executor.submit(fn, part))
            return futures[-1]

        out = split(SimpleNamespace(submit=submit), fn, items, slices, first)
        runs.append([len(future.result()) for future in futures])
        return out

    monkeypatch.setattr(pool, "_split", recorded)
    return runs


def _workers_alive():
    # the pool's worker processes are this process's only children
    return multiprocessing.active_children()


def _terms(backend, size, label):
    """Random terms with every special case in them: scalars 0, 1 and
    order - 1, an unreduced scalar, and identity points."""
    rng = DeterministicRng(label)
    ident = backend.identity()
    points, scalars = [], []
    for i in range(size):
        points.append(ident if i % 7 == 3 else rng.scalar() * backend.base())
        scalars.append((0, 1, Q - 1, rng.scalar(), Q + 1, -1)[i % 6] if i % 2 else rng.scalar())
    return points, scalars


def _serial(backend, points, scalars):
    """(sum of the terms, muls, adds) by the serial loop and formula."""
    ident = backend.identity()
    expected = backend.identity()
    npos = nneg = muls = 0
    for p, s in zip(points, scalars):
        expected = expected + s * p
        s %= Q
        if s == 0 or p == ident:
            continue
        if s == Q - 1:
            nneg += 1
        else:
            npos += 1
            muls += s != 1
    return expected, muls, max(npos - 1, 0) + nneg


def _ops(backend, fn):
    """(fn's result, the muls and adds it counted)."""
    before = backend.counter.snapshot()
    got = fn()
    after = backend.counter.snapshot()
    return got, after["mul"] - before["mul"], after["add"] - before["add"]


def _check_against_serial(backend, points, scalars):
    """multiexp's point and op counts against the serial formula."""
    expected = _serial(backend, points, scalars)
    assert _ops(backend, lambda: multiexp(points, scalars, backend=backend)) == expected


@pytest.mark.parametrize(
    "size, slices",
    [
        (SPLIT - 1, [SPLIT - 1]),
        (SPLIT, [SPLIT // 2] * 2),
        (SPLIT + 1, [SPLIT // 2, SPLIT // 2 + 1]),
        # three slices of 16, 17 and 17: three does not divide 50
        (3 * pool.MIN_CHUNK + 2, [16, 17, 17]),
        # one slice per core at most
        (12 * pool.MIN_CHUNK + 5, [65, 66, 66]),
    ],
)
def test_sliced_multiexp_equals_serial_loop(backend, three_cores, slice_sizes, size, slices):
    points, scalars = _terms(backend, size, b"pool-multiexp-%d" % size)
    _check_against_serial(backend, points, scalars)
    assert sorted(slice_sizes) == sorted(slices)


@pytest.mark.parametrize("first", ["identity", "point"])
def test_all_negated_multiexp_equals_serial_loop(backend, three_cores, slice_sizes, first):
    # every term is subtracted, after the slices are summed, from the
    # identity; an identity point among them is skipped
    points, _ = _terms(backend, 3 * pool.MIN_CHUNK, b"pool-negated")
    points[0] = backend.identity() if first == "identity" else backend.base()
    _check_against_serial(backend, points, [Q - 1] * len(points))
    assert len(slice_sizes) == 3


def _row(backend, size, kind, label):
    """A row of ``size`` terms: "mixed" as ``_terms``, or all -1
    ("negated", the first point the identity when "from-identity")."""
    points, scalars = _terms(backend, size, label)
    if kind != "mixed":
        scalars = [Q - 1] * size
        if kind == "from-identity" and size:
            points[0] = backend.identity()
    return list(zip(points, scalars))


@pytest.mark.parametrize(
    "spec, slices",
    [
        # a run holds the terms and one row end between each two rows:
        # 50 + 5 items cut 18 | 18 | 19, so the 19-term row spans the
        # first cut and the 13-term row the second
        ([(7, "mixed"), (0, "mixed"), (19, "mixed"), (1, "mixed"), (13, "mixed"), (10, "mixed")],
         [18, 18, 19]),
        # rows of -1 only, each spanning a cut of 16 | 17 | 17
        ([(20, "negated"), (20, "from-identity"), (8, "mixed")], [16, 17, 17]),
        # the prover's shape: many two-term rows, more rows than slices
        ([(2, "mixed")] * 40, [39, 40, 40]),
        # empty rows around one row, too short together to cut
        ([(0, "mixed"), (SPLIT - 3, "mixed"), (0, "negated")], [SPLIT - 1]),
        # no row at all: nothing runs
        ([], []),
    ],
)
def test_sliced_multiexps_equals_per_row_serial_loop(
    backend, three_cores, slice_sizes, spec, slices
):
    rows = [
        _row(backend, size, kind, b"pool-rows-%d-%d" % (j, size))
        for j, (size, kind) in enumerate(spec)
    ]
    expected = [
        _serial(backend, [p for p, _ in row], [s for _, s in row]) for row in rows
    ]
    got, muls, adds = _ops(backend, lambda: multiexps(rows, backend))
    assert got == [point for point, _, _ in expected]
    assert muls == sum(m for _, m, _ in expected)
    assert adds == sum(a for _, _, a in expected)
    assert sorted(slice_sizes) == sorted(slices)


def test_well_formedness_prover_cuts_its_announcements_across_cores(three_cores, slice_sizes):
    # the k + 2 announcements of k = 32 run as one batch and the link's
    # announcement over LAMBDA generators as a second, each cut into
    # slices of at least MIN_CHUNK terms; as one two-term multiexp each,
    # the 2k + 2 announcements of savi/v7 made 65 runs that were too
    # short to cut
    backend = make_backend("mock")
    k = 32
    g = backend.base()
    q, *h = derive_generators("pool-wf", k + 2, backend)
    rng = DeterministicRng(b"pool-wf")
    r = rng.scalar()
    v = [rng.scalar() for _ in range(k + 1)]
    e = [v[i] * g + r * h[i] for i in range(k + 1)]
    link, sigma = make_link(rng, derive_generators("pool-link", LAMBDA, backend), q, v[1:])
    slice_sizes.clear()
    proof = gen_prf_wf(g, q, h, r * g, e, link, r, v, sigma, rng, Transcript("pool-wf"))
    assert 0 < len(slice_sizes) <= 3 * pool.CORES
    assert min(slice_sizes) >= pool.MIN_CHUNK
    assert wf_holds(g, q, h, r * g, e, link, proof, Transcript("pool-wf"))


# coordinates at the edges of g's radix-256 digits
_DIGIT_EDGES = [0, 1, -1, 255, -255, 256, -256, 65_535, -65_535]


def test_sliced_commit_equals_per_coordinate_serial_commit(backend, three_cores, slice_sizes):
    # each coordinate is a row of r w_l and its table entries; rows span
    # the cuts, and each still costs one mul and one addition per
    # nonzero digit of |u_l|
    d = 72
    gens = GeneratorSet.derive(backend, d, 1)
    u = [_DIGIT_EDGES[l % len(_DIGIT_EDGES)] for l in range(d)]
    r = DeterministicRng(b"pool-commit").scalar()
    expected = [(u_l % Q) * gens.g + r * w_l for u_l, w_l in zip(u, gens.w)]
    gens.g_multiples.digits(65_535)  # build levels 0 and 1 outside the count
    got, muls, adds = _ops(backend, lambda: commit_update(u, r, gens))
    assert got == expected
    assert muls == d
    assert adds == sum((abs(x) & 255 != 0) + (abs(x) >> 8 != 0) for x in u)
    assert len(slice_sizes) == pool.CORES


def test_only_the_multiexp_and_generators_modules_cut_runs():
    # every batch of group operations but generator derivation goes
    # through multiexps, so how a run is cut across cores is decided in
    # one place
    holders = {
        name
        for name, module in list(sys.modules.items())
        if name.startswith("savi") and getattr(module, "map_chunks", None) is pool.map_chunks
    }
    assert holders == {"savi.group.pool", "savi.group.multiexp", "savi.group.generators"}


def test_a_failing_slice_raises_in_the_caller(three_cores):
    # the caller runs the first slice and the pool the others: a failure
    # in either reaches the caller
    backend = make_backend("ristretto255")
    items = list(range(3 * pool.MIN_CHUNK))

    def fail_on(bad):
        def fn(part):
            if bad in part:
                raise ValueError(f"slice with {bad}")
            return [x * 2 for x in part]

        return fn

    for bad in (0, len(items) - 1):
        with pytest.raises(ValueError, match=f"slice with {bad}"):
            pool.map_chunks(fail_on(bad), items, backend)
    assert pool.map_chunks(fail_on(-1), items, backend) == [x * 2 for x in items]


def test_a_failing_slice_raises_once_every_slice_has_finished(three_cores):
    # the second slice fails at once while the third still runs: the
    # caller sees the failure only after the third has finished
    backend = make_backend("ristretto255")
    items = list(range(3 * pool.MIN_CHUNK))
    finished = []

    def fn(part):
        if part[0] == pool.MIN_CHUNK:
            raise ValueError("second slice")
        if part[0] == 2 * pool.MIN_CHUNK:
            time.sleep(0.3)
        finished.append(part[0])
        return part

    with pytest.raises(ValueError, match="second slice"):
        pool.map_chunks(fn, items, backend)
    assert sorted(finished) == [0, 2 * pool.MIN_CHUNK]


def test_counter_counts_every_thread_exactly():
    backend = make_backend("mock")
    p = backend.base()
    start = threading.Barrier(4)

    def work():
        start.wait()
        for i in range(5_000):
            backend.mul_data(p.data, i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert backend.counter.mul == 20_000
    assert backend.counter.snapshot() == {"mul": 20_000, "add": 0, "from_hash": 0}


def test_round_is_the_same_at_one_and_three_workers(three_cores, worker_slices):
    # d = 64 cuts commitments, unblindings and the aggregate's additions
    # into slices, and h's k = 16 rows of 64 terms over the worker
    # processes; client 4 is rejected, so verdicts are not all "honest"
    config = desk_preset(
        n=6, m=1, d=64, k=16, epsilon_log2=-16, M=16, seed=5, rounds=2,
        attack=AttackSpec(kind="oversized_norm", scale=40.0, malicious_ids=(4,)),
    )
    serial = run_simulation(config)
    threaded = run_simulation(dataclasses.replace(config, workers=3))
    for a, b in zip(serial, threaded, strict=True):
        assert a.group_ops == b.group_ops
        assert a.bytes_sent == b.bytes_sent
        assert (a.honest, a.excluded, a.proof_reasons) == (b.honest, b.excluded, b.proof_reasons)
        assert a.aggregate == b.aggregate
    assert 4 in serial[0].excluded and serial[0].aggregate_ok
    # every round's h was cut into 5 + 5 + 6 rows: both workers answered
    assert worker_slices == [[5, 6]] * 4


# -- h's rows on worker processes ---------------------------------------------


def _h_matrix(d, k, label):
    """A matrix of k rows of small signed entries (the second row all
    zero) and a full-width a_0."""
    rng = DeterministicRng(label)
    rows = np.array(
        [[0 if j == 1 else rng.below(4097) - 2048 for _ in range(d)] for j in range(k)],
        dtype=np.int64,
    ).reshape(k, d)
    return SampleMatrix(seed=label, M=1, a0=tuple(rng.scalar() for _ in range(d)), rows=rows)


@pytest.mark.parametrize("k, split", [(1, []), (2, [[1]]), (5, [[2, 2]])])
def test_split_h_equals_h_in_the_caller(
    backend, gens_factory, monkeypatch, three_cores, worker_slices, k, split
):
    # one row runs in the caller; two, fewer than the cores, make two
    # slices; five cut 1 + 2 + 2 over three cores
    gens = gens_factory(backend.name, 256, 1)
    matrix = _h_matrix(256, k, b"pool-h-%d" % k)
    split_h, muls, adds = _ops(gens.backend, lambda: compute_h(matrix, gens))
    assert worker_slices == split
    monkeypatch.setattr(pool, "CORES", 1)
    assert _ops(gens.backend, lambda: compute_h(matrix, gens)) == (split_h, muls, adds)
    assert worker_slices == split  # nothing was cut on one core
    if k > 1:
        assert split_h[2] == gens.backend.identity()  # the zero row


def test_a_new_generator_set_replaces_the_workers(three_cores):
    first = GeneratorSet.derive(make_backend("mock"), 256, 1)
    second = GeneratorSet.derive(make_backend("mock"), 256, 1)
    matrix = _h_matrix(256, 6, b"pool-replace")
    compute_h(matrix, first)
    before = {p.pid for p in _workers_alive()}
    assert len(before) == pool.CORES - 1
    compute_h(matrix, second)
    after = {p.pid for p in _workers_alive()}
    assert len(after) == pool.CORES - 1 and not before & after


def test_simulation_set_up_forks_nothing():
    pool.shutdown_workers()
    Simulation(desk_preset(n=3, m=1, d=256, k=32, seed=1))
    assert multiprocessing.active_children() == []


def test_a_failing_worker_raises_in_the_caller(three_cores, monkeypatch):
    # the bad entry is in the last row, which a worker runs; the workers
    # answer the next h as before
    gens = GeneratorSet.derive(make_backend("mock"), 256, 1)
    matrix = _h_matrix(256, 6, b"pool-bad-row")
    bad_rows = matrix.rows.astype(object)
    bad_rows[-1, 7] = "not a scalar"
    with pytest.raises(TypeError):
        compute_h(dataclasses.replace(matrix, rows=bad_rows), gens)
    assert len(_workers_alive()) == pool.CORES - 1
    split_h = compute_h(matrix, gens)
    monkeypatch.setattr(pool, "CORES", 1)
    assert compute_h(matrix, gens) == split_h


def test_a_dead_worker_is_replaced(three_cores, monkeypatch):
    # a worker killed between two runs is replaced, and the next h is
    # the one-core h
    gens = GeneratorSet.derive(make_backend("mock"), 256, 1)
    matrix = _h_matrix(256, 6, b"pool-dead-worker")
    compute_h(matrix, gens)
    victim = _workers_alive()[0]
    os.kill(victim.pid, signal.SIGKILL)
    deadline = time.monotonic() + 5
    while victim.is_alive() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not victim.is_alive()
    split_h = compute_h(matrix, gens)
    alive = {p.pid for p in _workers_alive()}
    assert len(alive) == pool.CORES - 1 and victim.pid not in alive
    monkeypatch.setattr(pool, "CORES", 1)
    assert compute_h(matrix, gens) == split_h


_SPLIT_ROUND = """
import multiprocessing, sys
from savi.group import pool
from savi.harness import Simulation, desk_preset
pool.CORES = 3
sim = Simulation(desk_preset(n=3, m=1, d=64, k=16, seed=1, backend="ristretto255"))
assert sim.run_round(1).aggregate_ok
print(" ".join(str(p.pid) for p in multiprocessing.active_children()))
"""


def test_a_process_that_split_h_exits_cleanly():
    # the workers are shut down at exit: the run's exit code is 0, it
    # writes nothing to stderr, and its workers are gone
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run(
        [sys.executable, "-c", _SPLIT_ROUND], capture_output=True, text=True, env=env, timeout=300
    )
    assert (run.returncode, run.stderr) == (0, "")
    pids = [int(pid) for pid in run.stdout.split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 5
    while pids and time.monotonic() < deadline:
        pids = [pid for pid in pids if _alive(pid)]
        time.sleep(0.1)
    assert pids == []


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True
