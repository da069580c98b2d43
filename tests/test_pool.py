"""The process-wide pool: a multiexp cut into slices equals the serial
loop, point and op counts alike, and op counts survive threads."""

import dataclasses
import importlib
import sys
import threading

import pytest

from savi.group import GROUP_ORDER, MockBackend, make_backend, pool
from savi.group.multiexp import multiexp
from savi.harness import desk_preset, run_simulation
from savi.harness.attacks import AttackSpec
from savi.rng import DeterministicRng

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


def _check_against_serial(backend, points, scalars):
    """multiexp's point and op counts against the serial formula."""
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
    before = backend.counter.snapshot()
    got = multiexp(points, scalars, backend=backend)
    after = backend.counter.snapshot()
    assert got == expected
    assert after["mul"] - before["mul"] == muls
    assert after["add"] - before["add"] == max(npos - 1, 0) + nneg


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


def test_round_is_the_same_at_one_and_three_workers(three_cores):
    # d = 64 cuts commitments, unblindings and the aggregate's additions
    # into slices; client 4 is rejected, so verdicts are not all "honest"
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
