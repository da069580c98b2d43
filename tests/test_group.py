import ctypes
import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savi.group import GROUP_ORDER, edwards, make_backend
from savi.group.dlog import BabyStepTable, DlogNotFoundError, dlog_bounded
from savi.group.encoding import quantize_vector
from savi.group.generators import derive_generators
from savi.group.multiexp import multiexp, sum_points
from savi.group.scalars import inv, reduce_wide
from savi.rng import DeterministicRng

Q = GROUP_ORDER

BACKENDS = ["mock", "ristretto255"]


@pytest.fixture(params=BACKENDS, scope="module")
def backend(request):
    return make_backend(request.param)


def test_group_order_matches_ristretto255():
    assert Q == 2**252 + 27742317777372353535851937790883648493


def test_basic_arithmetic(backend):
    g = backend.base()
    assert 2 * g + 3 * g == 5 * g
    assert 5 * g - 5 * g == backend.identity()
    assert (Q - 1) * g + g == backend.identity()
    assert 0 * g == backend.identity()


def test_encode_decode_roundtrip(backend):
    g = backend.base()
    for s in [0, 1, 7, Q - 1]:
        p = s * g
        assert backend.decode(p.encode()) == p


def test_derived_generators_distinct(backend):
    two = derive_generators("w", 2, backend)
    assert len({p.encode() for p in two}) == 2


def test_derived_generator_tags_disjoint(backend):
    ws = derive_generators("w", 3, backend)
    qs = derive_generators("q", 3, backend)
    assert not ({p.encode() for p in ws} & {p.encode() for p in qs})


def test_multiexp_all_zero_scalars(backend):
    gs = derive_generators("t", 4, backend)
    assert multiexp(gs, [0, 0, 0, 0]) == backend.identity()


def test_multiexp_single_pair(backend):
    g = backend.base()
    assert multiexp([g], [5]) == 5 * g


def test_multiexp_matches_naive_loop(backend):
    rng = DeterministicRng(b"multiexp-oracle")
    points = [rng.scalar() * backend.base() for _ in range(64)]
    scalars = [rng.scalar() for _ in range(64)]
    naive = backend.identity()
    for p, s in zip(points, scalars):
        naive = naive + s * p
    assert multiexp(points, scalars) == naive


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 256), st.integers(0, 2**32))
def test_multiexp_equals_sequential_fold(n, seed):
    backend = make_backend("mock")
    rng = DeterministicRng(seed)
    points = [rng.scalar() * backend.base() for _ in range(n)]
    scalars = [rng.scalar() for _ in range(n)]
    folded = backend.identity()
    for p, s in zip(points, scalars):
        folded = folded + s * p
    assert multiexp(points, scalars) == folded


@pytest.mark.parametrize(
    "scalars",
    [
        [Q - 1, 1, 0, "r", Q - 1],  # -1 first: the accumulator is still empty
        [1, Q - 1, "r", 0, 1],
        ["r", Q - 1, 1, "r", Q - 1],
        [0, 0, Q - 1, 1, 0],
        [1, 1 + Q, -1, "r", 0],  # scalars reduce before the +-1 test
        [Q - 1, 0],  # only -1 terms: subtracted from the identity
    ],
)
def test_multiexp_plus_minus_one_terms(backend, scalars):
    rng = DeterministicRng(b"multiexp-pm1")
    ident = backend.identity()
    points = [rng.scalar() * backend.base() for _ in scalars] + [ident, ident]
    scalars = [rng.scalar() if s == "r" else s for s in scalars] + [1, Q - 1]
    expected = backend.identity()
    for p, s in zip(points, scalars):
        expected = expected + s * p
    before = backend.counter.snapshot()
    got = multiexp(points, scalars)
    muls = backend.counter.mul - before["mul"]
    assert got == expected
    # only the random scalars on real points cost a multiplication
    assert muls == sum(1 for p, s in zip(points, scalars) if p != ident and 1 < s % Q < Q - 1)


def test_sum_points_empty(backend):
    assert sum_points([], backend=backend) == backend.identity()


def test_encode_decode_bulk_roundtrip():
    rng = DeterministicRng(b"encode-bulk")
    xs = [(int.from_bytes(rng.take(8), "little") / 2**64 - 0.5) * 200.0 for _ in range(10_000)]
    for x, v in zip(xs, quantize_vector(xs, 8, 16)):
        assert abs(v / 2**8 - x) <= 2**-9 + 1e-12


def test_encode_fixed_out_of_range_errors():
    with pytest.raises(ValueError):
        quantize_vector([200.0], 8, 16)  # 200*256 > 2^15
    with pytest.raises(ValueError):
        quantize_vector([0.0, -200.0], 8, 16)


def test_quantize_dequantize_vector():
    xs = [0.25, -1.5, 3.0]
    vs = quantize_vector(xs, 8, 16)
    assert vs == [64, -384, 768]
    back = [v / 2**8 for v in vs]
    assert back == pytest.approx(xs)


def test_dlog_identity_is_zero(backend):
    g = backend.base()
    assert dlog_bounded(backend.identity(), g, 100) == 0


def test_dlog_42_in_2_to_20(backend):
    g = backend.base()
    assert dlog_bounded(42 * g, g, 1 << 20) == 42


def test_dlog_signed_sweep():
    backend = make_backend("mock")
    g = backend.base()
    rng = DeterministicRng(b"dlog-sweep")
    bound = 1 << 20
    table = BabyStepTable.for_bound(g, bound)
    for _ in range(50):
        v = rng.below(2 * bound + 1) - bound
        assert dlog_bounded(v * g, g, bound, table=table) == v


def test_dlog_out_of_bound_raises():
    backend = make_backend("mock")
    g = backend.base()
    with pytest.raises(DlogNotFoundError):
        dlog_bounded(5000 * g, g, 100)


def test_baby_step_table_window():
    backend = make_backend("mock")
    g = backend.base()
    table = BabyStepTable(g, 64)
    assert table.solve(300 * g, 1024) == 300
    assert table.solve(-300 * g, 1024) == -300


def test_dlog_shift_computed_once_per_table():
    # targets inside the window need no giant step; the first one beyond
    # it computes size * g, and later ones reuse it
    backend = make_backend("mock")
    g = backend.base()
    bound = 1 << 12
    table = BabyStepTable.for_bound(g, bound)
    for values, muls in ((range(-25, 25), 0), ((-bound, -1000, 100, 1000, bound), 1)):
        targets = [(v, v * g) for v in values]
        before = backend.counter.mul
        for v, target in targets:
            assert dlog_bounded(target, g, bound, table=table) == v
        assert backend.counter.mul - before == muls


def test_centered_dlog_near_zero_costs_no_additions():
    # three honest sums of 16-bit coordinates: the aggregate's bound;
    # searched from -bound, these solves cost 20,480 additions
    backend = make_backend("mock")
    g = backend.base()
    bound = 3 * ((1 << 15) - 1)
    table = BabyStepTable.for_bound(g, bound)
    targets = [(v, v * g) for v in list(range(-15, 16)) * 133][:4096]
    before = backend.counter.snapshot()
    for v, target in targets:
        assert dlog_bounded(target, g, bound, table=table) == v
    assert backend.counter.add - before["add"] == 0
    assert backend.counter.mul - before["mul"] == 0


@pytest.mark.parametrize(
    "lo, hi", [(-20, 20), (-23, 18), (0, 0), (3, 36), (-36, -3), (-2, 31), (-31, 2), (9, 9)]
)
def test_dlog_window_search_is_exact(lo, hi):
    # a 5-entry table searched over [-bound, bound] with bound = max(-lo,
    # hi): each search spans several giant steps, and most end where a
    # last step holds one entry inside the bound
    backend = make_backend("mock")
    g = backend.base()
    table = BabyStepTable(g, 5)
    bound = max(-lo, hi)
    for e in range(lo - 12, hi + 13):
        if abs(e) <= bound:
            assert table.solve(e * g, bound) == e
        else:
            with pytest.raises(DlogNotFoundError):
                table.solve(e * g, bound)


@pytest.mark.parametrize("bound", range(13))
def test_dlog_symmetric_search_is_exact(bound):
    # a 5-entry table: bounds 0..12 end at every offset of a window of 5
    backend = make_backend("mock")
    g = backend.base()
    table = BabyStepTable(g, 5)
    for e in range(-bound, bound + 1):
        assert table.solve(e * g, bound) == e
    for e in (-bound - 1, bound + 1):
        with pytest.raises(DlogNotFoundError):
            table.solve(e * g, bound)


@pytest.mark.parametrize("bound", [0, 1, 98_301, 327_670])
def test_dlog_bound_edges_and_table_size(backend, bound):
    g = backend.base()
    table = BabyStepTable.for_bound(g, bound)
    assert table.size == len(table._table) == math.isqrt(2 * bound + 1) + 1
    for e in (-bound, bound):
        assert dlog_bounded(e * g, g, bound, table=table) == e
    for e in (-bound - 1, bound + 1):
        with pytest.raises(DlogNotFoundError):
            dlog_bounded(e * g, g, bound, table=table)


def test_dlog_table_for_a_wider_bound_searches_only_the_given_one(backend):
    # a server keeps one table for n clients' updates and searches each
    # round's own bound with it
    g = backend.base()
    bound = 1000
    table = BabyStepTable.for_bound(g, 4 * bound)
    for e in (-bound, -1, 0, 7, bound):
        assert dlog_bounded(e * g, g, bound, table=table) == e
    for e in (-2 * bound, -bound - 1, bound + 1, 3 * bound):
        with pytest.raises(DlogNotFoundError):
            dlog_bounded(e * g, g, bound, table=table)


def test_dlog_giant_step_computed_once_per_table(backend):
    g = backend.base()
    bound = 1000
    targets = [(v, v * g) for v in (bound, -bound, 500, -77, 45)]
    for _ in range(2):
        table = BabyStepTable.for_bound(g, bound)
        before = backend.counter.mul
        for v, target in targets:
            assert table.solve(target, bound) == v
        assert backend.counter.mul - before == 1


# -- extended Edwards coordinates, against libsodium ----------------------


def _hashed_points(backend, count):
    return [backend.from_uniform(hashlib.sha512(b"edwards/%d" % i).digest()) for i in range(count)]


_SODIUM = make_backend("ristretto255")


@settings(max_examples=60, deadline=None)
@given(
    e=st.one_of(
        st.integers(-(2**256), 2**256),
        st.sampled_from([0, 1, GROUP_ORDER - 1, GROUP_ORDER, 2 * GROUP_ORDER, -GROUP_ORDER]),
    )
)
def test_base_point_mul_matches_the_variable_base_call(e):
    # mul_data takes libsodium's fixed-base table for the base point: the
    # bytes must be those of crypto_scalarmult_ristretto255 on it, whose -1
    # for a zero scalar means the identity
    base = _SODIUM.base_data()
    buf = ctypes.create_string_buffer(32)
    scalar = (e % GROUP_ORDER).to_bytes(32, "little")
    ret = _SODIUM._lib.crypto_scalarmult_ristretto255(buf, scalar, base)
    assert ret == (-1 if e % GROUP_ORDER == 0 else 0)
    assert _SODIUM.mul_data(base, e) == (buf.raw if ret == 0 else bytes(32))


def test_edwards_decode_encode_roundtrip():
    sodium = make_backend("ristretto255")
    points = _hashed_points(sodium, 64) + [sodium.identity()]
    for p in points:
        assert edwards.encode(edwards.decode(p.data)) == p.data
    assert edwards.decode(bytes(32)) == (0, 1, 1, 0)


def test_edwards_add_and_neg_match_libsodium():
    sodium = make_backend("ristretto255")
    points = _hashed_points(sodium, 16) + [sodium.identity()]
    pairs = list(zip(points, points[1:] + points[:1])) + [(p, p) for p in points[:4]]
    for p, q in pairs:
        lp, lq = edwards.decode(p.data), edwards.decode(q.data)
        assert edwards.encode(edwards.add(lp, lq)) == (p + q).data
        assert edwards.encode(edwards.add(lp, edwards.neg(lq))) == (p - q).data
        assert edwards.encode(edwards.neg(lq)) == (-q).data


def _same_edwards_point(p, q):
    """Whether two extended points are the same point of edwards25519
    (not just of ristretto255), and each is consistent (XY = ZT)."""
    (x1, y1, z1, t1), (x2, y2, z2, t2) = p, q
    P = edwards.P
    return (
        (x1 * z2 - x2 * z1) % P == 0
        and (y1 * z2 - y2 * z1) % P == 0
        and (x1 * y1 - z1 * t1) % P == 0
        and (x2 * y2 - z2 * t2) % P == 0
    )


_EDWARDS_SCALARS = st.integers(0, Q - 1)


@settings(max_examples=40, deadline=None)
@given(a=_EDWARDS_SCALARS, b=_EDWARDS_SCALARS, c=_EDWARDS_SCALARS, case=st.sampled_from(
    ["random", "identity + q", "p + identity", "double", "inverse"]
))
def test_niels_mixed_addition_equals_extended_addition(a, b, c, case):
    # p is an extended point with Z != 1 (a sum), q a decoded one (Z = 1)
    # in Niels form: p + q and p - q by the mixed addition equal them by
    # the extended one, on random points, with the identity on either
    # side, and on p + p and p + (-p)
    sodium = make_backend("ristretto255")
    g = sodium.base()
    q_point = sodium.identity() if case == "p + identity" else c * g
    q = edwards.decode(q_point.data)
    one = edwards.decode(bytes(32))
    p = {
        "random": edwards.add(edwards.decode((a * g).data), edwards.decode((b * g).data)),
        "identity + q": edwards.add(one, one),  # the identity, with Z = 2
        "p + identity": edwards.add(edwards.decode((a * g).data), one),
        "double": edwards.add(q, one),  # q again, with Z = 2
        "inverse": edwards.add(edwards.neg(q), one),
    }[case]
    assert p[2] != 1
    niels = edwards.niels(q)
    assert _same_edwards_point(edwards.add_niels(p, niels), edwards.add(p, q))
    assert _same_edwards_point(edwards.add_niels(p, niels, True), edwards.add(p, edwards.neg(q)))
    # the Niels form's swap and sign is edwards.neg's negation
    y_plus_x, y_minus_x, xy2d = niels
    assert edwards.niels(edwards.neg(q)) == (y_minus_x, y_plus_x, -xy2d % edwards.P)
    assert edwards.encode(edwards.add_niels(p, niels)) == (
        sodium.decode(edwards.encode(p)) + q_point
    ).data


@pytest.mark.parametrize(
    "s", [edwards.P, edwards.P + 2, 2**255 - 2, 2**256 - 2, 1, 3, edwards.P - 2]
)
def test_edwards_decode_rejects_noncanonical_and_negative(s):
    with pytest.raises(ValueError):
        edwards.decode(s.to_bytes(32, "little"))


def test_edwards_decode_rejects_what_libsodium_rejects():
    sodium = make_backend("ristretto255")
    for s in range(0, 200, 2):
        raw = s.to_bytes(32, "little")
        try:
            sodium.decode(raw)
        except ValueError:
            with pytest.raises(ValueError):
                edwards.decode(raw)
        else:
            assert edwards.encode(edwards.decode(raw)) == raw


def test_scalar_inverse():
    rng = DeterministicRng(b"inv")
    xs = [rng.nonzero_scalar() for _ in range(32)]
    for x in xs:
        assert x * inv(x) % Q == 1


def test_reduce_wide_uniformity_shape():
    # 64-byte wide reduction: value below group order, deterministic
    raw = bytes(range(64))
    v = reduce_wide(raw)
    assert 0 <= v < Q
    assert v == int.from_bytes(raw, "little") % Q


def test_mock_and_ristretto_share_order():
    mock, sodium = make_backend("mock"), make_backend("ristretto255")
    # same scalar field on both backends keeps protocol logic identical
    assert (Q + 5) * mock.base() == 5 * mock.base()
    assert (Q + 5) * sodium.base() == 5 * sodium.base()
