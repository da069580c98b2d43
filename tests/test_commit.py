import pytest

from savi.commit import CommitmentBundle, aggregate_commitments, commit_update
from savi.group import GROUP_ORDER, GeneratorSet, make_backend
from savi.group.generators import RangeGenerators, derive_generators
from savi.group.multiexp import multiexp
from savi.rng import DeterministicRng
from savi.vsss import ss_share

Q = GROUP_ORDER


def _tiny_gens(backend, w_scalars):
    """Generator set with hand-picked w bases (w_l = scalar * g), so
    commitments can be checked against pencil-and-paper exponents."""
    g = backend.base()
    (q,) = derive_generators("q", 1, backend)
    return GeneratorSet(
        g=g,
        q=q,
        w=tuple(s * g for s in w_scalars),
        range_gens=RangeGenerators(gs=(), hs=()),
        smallness=(),
    )


@pytest.fixture(params=["mock", "ristretto255"], scope="module")
def backend(request):
    return make_backend(request.param)


def test_zero_update_zero_blind(backend):
    gens = _tiny_gens(backend, [3, 4])
    y = commit_update([0, 0], 0, gens)
    assert all(p == backend.identity() for p in y)


def test_worked_example_u_5_1_r_10(backend):
    # w1 = g^3, w2 = g^4: committing (5,1) under r=10 lands on g^35, g^41
    gens = _tiny_gens(backend, [3, 4])
    g = backend.base()
    y = commit_update([5, 1], 10, gens)
    assert y == [35 * g, 41 * g]


def test_commit_matches_two_term_multiexp(backend):
    rng = DeterministicRng(b"commit-oracle")
    gens = _tiny_gens(backend, [rng.nonzero_scalar() for _ in range(5)])
    u = [rng.below(1 << 16) for _ in range(5)]
    r = rng.scalar()
    y = commit_update(u, r, gens)
    for l in range(5):
        assert y[l] == multiexp([gens.g, gens.w[l]], [u[l], r])


def test_aggregate_single_client(backend):
    gens = _tiny_gens(backend, [3, 4])
    y = commit_update([7, 9], 5, gens)
    assert aggregate_commitments([y], gens) == list(y)


def test_aggregate_two_clients_opens_to_sum(backend):
    gens = _tiny_gens(backend, [11, 13])
    y1 = commit_update([1, 2], 1, gens)
    y2 = commit_update([3, 4], 2, gens)
    total = aggregate_commitments([y1, y2], gens)
    y_sum = commit_update([4, 6], 3, gens)
    assert total == y_sum


def test_aggregate_empty_is_identity(backend):
    gens = _tiny_gens(backend, [3, 4])
    assert aggregate_commitments([], gens) == [backend.identity()] * 2


def test_aggregate_adds_only_between_vectors(backend):
    # three vectors of d=2 take (3 - 1) * 2 additions, none against identities
    gens = _tiny_gens(backend, [3, 4])
    vectors = [commit_update([i, i + 1], i, gens) for i in (1, 2, 3)]
    before = backend.counter.snapshot()
    total = aggregate_commitments(vectors, gens)
    after = backend.counter.snapshot()
    assert total == commit_update([6, 9], 6, gens)
    assert (after["add"] - before["add"], after["mul"] - before["mul"]) == (4, 0)
    with pytest.raises(ValueError):
        aggregate_commitments([vectors[0], vectors[1][:1]], gens)


def test_additive_homomorphism_random_pairs():
    backend = make_backend("mock")
    rng = DeterministicRng(b"homomorphism")
    gens = _tiny_gens(backend, [rng.nonzero_scalar() for _ in range(4)])
    for _ in range(50):
        u1 = [rng.below(1 << 20) for _ in range(4)]
        u2 = [rng.below(1 << 20) for _ in range(4)]
        r1, r2 = rng.scalar(), rng.scalar()
        y1 = commit_update(u1, r1, gens)
        y2 = commit_update(u2, r2, gens)
        ys = commit_update([(a + b) % Q for a, b in zip(u1, u2)], (r1 + r2) % Q, gens)
        assert [a + b for a, b in zip(y1, y2)] == ys


def test_bundle_z_is_check_string_constant():
    # z = r g is sent once, as the check string's constant term
    backend = make_backend("mock")
    rng = DeterministicRng(b"bundle-z")
    gens = _tiny_gens(backend, [3, 4])
    r = rng.scalar()
    y = commit_update([5, 6], r, gens)
    _, check = ss_share(r, 4, 2, gens.g, rng)
    bundle = CommitmentBundle(y=tuple(y), encrypted_shares=(b"",) * 4, check_string=check)
    assert bundle.z == r * gens.g == check.points[0]
    assert bundle.well_formed(d=2, n=4, threshold=2)


def test_bundle_serialization_roundtrip():
    backend = make_backend("mock")
    rng = DeterministicRng(b"bundle-serial")
    gens = _tiny_gens(backend, [3, 4, 5])
    r = rng.scalar()
    y = commit_update([1, 2, 3], r, gens)
    _, check = ss_share(r, 3, 2, gens.g, rng)
    bundle = CommitmentBundle(
        y=tuple(y),
        encrypted_shares=(b"", b"abc", b"\x00" * 48),
        check_string=check,
    )
    back = CommitmentBundle.from_bytes(bundle.to_bytes(), backend)
    assert back == bundle


def test_bundle_rejects_trailing_garbage():
    backend = make_backend("mock")
    rng = DeterministicRng(b"bundle-garbage")
    gens = _tiny_gens(backend, [3])
    y = commit_update([1], rng.scalar(), gens)
    _, check = ss_share(1, 2, 1, gens.g, rng)
    blob = CommitmentBundle(y=tuple(y), encrypted_shares=(b"", b"x"), check_string=check).to_bytes()
    with pytest.raises(ValueError):
        CommitmentBundle.from_bytes(blob + b"\x00", backend)


# -- u_l g from g's radix-256 table -----------------------------------------------


_EDGE_VALUES = [
    0, 1, -1, 255, -255, 256, -256, 257, -257,
    (1 << 15) - 1, -((1 << 15) - 1), 1 << 16, -(1 << 16), 1 << 20, (-5) % Q,
]


def test_commit_at_digit_edges_matches_multiexp(backend):
    gens = GeneratorSet.derive(backend, len(_EDGE_VALUES), 1)
    r = DeterministicRng(b"digit-edges").scalar()
    y = commit_update(_EDGE_VALUES, r, gens)
    for u_l, w_l, y_l in zip(_EDGE_VALUES, gens.w, y):
        assert y_l == multiexp([gens.g, w_l], [u_l, r]), u_l
    # a negative value and its residue mod the order commit alike
    assert commit_update([-5], r, GeneratorSet.derive(backend, 1, 1)) == (
        commit_update([(-5) % Q], r, GeneratorSet.derive(backend, 1, 1))
    )


def _ops(backend, fn):
    before = backend.counter.snapshot()
    fn()
    after = backend.counter.snapshot()
    return {k: after[k] - before[k] for k in ("mul", "add")}


def _dense_update(d):
    rng = DeterministicRng(b"dense-update")
    return [rng.below(1 << 16) - (1 << 15) or 1 for _ in range(d)]


def test_dense_commit_op_counts_equal_across_backends():
    u = _dense_update(40)
    counts = []
    for name in ("mock", "ristretto255"):
        backend = make_backend(name)
        gens = GeneratorSet.derive(backend, len(u), 1)
        counts.append(_ops(backend, lambda: commit_update(u, 7, gens)))
    assert counts[0] == counts[1]
    assert counts[0]["mul"] == len(u)


def test_g_table_is_built_once_per_generator_set(backend):
    u = _dense_update(40)
    gens = GeneratorSet.derive(backend, len(u), 1)
    first = _ops(backend, lambda: commit_update(u, 7, gens))
    second = _ops(backend, lambda: commit_update(u, 9, gens))
    # one addition per nonzero radix-256 digit of |u_l|, and no mul on g
    digits = sum((abs(x) & 255 != 0) + (abs(x) >> 8 != 0) for x in u)
    assert second == {"mul": len(u), "add": digits}
    # the first commitment also built levels 0 and 1: 254 + 255 additions
    assert first == {"mul": len(u), "add": digits + 254 + 255}
    # a fresh generator set starts with an empty table
    fresh = GeneratorSet.derive(backend, len(u), 1)
    assert _ops(backend, lambda: commit_update(u, 7, fresh)) == first
