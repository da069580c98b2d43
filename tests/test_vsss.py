import itertools

import pytest

from savi.group import GROUP_ORDER, make_backend
from savi.rng import DeterministicRng
from savi.vsss import (
    CheckString,
    InsufficientSharesError,
    Share,
    combine_check_strings,
    lagrange_at_zero,
    share_with_polynomial,
    ss_recover,
    ss_share,
    ss_verify,
)

Q = GROUP_ORDER


@pytest.fixture(scope="module")
def g():
    return make_backend("mock").base()


def test_textbook_polynomial_shares(g):
    # f(x) = -7x + 10: f(1)=3, f(2)=-4, f(3)=-11
    shares, check = share_with_polynomial([10, -7], 3, g)
    assert [sh.value for sh in shares] == [3 % Q, -4 % Q, -11 % Q]
    assert all(ss_verify(sh, check) for sh in shares)
    assert check.points[0] == 10 * g


def test_textbook_recovery_two_shares():
    shares = [Share(1, 3 % Q), Share(2, -4 % Q)]
    assert ss_recover(shares, threshold=2) == 10


def test_all_t_subsets_recover_n5_t3(g):
    rng = DeterministicRng(b"subsets-5-3")
    r = rng.scalar()
    shares, _ = ss_share(r, 5, 3, g, rng)
    for subset in itertools.combinations(shares, 3):
        assert ss_recover(list(subset), 3) == r


def test_all_t_subsets_recover_n7_t4(g):
    rng = DeterministicRng(b"subsets-7-4")
    r = rng.scalar()
    shares, _ = ss_share(r, 7, 4, g, rng)
    for subset in itertools.combinations(shares, 4):
        assert ss_recover(list(subset), 4) == r


def test_recovery_all_subsets_up_to_n8(g):
    rng = DeterministicRng(b"subsets-sweep")
    for n in range(2, 9):
        for t in range(1, n + 1):
            r = rng.scalar()
            shares, _ = ss_share(r, n, t, g, rng)
            for subset in itertools.combinations(shares, t):
                assert ss_recover(list(subset), t) == r


def test_constant_polynomial_any_subset(g):
    shares, _ = share_with_polynomial([42], 5, g)
    for subset in itertools.combinations(shares, 1):
        assert ss_recover(list(subset), 1) == 42


def test_verify_genuine_and_tampered(g):
    rng = DeterministicRng(b"verify")
    shares, check = ss_share(rng.scalar(), 4, 2, g, rng)
    for sh in shares:
        assert ss_verify(sh, check)
        assert not ss_verify(Share(sh.index, (sh.value + 1) % Q), check)


def test_swapped_indices_fail_verification(g):
    rng = DeterministicRng(b"swap")
    shares, check = ss_share(rng.scalar(), 4, 3, g, rng)
    for a, b in itertools.combinations(shares, 2):
        assert not ss_verify(Share(a.index, b.value), check)
        assert not ss_verify(Share(b.index, a.value), check)


def test_insufficient_shares_raise():
    with pytest.raises(InsufficientSharesError):
        ss_recover([Share(1, 7)], threshold=2)


def test_lagrange_weights_sum_property():
    # weights interpolate f(0); for f = 1 they must sum to 1
    for indices in ([1, 2], [2, 5, 7], [1, 3, 4, 8]):
        assert sum(lagrange_at_zero(indices)) % Q == 1


def _summed(a, b):
    """Two shares at one index add to a share of the summed secrets, as
    a client's r' is the sum of the blind shares it received."""
    assert a.index == b.index
    return Share(a.index, (a.value + b.value) % Q)


def test_combine_with_zero_sharing(g):
    rng = DeterministicRng(b"combine-zero")
    r = rng.scalar()
    shares_r, check_r = ss_share(r, 3, 2, g, rng)
    shares_0, check_0 = ss_share(0, 3, 2, g, rng)
    check = combine_check_strings([check_r, check_0])
    combined = [_summed(a, b) for a, b in zip(shares_r, shares_0)]
    assert all(ss_verify(s, check) for s in combined)
    assert ss_recover(combined[:2], 2) == r


def test_combine_two_random_sharings(g):
    rng = DeterministicRng(b"combine-two")
    r, s = rng.scalar(), rng.scalar()
    shares_r, check_r = ss_share(r, 4, 2, g, rng)
    shares_s, check_s = ss_share(s, 4, 2, g, rng)
    combined = [_summed(a, b) for a, b in zip(shares_r, shares_s)]
    assert ss_recover(combined[1:3], 2) == (r + s) % Q


def test_homomorphic_verify_many_instances(g):
    rng = DeterministicRng(b"combine-bulk")
    for _ in range(1000):
        r, s = rng.scalar(), rng.scalar()
        shares_r, check_r = ss_share(r, 3, 2, g, rng)
        shares_s, check_s = ss_share(s, 3, 2, g, rng)
        i = rng.below(3)
        check = combine_check_strings([check_r, check_s])
        assert ss_verify(_summed(shares_r[i], shares_s[i]), check)


def test_combined_check_string_is_pointwise_sum(g):
    rng = DeterministicRng(b"combine-points")
    _, check_r = ss_share(5, 3, 3, g, rng)
    _, check_s = ss_share(6, 3, 3, g, rng)
    combined = combine_check_strings([check_r, check_s])
    assert combined.points == tuple(
        a + b for a, b in zip(check_r.points, check_s.points)
    )


def test_share_values_look_uniform_across_secrets(g):
    # t-1 random coefficients blind each share: the share-at-1 stream
    # for two fixed secrets should be indistinguishable coarsely
    def low_bits(secret, seed):
        rng = DeterministicRng(seed)
        out = []
        for _ in range(2000):
            shares, _ = ss_share(secret, 3, 2, g, rng)
            out.append(shares[0].value % 16)
        return out

    a = low_bits(123, b"dist-a")
    b = low_bits(456_000_000, b"dist-b")
    counts_a = [a.count(v) / 2000 for v in range(16)]
    counts_b = [b.count(v) / 2000 for v in range(16)]
    # each bucket should be near 1/16 for both streams
    assert all(abs(c - 1 / 16) < 0.03 for c in counts_a + counts_b)


def test_check_string_equality_semantics(g):
    c1 = CheckString(points=(g, 2 * g))
    c2 = CheckString(points=(g, 2 * g))
    assert c1 == c2
