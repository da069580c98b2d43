from savi.group import GROUP_ORDER, GeneratorSet, make_backend
from savi.group.multiexp import multiexp
from savi.rng import DeterministicRng
from savi.sampling import sample_matrix
from savi.zkp import crt_weights, ver_crt

Q = GROUP_ORDER

backend = make_backend("mock")


def _setup(k, d, seed=b"vercrt"):
    gens = GeneratorSet.derive(backend, d, 4)
    matrix = sample_matrix(seed, k, d, M=1 << 12)
    rows = [list(matrix.a0)] + [[int(x) for x in row] for row in matrix.rows]
    claimed = [multiexp(gens.w, [e % Q for e in row]) for row in rows]
    return gens, matrix, claimed


def test_honest_claim_accepted():
    gens, matrix, claimed = _setup(k=4, d=8)
    assert ver_crt(gens.w, claimed, *crt_weights(matrix, DeterministicRng(b"a")))


def test_naive_per_row_oracle_agrees():
    # the batch check must accept exactly when every row checks out alone
    gens, matrix, claimed = _setup(k=4, d=8)
    rows = [list(matrix.a0)] + [[int(x) for x in row] for row in matrix.rows]
    for t, row in enumerate(rows):
        assert claimed[t] == multiexp(gens.w, [e % Q for e in row])
    bad = list(claimed)
    bad[2] = bad[2] + gens.g
    assert bad[2] != multiexp(gens.w, [e % Q for e in rows[2]])
    assert not ver_crt(gens.w, bad, *crt_weights(matrix, DeterministicRng(b"b")))


def test_single_tampered_row_caught_repeatedly():
    # soundness error is 1/p per run; no run out of 1000 may accept
    gens, matrix, claimed = _setup(k=3, d=6)
    root = DeterministicRng(b"trials")
    for i in range(1000):
        bad = list(claimed)
        slot = i % len(bad)
        bad[slot] = bad[slot] + gens.g
        assert not ver_crt(gens.w, bad, *crt_weights(matrix, root.child(str(i))))


def test_compensating_tampers_still_caught():
    # +g on one row, -g on another cancels under equal weights only
    gens, matrix, claimed = _setup(k=3, d=6)
    root = DeterministicRng(b"pairs")
    for i in range(200):
        bad = list(claimed)
        bad[0] = bad[0] + gens.g
        bad[1] = bad[1] + (Q - 1) * gens.g
        assert not ver_crt(gens.w, bad, *crt_weights(matrix, root.child(str(i))))


def test_wrong_claim_count_rejected():
    gens, matrix, claimed = _setup(k=4, d=8)
    assert not ver_crt(gens.w, claimed[:-1], *crt_weights(matrix, DeterministicRng(b"c")))
    assert not ver_crt(gens.w, claimed + [gens.g], *crt_weights(matrix, DeterministicRng(b"d")))


def test_duck_typed_matrix():
    # anything exposing k + weighted_combination works
    d = 5
    gens = GeneratorSet.derive(backend, d, 4)
    rows = [[1, 2, 3, 4, 5], [7, 0, 0, 0, 1], [0, 0, 9, 0, 0]]

    class Plain:
        k = len(rows) - 1

        def weighted_combination(self, weights):
            return [
                sum(w * row[l] for w, row in zip(weights, rows)) % Q
                for l in range(d)
            ]

    claimed = [multiexp(gens.w, row) for row in rows]
    assert ver_crt(gens.w, claimed, *crt_weights(Plain(), DeterministicRng(b"e")))
    claimed[1] = claimed[1] + gens.g
    assert not ver_crt(gens.w, claimed, *crt_weights(Plain(), DeterministicRng(b"f")))


def test_projection_commitment_use():
    # e_t built from a committed update must pass against the y_l bases
    from savi.commit import commit_update

    d, k = 8, 4
    gens = GeneratorSet.derive(backend, d, 4)
    matrix = sample_matrix(b"proj", k, d, M=1 << 12)
    u = [3, -2, 5, 0, 1, -1, 4, 2]
    r = DeterministicRng(b"commit").scalar()
    y = commit_update(u, r, gens)
    v = matrix.row_inner(u)
    # sum_l a_tl * y_l is the projected commitment of the same update,
    # so the y_l themselves serve as bases for the claims.
    claimed = [
        multiexp(y, [int(e) % Q for e in row])
        for row in [list(matrix.a0)] + [[int(x) for x in rr] for rr in matrix.rows]
    ]
    assert ver_crt(y, claimed, *crt_weights(matrix, DeterministicRng(b"g")))
    assert claimed[1] != claimed[2]
    # sanity: claimed[t] really opens to v_t in the g-component
    assert v[0] % Q != v[1] % Q
