import hashlib
from dataclasses import replace

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from hypothesis import given, settings
from hypothesis import strategies as st

from savi.group import GROUP_ORDER, GeneratorSet, make_backend
from savi.group.multiexp import multiexp
from savi.protocol import (
    AbortServerMaliciousError,
    Client,
    Server,
    ShareVerifyFailedError,
)
from savi.protocol import pairwise
from savi.protocol.pairwise import keygen, open_share, pairwise_key, seal_share
from savi.protocol.server import compute_h
from savi.rng import DeterministicRng
from savi.sampling import CheckParameters, SampleMatrix, sample_matrix
from savi.vsss import CheckString, InsufficientSharesError, Share
from savi.zkp import integrity, ver_integrity_proof

mock = make_backend("mock")


def _params(n=5, m=2, d=8, k=4, B=4.0):
    return CheckParameters.from_epsilon_log2(
        -16, n=n, m=m, d=d, k=k, M=16, B=B, b_max=64,
        frac_bits=2, b_coord=16,
    )


def _network(params, seed=b"net", backend=mock):
    gens = GeneratorSet.derive(backend, params.d, params.range_slots)
    root = DeterministicRng(seed)
    server = Server(params, gens, root.child("server"))
    clients = {
        i: Client(i, params, gens, root.child(f"client/{i}"))
        for i in range(1, params.n + 1)
    }
    pks = {i: c.pk for i, c in clients.items()}
    server.register_clients(pks)
    for c in clients.values():
        c.register_peers(pks)
    return server, clients


def _small_updates(params, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(1, params.n + 1):
        x = rng.standard_normal(params.d)
        x *= scale * params.B * (1 << params.frac_bits) / np.linalg.norm(x)
        out[i] = [int(round(v)) for v in x]
    return out


def _run_round(server, clients, updates, round_no=1, drop_rprime=(), corrupt_rprime=(),
               extra_rprime=None):
    server.begin_round(round_no)
    bundles = {i: c.commit_round(round_no, updates[i]) for i, c in clients.items()}
    server.receive_bundles(bundles)
    flags = {
        i: c.verify_shares({j: b for j, b in bundles.items() if j != i})
        for i, c in clients.items()
    }
    requests = server.resolve_flags(flags)
    responses = {t: clients[t].respond_clear_shares(fl) for t, fl in requests.items()}
    forward = server.receive_clear_shares(requests, responses)
    for target, shares in forward.items():
        for share in shares:
            clients[share.index].accept_clear_share(target, share)
    nonce, h = server.proof_round()
    proofs = {i: clients[i].proof_round(nonce, h) for i in server.surviving}
    honest = server.receive_proofs(proofs)
    r_primes = {
        i: (None if i in drop_rprime else clients[i].aggregate_round(honest))
        for i in honest
    }
    for i in corrupt_rprime:
        r_primes[i] += 1
    r_primes.update(extra_rprime or {})
    return server.aggregate(r_primes), honest


# -- pairwise channel ---------------------------------------------------------


def test_pairwise_key_agreement():
    rng = DeterministicRng(b"pw")
    sk1, pk1 = keygen(mock, rng)
    sk2, pk2 = keygen(mock, rng)
    sk3, pk3 = keygen(mock, rng)
    assert pairwise_key(sk1, pk2) == pairwise_key(sk2, pk1)
    assert pairwise_key(sk1, pk3) != pairwise_key(sk1, pk2)


def test_seal_open_roundtrip_and_tampering():
    rng = DeterministicRng(b"seal")
    sk1, pk1 = keygen(mock, rng)
    sk2, pk2 = keygen(mock, rng)
    key = pairwise_key(sk1, pk2)
    blob = seal_share(key, round_no=7, sender=1, receiver=2, value=123456789)
    assert len(blob) == 48  # the 32-byte value and a 16-byte tag
    assert open_share(key, 7, 1, 2, blob) == 123456789
    # any bit flip, wrong direction, wrong round, or truncation fails closed
    flipped = bytes([blob[0] ^ 1]) + blob[1:]
    assert open_share(key, 7, 1, 2, flipped) is None
    assert open_share(key, 7, 2, 1, blob) is None
    assert open_share(key, 8, 1, 2, blob) is None
    assert open_share(key, 7, 1, 2, blob[:-1]) is None
    assert open_share(pairwise_key(sk1, pk1), 7, 1, 2, blob) is None


def test_open_share_rejects_a_plaintext_that_is_not_one_canonical_scalar():
    # authentic ciphertexts whose plaintext the sender got wrong: the
    # order itself (non-canonical), 2^256 - 1, and the old 36-byte layout
    # of index then value
    key = pairwise_key(3, 5 * mock.base())
    aad = pairwise._nonce(7, 1, 2)
    for plain in (
        GROUP_ORDER.to_bytes(32, "little"),
        b"\xff" * 32,
        (2).to_bytes(4, "little") + (123).to_bytes(32, "little"),
    ):
        blob = ChaCha20Poly1305(key).encrypt(aad, plain, aad)
        assert open_share(key, 7, 1, 2, blob) is None
    blob = ChaCha20Poly1305(key).encrypt(aad, (GROUP_ORDER - 1).to_bytes(32, "little"), aad)
    assert open_share(key, 7, 1, 2, blob) == GROUP_ORDER - 1


# -- happy path ----------------------------------------------------------------


def test_full_mesh_exact_aggregate():
    params = _params()
    server, clients = _network(params)
    updates = _small_updates(params, seed=1)
    total, honest = _run_round(server, clients, updates)
    assert honest == [1, 2, 3, 4, 5]
    expected = [sum(updates[i][l] for i in honest) for l in range(params.d)]
    assert total == expected
    assert server.malicious == {}


def test_negative_sum_coordinates_recovered():
    params = _params(n=3, m=1)
    server, clients = _network(params, seed=b"neg")
    updates = {1: [-5, 0, 1, 0, 0, 0, 0, 2],
               2: [-6, -1, 0, 0, 0, 0, 0, -2],
               3: [-7, 1, -1, 0, 0, 0, 0, 0]}
    total, honest = _run_round(server, clients, updates)
    assert total == [-18, 0, 0, 0, 0, 0, 0, 0]


def test_two_rounds_same_parties():
    params = _params(n=3, m=1)
    server, clients = _network(params, seed=b"2r")
    u1 = _small_updates(params, seed=2)
    t1, _ = _run_round(server, clients, u1, round_no=1)
    u2 = _small_updates(params, seed=3)
    t2, _ = _run_round(server, clients, u2, round_no=2)
    assert t1 == [sum(u1[i][l] for i in u1) for l in range(params.d)]
    assert t2 == [sum(u2[i][l] for i in u2) for l in range(params.d)]
    assert t1 != t2


def test_aggregate_at_the_edge_of_the_dlog_window():
    # Every client holds the widest coordinate commit_round admits, so the
    # sum sits exactly on the server's dlog bound, on either side.
    params = _params(n=3, m=1, B=8191.5)
    server, clients = _network(params, seed=b"edge")
    top = (1 << (params.b_coord - 1)) - 1
    for round_no, sign in ((1, 1), (2, -1)):
        updates = {i: [sign * top] + [0] * (params.d - 1) for i in clients}
        total, honest = _run_round(server, clients, updates, round_no=round_no)
        assert honest == [1, 2, 3]
        assert total == [3 * sign * top] + [0] * (params.d - 1)


def test_ristretto_end_to_end():
    params = _params(n=3, m=1, d=4, k=4, B=2.0)
    server, clients = _network(params, seed=b"rist", backend=make_backend("ristretto255"))
    updates = {1: [1, -2, 0, 3], 2: [0, 1, 1, -1], 3: [2, 0, -1, 0]}
    total, honest = _run_round(server, clients, updates)
    assert total == [3, -1, 0, 2]


_EDGE = 1 << 28
_ENTRIES = st.one_of(
    st.sampled_from([0, 0, 1, -1, 2, -2, _EDGE, -_EDGE, _EDGE - 1, 1 - _EDGE]),
    st.integers(-_EDGE, _EDGE),
)


@settings(max_examples=25, deadline=None)
@given(
    backend_name=st.sampled_from(["mock", "ristretto255"]),
    rows=st.sampled_from([1, 2, 3, 64]).flatmap(
        lambda d: st.lists(st.lists(_ENTRIES, min_size=d, max_size=d), min_size=1, max_size=3)
    ),
    seed=st.binary(min_size=8, max_size=8),
)
def test_h_equals_naive_multiexp(gens_factory, backend_name, rows, seed):
    d = len(rows[0])
    gens = gens_factory(backend_name, d, 8)
    a0 = tuple(int.from_bytes(hashlib.sha512(seed + bytes([l])).digest(), "little") % GROUP_ORDER
               for l in range(d))
    matrix = SampleMatrix(seed=seed, M=1, a0=a0, rows=np.array(rows, dtype=np.int64))
    h = compute_h(matrix, gens)
    # the exponents of h = A w, negative entries wrapped mod p
    exponents = [[a % GROUP_ORDER for a in matrix.a0]] + [
        [int(x) % GROUP_ORDER for x in row] for row in matrix.rows
    ]
    assert [p.encode() for p in h] == [
        multiexp(gens.w, row, gens.backend).encode() for row in exponents
    ]


@pytest.mark.parametrize("backend_name", ["mock", "ristretto255"])
def test_h_of_zero_rows_is_the_identity(gens_factory, backend_name):
    gens = gens_factory(backend_name, 3, 8)
    matrix = SampleMatrix(seed=b"", M=1, a0=(0, 0, 0), rows=np.zeros((2, 3), dtype=np.int64))
    assert compute_h(matrix, gens) == [gens.backend.identity()] * 3


# -- share flagging and clear-share recovery -----------------------------------


def _corrupt_share(bundle, receiver_index):
    sealed = list(bundle.encrypted_shares)
    blob = sealed[receiver_index - 1]
    sealed[receiver_index - 1] = bytes([blob[0] ^ 0xFF]) + blob[1:]
    return replace(bundle, encrypted_shares=tuple(sealed))


def test_corrupted_share_gets_flagged_then_recovered():
    params = _params(n=5, m=2)
    server, clients = _network(params, seed=b"flag")
    updates = _small_updates(params, seed=4)
    server.begin_round(1)
    bundles = {i: c.commit_round(1, updates[i]) for i, c in clients.items()}
    # client 2's ciphertext to client 3 arrives mangled
    delivered = dict(bundles)
    delivered[2] = _corrupt_share(bundles[2], receiver_index=3)
    server.receive_bundles(bundles)
    flags = {}
    for i, c in clients.items():
        view = {j: (delivered[j] if i == 3 else bundles[j])
                for j in bundles if j != i}
        flags[i] = c.verify_shares(view)
    assert flags[3] == [2]
    requests = server.resolve_flags(flags)
    assert requests == {2: [3]}
    responses = {t: clients[t].respond_clear_shares(fl) for t, fl in requests.items()}
    forward = server.receive_clear_shares(requests, responses)
    for target, shares in forward.items():
        for share in shares:
            clients[share.index].accept_clear_share(target, share)
    assert 2 in clients[3].received_shares  # recovered in clear
    nonce, h = server.proof_round()
    proofs = {i: clients[i].proof_round(nonce, h) for i in server.surviving}
    honest = server.receive_proofs(proofs)
    assert honest == [1, 2, 3, 4, 5]  # nobody excluded, aggregate includes 2
    r_primes = {i: clients[i].aggregate_round(honest) for i in honest}
    total = server.aggregate(r_primes)
    assert total == [sum(updates[i][l] for i in honest) for l in range(params.d)]


def test_over_flagger_is_marked():
    params = _params(n=10, m=2)
    server, clients = _network(params, seed=b"over")
    updates = _small_updates(params, seed=5)
    server.begin_round(1)
    bundles = {i: c.commit_round(1, updates[i]) for i, c in clients.items()}
    server.receive_bundles(bundles)
    flags = {
        i: c.verify_shares({j: b for j, b in bundles.items() if j != i})
        for i, c in clients.items()
    }
    flags[7] = [1, 2, 3]  # m + 1 accusations: self-incriminating
    requests = server.resolve_flags(flags)
    assert server.malicious.get(7) == "over_flagging"
    assert requests == {}  # the dismissed flags trigger no clear shares
    assert all(i not in server.malicious for i in range(1, 10) if i != 7)


def test_flags_from_over_flagger_do_not_count():
    params = _params(n=10, m=3)
    server, clients = _network(params, seed=b"dis")
    updates = _small_updates(params, seed=6)
    server.begin_round(1)
    bundles = {i: c.commit_round(1, updates[i]) for i, c in clients.items()}
    server.receive_bundles(bundles)
    flags = {
        i: c.verify_shares({j: b for j, b in bundles.items() if j != i})
        for i, c in clients.items()
    }
    # 5 flags four peers (> m): dismissed entirely.  2 and 3 flag honest 1:
    # only two credible accusations, so 1 faces a clear-share request.
    flags[5] = [1, 2, 3, 4]
    flags[2] = [1]
    flags[3] = [1]
    requests = server.resolve_flags(flags)
    assert server.malicious.get(5) == "over_flagging"
    assert 1 not in server.malicious
    assert requests == {1: [2, 3]}
    assert len(requests[1]) == 2 <= params.m
    responses = {t: clients[t].respond_clear_shares(fl) for t, fl in requests.items()}
    server.receive_clear_shares(requests, responses)
    assert 1 not in server.malicious  # survived with shares intact


def test_majority_flagged_client_excluded():
    params = _params(n=10, m=2)
    server, clients = _network(params, seed=b"maj")
    updates = _small_updates(params, seed=7)
    server.begin_round(1)
    bundles = {i: c.commit_round(1, updates[i]) for i, c in clients.items()}
    server.receive_bundles(bundles)
    flags = {
        i: c.verify_shares({j: b for j, b in bundles.items() if j != i})
        for i, c in clients.items()
    }
    for accuser in (2, 3, 4):  # m + 1 credible flags
        flags[accuser] = [9]
    requests = server.resolve_flags(flags)
    assert server.malicious.get(9) == "flagged_by_majority"
    assert 9 not in requests


def test_missing_flag_report_is_dropout():
    params = _params(n=5, m=2)
    server, clients = _network(params, seed=b"silent")
    updates = _small_updates(params, seed=8)
    server.begin_round(1)
    bundles = {i: c.commit_round(1, updates[i]) for i, c in clients.items()}
    server.receive_bundles(bundles)
    flags = {
        i: c.verify_shares({j: b for j, b in bundles.items() if j != i})
        for i, c in clients.items()
    }
    del flags[4]
    server.resolve_flags(flags)
    assert server.malicious.get(4) == "no_flag_report"


def test_silent_client_is_excluded_without_aborting_its_peers():
    params = _params(n=5, m=2)
    server, clients = _network(params, seed=b"withheld")
    updates = _small_updates(params, seed=12)
    server.begin_round(1)
    bundles = {i: c.commit_round(1, updates[i]) for i, c in clients.items()}
    del bundles[3]  # client 3 committed but its bundle never arrives
    server.receive_bundles(bundles)
    live = [1, 2, 4, 5]
    flags = {
        i: clients[i].verify_shares({j: b for j, b in bundles.items() if j != i})
        for i in live
    }
    assert flags == {i: [] for i in live}
    assert server.resolve_flags(flags) == {}
    nonce, h = server.proof_round()
    honest = server.receive_proofs({i: clients[i].proof_round(nonce, h) for i in live})
    assert honest == live
    assert server.malicious == {3: "no_commitment"}
    total = server.aggregate({i: clients[i].aggregate_round(honest) for i in honest})
    assert total == [sum(updates[i][l] for i in live) for l in range(params.d)]
    with pytest.raises(ValueError, match="unknown clients"):
        clients[1].verify_shares({6: bundles[2]})


def test_clear_share_request_limit():
    params = _params(n=10, m=2)
    _, clients = _network(params, seed=b"limit")
    c = clients[1]
    c.commit_round(1, [0] * params.d)
    assert c.respond_clear_shares([]) == []
    two = c.respond_clear_shares([4, 7])
    assert [sh.index for sh in two] == [4, 7]
    with pytest.raises(AbortServerMaliciousError):
        c.respond_clear_shares([4, 7, 9])  # m + 1 would rebuild r
    # duplicates collapse: still just m distinct accusers
    assert len(c.respond_clear_shares([4, 4, 7])) == 3
    # ids the server invents are refused, not looked up
    for invented in ([11], [0], [4, 11]):
        with pytest.raises(AbortServerMaliciousError):
            c.respond_clear_shares(invented)


def test_forged_clear_share_marks_target():
    params = _params(n=5, m=2)
    server, clients = _network(params, seed=b"forged")
    updates = _small_updates(params, seed=9)
    server.begin_round(1)
    bundles = {i: c.commit_round(1, updates[i]) for i, c in clients.items()}
    server.receive_bundles(bundles)
    requests = {2: [3]}
    genuine = clients[2].respond_clear_shares([3])
    bogus = [Share(index=3, value=(genuine[0].value + 1) % (1 << 252))]
    forward = server.receive_clear_shares(requests, {2: bogus})
    assert forward == {}
    assert server.malicious.get(2) == "bad_clear_share"
    # and silence is equally fatal
    server2, clients2 = _network(params, seed=b"forged2")
    server2.begin_round(1)
    b2 = {i: c.commit_round(1, updates[i]) for i, c in clients2.items()}
    server2.receive_bundles(b2)
    server2.receive_clear_shares({2: [3]}, {})
    assert server2.malicious.get(2) == "no_clear_shares"


# -- malicious server ----------------------------------------------------------


def test_tampered_h_aborts_every_client():
    params = _params(n=4, m=1)
    server, clients = _network(params, seed=b"badh")
    updates = _small_updates(params, seed=10)
    server.begin_round(1)
    bundles = {i: c.commit_round(1, updates[i]) for i, c in clients.items()}
    server.receive_bundles(bundles)
    for i, c in clients.items():
        c.verify_shares({j: b for j, b in bundles.items() if j != i})
    server.resolve_flags({i: [] for i in clients})
    nonce, h = server.proof_round()
    h_bad = [h[0], h[1] + server.gens.g] + list(h[2:])
    for c in clients.values():
        with pytest.raises(AbortServerMaliciousError):
            c.proof_round(nonce, h_bad)  # raises before any proof exists


def test_stale_nonce_aborts():
    params = _params(n=3, m=1)
    server, clients = _network(params, seed=b"nonce")
    updates = _small_updates(params, seed=11)
    server.begin_round(1)
    bundles = {i: c.commit_round(1, updates[i]) for i, c in clients.items()}
    server.receive_bundles(bundles)
    for i, c in clients.items():
        c.verify_shares({j: b for j, b in bundles.items() if j != i})
    server.resolve_flags({i: [] for i in clients})
    nonce, h = server.proof_round()
    with pytest.raises(AbortServerMaliciousError):
        clients[1].proof_round(b"\x00" * 32, h)


def test_h_is_deterministic_given_seed():
    params = _params(n=3, m=1)
    server, clients = _network(params, seed=b"deth")
    from savi.group.multiexp import multiexp
    from savi.group import GROUP_ORDER
    from savi.sampling import derive_seed

    server.begin_round(1)
    bundles = {i: c.commit_round(1, [0] * params.d) for i, c in clients.items()}
    server.receive_bundles(bundles)
    nonce, h = server.proof_round()
    seed = derive_seed(nonce, [clients[i].pk for i in sorted(clients)])
    assert seed == server.seed
    matrix = sample_matrix(seed, params.k, params.d, params.M)
    rows = [[a % GROUP_ORDER for a in matrix.a0]] + [
        [int(x) % GROUP_ORDER for x in row] for row in matrix.rows
    ]
    assert h == [multiexp(server.gens.w, row) for row in rows]


def test_client_refuses_honest_set_with_unverified_member():
    params = _params(n=5, m=2)
    server, clients = _network(params, seed=b"unverified")
    updates = _small_updates(params, seed=12)
    server.begin_round(1)
    bundles = {i: c.commit_round(1, updates[i]) for i, c in clients.items()}
    delivered = dict(bundles)
    delivered[2] = _corrupt_share(bundles[2], receiver_index=3)
    server.receive_bundles(bundles)
    for i, c in clients.items():
        view = {j: (delivered[j] if i == 3 else bundles[j]) for j in bundles if j != i}
        c.verify_shares(view)
    # server skips flag resolution and simply announces everyone honest:
    # client 3 never recovered 2's share and must refuse to answer
    with pytest.raises(AbortServerMaliciousError):
        clients[3].aggregate_round([1, 2, 3, 4, 5])


# -- aggregation robustness ------------------------------------------------------


def test_aggregate_with_threshold_shares_only():
    params = _params(n=5, m=2)  # threshold 3
    server, clients = _network(params, seed=b"thresh")
    updates = _small_updates(params, seed=13)
    total, honest = _run_round(server, clients, updates, drop_rprime=(4, 5))
    assert total == [sum(updates[i][l] for i in honest) for l in range(params.d)]


def test_aggregate_below_threshold_fails():
    params = _params(n=5, m=2)
    server, clients = _network(params, seed=b"below")
    updates = _small_updates(params, seed=14)
    with pytest.raises(InsufficientSharesError):
        _run_round(server, clients, updates, drop_rprime=(3, 4, 5))


def test_corrupted_r_prime_identified():
    # one bad share of five, threshold 3: recovery drops it and completes
    params = _params(n=5, m=2)
    server, clients = _network(params, seed=b"badr")
    updates = _small_updates(params, seed=15)
    total, honest = _run_round(server, clients, updates, corrupt_rprime=(2,))
    assert honest == [1, 2, 3, 4, 5]
    assert total == [sum(updates[i][l] for i in honest) for l in range(params.d)]
    assert server.bad_blind_shares == [2]


def test_r_prime_from_impossible_id_is_named():
    # ids 0 and n+1 name no client: their r' are listed, not a crash
    params = _params(n=3, m=1)
    server, clients = _network(params, seed=b"badid")
    updates = _small_updates(params, seed=17)
    total, honest = _run_round(server, clients, updates, extra_rprime={0: 5, 4: 7})
    assert honest == [1, 2, 3]
    assert total == [sum(updates[i][l] for i in honest) for l in range(params.d)]
    assert server.bad_blind_shares == [0, 4]


def test_too_few_valid_r_primes_fails():
    # three bad shares of five leave two valid, below threshold 3
    params = _params(n=5, m=2)
    server, clients = _network(params, seed=b"badr3")
    updates = _small_updates(params, seed=16)
    with pytest.raises(ShareVerifyFailedError) as exc:
        _run_round(server, clients, updates, corrupt_rprime=(2, 3, 4))
    assert exc.value.client_ids == (2, 3, 4)
    assert isinstance(exc.value, InsufficientSharesError)
    assert server.bad_blind_shares == [2, 3, 4]


def test_empty_honest_set_aggregates_to_zero():
    params = _params(n=3, m=1)
    server, clients = _network(params, seed=b"empty")
    server.begin_round(1)
    server.receive_bundles({})
    assert server.surviving == []
    server.honest = []
    assert server.aggregate({}) == [0] * params.d


# -- batched proof verification ----------------------------------------------------


def _short_ls(rp):
    return replace(rp, ls=rp.ls[:-1])


def _bump_r(rp):
    return replace(rp, r=((rp.r[0] + 1) % GROUP_ORDER,) + rp.r[1:])


def _link_response(p, value):
    """``p`` with the link's response -sigma set to ``value``: only the
    batched link identity reads it."""
    return replace(p, rho=replace(p.rho, y_sigma=value % GROUP_ORDER))


# batched-identity-only cheats, with the label each must be named by;
# at savi/v6 the range_ip cheats bumped or shortened the projections'
# range proof, which the proof of smallness replaced
_RANGE_CHEATS = [
    (lambda p: _link_response(p, p.rho.y_sigma + 1), "range_ip"),
    (lambda p: replace(p, mu=_bump_r(p.mu)), "range_sum"),
    (lambda p: _link_response(p, -p.rho.y_sigma), "range_ip"),
    (lambda p: replace(p, mu=_short_ls(p.mu)), "range_sum"),
    # a bad link is named before a malformed mu proof
    (lambda p: replace(_link_response(p, p.rho.y_sigma + 1), mu=_short_ls(p.mu)), "range_ip"),
]


# client id -> index into _RANGE_CHEATS
@pytest.mark.parametrize("cheaters", [{3: 0}, {2: 1, 5: 0}, {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}])
def test_batch_names_exactly_the_range_proof_cheaters(cheaters):
    params = _params(n=5, m=2)
    server, clients = _network(params, seed=b"batch")
    updates = _small_updates(params, seed=5)
    server.begin_round(1)
    bundles = {i: c.commit_round(1, updates[i]) for i, c in clients.items()}
    server.receive_bundles(bundles)
    server.resolve_flags({
        i: c.verify_shares({j: b for j, b in bundles.items() if j != i})
        for i, c in clients.items()
    })
    nonce, h = server.proof_round()
    proofs = {i: c.proof_round(nonce, h) for i, c in clients.items()}
    expected = {}
    for i, which in cheaters.items():
        cheat, reason = _RANGE_CHEATS[which]
        proofs[i] = cheat(proofs[i])
        expected[i] = reason

    alone = {
        i: ver_integrity_proof(
            params, server.gens, server.matrix, server.h, bundles[i].z, bundles[i].y,
            proof, 1, i, DeterministicRng(b"alone"),
        )
        for i, proof in proofs.items()
    }
    assert alone == {i: (i not in expected, expected.get(i)) for i in proofs}
    honest = server.receive_proofs(proofs)
    assert honest == [i for i in clients if i not in expected]
    assert server.malicious == {i: f"proof_{r}" for i, r in expected.items()}


def test_range_sum_leaf_checks_the_link_alone(monkeypatch):
    # a failing leaf whose link holds is named "range_sum" with no check
    # of the slack alone: the pair failed, so the slack must.  Checking
    # it as well cost this round one more call (7) and 146 muls (2,059).
    # Consistency is checked once, on the accepted set: checking the
    # well-shaped set first and the accepted set again cost one more
    # ver_crt of d + k + 1 = 13 muls (1,913).  With commitments o and o'_t
    # to the projections and their squares (savi/v7), the sigma proofs
    # cost 3k - 2 = 10 muls more a client (1,900).  Without H in the square
    # proof (savi/v9) they cost 3 muls fewer a client (1,850)
    params = _params(n=5, m=2)
    server, clients = _network(params, seed=b"batch")
    updates = _small_updates(params, seed=5)
    server.begin_round(1)
    bundles = {i: c.commit_round(1, updates[i]) for i, c in clients.items()}
    server.receive_bundles(bundles)
    server.resolve_flags({
        i: c.verify_shares({j: b for j, b in bundles.items() if j != i})
        for i, c in clients.items()
    })
    nonce, h = server.proof_round()
    proofs = {i: c.proof_round(nonce, h) for i, c in clients.items()}
    cheat, reason = _RANGE_CHEATS[1]
    proofs[2] = cheat(proofs[2])
    calls = []
    checked = integrity.ver_range_proof

    def counted(*args):
        calls.append(len(args[1]))
        return checked(*args)

    monkeypatch.setattr(integrity, "ver_range_proof", counted)
    before = mock.counter.mul
    assert server.receive_proofs(proofs) == [1, 3, 4, 5]
    assert server.malicious == {2: f"proof_{reason}"}
    # two identities a client: the batch, [1, 2], [1], [2], [3, 4, 5],
    # then client 2's link alone
    assert calls == [10, 4, 2, 2, 6, 1]
    assert mock.counter.mul - before == 1865


# -- consistency of the accepted set -------------------------------------------------


def _colluding(monkeypatch, shifts, range_cheats=()):
    """Make the clients in ``shifts`` claim their projections shifted by
    it and build e_star on the shifted claims, so each one's sigma proofs
    hold but its e_star misses its y by shift·g; those in
    ``range_cheats`` also send a bad link response."""
    honest_prove = Client._prove

    def prove(self, matrix, h):
        if self.id not in shifts:
            return honest_prove(self, matrix, h)
        v = matrix.row_inner(self.u)
        claims = [x + shift for x, shift in zip(v[1:], shifts[self.id])]
        proof = integrity._prove(
            self.params, self.gens, matrix, h, self.z, self.y, self.r, [v[0]] + claims,
            claims, self.round_no, self.id, self.rng,
        )
        return _RANGE_CHEATS[0][0](proof) if self.id in range_cheats else proof

    monkeypatch.setattr(Client, "_prove", prove)


_CANCELLING = {2: [1, 0, -2, 0], 3: [-1, 0, 2, 0]}


def test_colluders_whose_errors_cancel_are_accepted(monkeypatch):
    # each colluder alone fails consistency, but the set's sums pass, and
    # the aggregate of the y they committed is exact
    params = _params(n=5, m=2)
    server, clients = _network(params, seed=b"collude")
    updates = _small_updates(params, seed=21)
    _colluding(monkeypatch, _CANCELLING)
    alone = []
    verify = server.receive_proofs

    def receive_proofs(proofs):
        for i in _CANCELLING:
            bundle = server.bundles[i]
            alone.append(ver_integrity_proof(
                params, server.gens, server.matrix, server.h, bundle.z, bundle.y,
                proofs[i], 1, i, DeterministicRng(b"alone"),
            ))
        return verify(proofs)

    monkeypatch.setattr(server, "receive_proofs", receive_proofs)
    total, honest = _run_round(server, clients, updates)
    assert alone == [(False, "consistency")] * 2
    assert honest == [1, 2, 3, 4, 5]
    assert total == [sum(updates[i][l] for i in honest) for l in range(params.d)]


def test_dropping_one_colluder_names_the_other(monkeypatch):
    # client 3's bad link drops it after the set check passed, so
    # the final set is checked again and client 2's error shows
    params = _params(n=5, m=2)
    server, clients = _network(params, seed=b"collude")
    updates = _small_updates(params, seed=21)
    _colluding(monkeypatch, _CANCELLING, range_cheats={3})
    total, honest = _run_round(server, clients, updates)
    assert server.malicious == {2: "proof_consistency", 3: "proof_range_ip"}
    assert honest == [1, 4, 5]
    assert total == [sum(updates[i][l] for i in honest) for l in range(params.d)]


def test_honest_round_sums_y_once(monkeypatch):
    # the consistency check sums the columns of the whole set once, and
    # the aggregate unblinds that sum instead of adding y up again
    params = _params(n=5, m=2)
    server, clients = _network(params, seed=b"sum-once")
    updates = _small_updates(params, seed=22)
    sums = []
    aggregate_commitments = integrity.aggregate_commitments

    def counted(vectors, gens, minus=()):
        sums.append((len(vectors), len(minus)))
        return aggregate_commitments(vectors, gens, minus)

    monkeypatch.setattr(integrity, "aggregate_commitments", counted)
    total, honest = _run_round(server, clients, updates)
    assert honest == [1, 2, 3, 4, 5]
    assert total == [sum(updates[i][l] for i in honest) for l in range(params.d)]
    assert sums == [(5, 0)]


# -- stage machine ---------------------------------------------------------------


def test_stages_only_move_forward():
    params = _params(n=3, m=1)
    _, clients = _network(params, seed=b"stage")
    c = clients[1]
    bundle = c.commit_round(1, [0] * params.d)
    with pytest.raises(RuntimeError):
        c._advance("committed")  # re-entering the same stage
    peers = {j: bundle for j in (2, 3)}  # structurally fine: own bundle shape
    c.verify_shares(peers)
    with pytest.raises(RuntimeError):
        c.verify_shares(peers)
    # a fresh commit_round resets the machine for the next round
    c.commit_round(2, [0] * params.d)


def test_commit_round_input_validation():
    params = _params(n=3, m=1)
    _, clients = _network(params, seed=b"val")
    c = clients[1]
    with pytest.raises(ValueError):
        c.commit_round(1, [0] * (params.d - 1))
    with pytest.raises(ValueError):
        c.commit_round(1, [1 << (params.b_coord - 1)] + [0] * (params.d - 1))
    with pytest.raises(ValueError):
        Client(0, params, GeneratorSet.derive(mock, params.d, params.range_slots),
               DeterministicRng(b"x"))


def test_malformed_bundle_marked():
    params = _params(n=3, m=1)
    server, clients = _network(params, seed=b"malformed")
    server.begin_round(1)
    bundles = {i: c.commit_round(1, [0] * params.d) for i, c in clients.items()}
    b = bundles[2]
    bundles[2] = replace(b, y=b.y[:-1])
    del bundles[3]
    server.receive_bundles(bundles)
    assert server.malicious == {2: "malformed_bundle", 3: "no_commitment"}
    assert server.surviving == [1]


@pytest.mark.parametrize("points", [0, 1, 3])
def test_bundle_with_a_wrong_size_check_string_is_malformed(points):
    # threshold 2: an empty check string has no constant term z, and the
    # round must go on without reading it
    params = _params(n=3, m=1)
    assert params.threshold == 2
    server, clients = _network(params, seed=b"empty-check")
    updates = _small_updates(params, seed=7)
    server.begin_round(1)
    bundles = {i: c.commit_round(1, updates[i]) for i, c in clients.items()}
    check = bundles[2].check_string.points
    bundles[2] = replace(
        bundles[2], check_string=CheckString(points=(check * 2)[:points])
    )
    server.receive_bundles(bundles)
    assert server.malicious == {2: "malformed_bundle"}
    flags = {
        i: clients[i].verify_shares({j: b for j, b in bundles.items() if j != i})
        for i in (1, 3)
    }
    assert flags == {1: [2], 3: [2]}
    assert server.resolve_flags(flags) == {}
    nonce, h = server.proof_round()
    proofs = {i: clients[i].proof_round(nonce, h) for i in server.surviving}
    honest = server.receive_proofs(proofs)
    assert honest == [1, 3]
    total = server.aggregate({i: clients[i].aggregate_round(honest) for i in honest})
    assert total == [updates[1][l] + updates[3][l] for l in range(params.d)]


def test_malformed_bundle_flagged_by_peers():
    params = _params(n=5, m=2)
    _, clients = _network(params, seed=b"malformed-peer")
    bundles = {i: c.commit_round(1, [0] * params.d) for i, c in clients.items()}
    bundles[2] = replace(bundles[2], encrypted_shares=bundles[2].encrypted_shares[:1])
    bundles[3] = replace(bundles[3], check_string=CheckString(points=()))
    for i in (1, 4, 5):
        flags = clients[i].verify_shares({j: b for j, b in bundles.items() if j != i})
        assert flags == [2, 3]
