from dataclasses import replace

import pytest

from savi.group import GROUP_ORDER, make_backend
from savi.group.generators import derive_generators
from savi.group.multiexp import multiexp
from savi.rng import DeterministicRng
from savi.zkp import Transcript, gen_prf_sq, gen_prf_wf, sigma, ver_prf_sq, ver_prf_wf
from sigma_reference import (
    bumped, each_bump, make_link, ref_ver_prf_sq, ref_ver_prf_wf, wf_holds
)

Q = GROUP_ORDER

backend = make_backend("mock")
G = backend.base()
(H,) = derive_generators("sigma-h", 1, backend)


def _tr():
    """A fresh transcript: prover, verifier and reference each replay
    the same state."""
    return Transcript("sigma-test")


def _square_instance(rng, k, g=G, q=H, h=None):
    """A square statement over k projections and its witness; -> (h, e,
    o_prime, h_commit, r, v, x, rho).  ``h`` replaces the derived h_t."""
    h = list(h or derive_generators("sq-h", k, g.backend))
    r, x, rho = rng.scalar(), rng.scalar(), rng.scalar()
    v = [rng.scalar() % 97 - 48 for _ in range(k)]
    e = [multiexp([g, h[t]], [v[t] % Q, r]) for t in range(k)]
    o_prime = multiexp([g, q], [sum(v_t * v_t for v_t in v) % Q, x])
    v = [v_t % Q for v_t in v]
    h_commit = multiexp([*h, q], [*v, rho], g.backend)
    return h, e, o_prime, h_commit, r, v, x, rho


def _sq(rng, h, e, o_prime, h_commit, r, v, x, rho, g=G, q=H):
    return gen_prf_sq(g, q, h, e, o_prime, h_commit, r, v, x, rho, rng, _tr())


_ROWS = 4  # the link's rows here; a client proof has LAMBDA of them


def _wf_instance(rng, k, g=G, q=H, h=None):
    """A well-formedness statement with its link (over _ROWS generators
    G_j, masks y_j and a 0/1 matrix R) and its witness; -> (h, z, e,
    link, r, v, sigma).  ``h`` replaces the derived h_t."""
    h = list(h or derive_generators("wf-h", k + 1, g.backend))
    r = rng.scalar()
    v = [rng.scalar() for _ in range(k + 1)]
    z = r * g
    e = [multiexp([g, h[i]], [v[i], r]) for i in range(k + 1)]
    link, sigma = make_link(rng, derive_generators("wf-link", _ROWS, g.backend), q, v[1:])
    return h, z, e, link, r, v, sigma


def _wf_holds(g, q, h, z, e, link, proof):
    return wf_holds(g, q, h, z, e, link, proof, _tr())


@pytest.mark.parametrize("backend_name", ["mock", "ristretto255"])
@pytest.mark.parametrize("k", [0, 1, 3, 8])
def test_honest_proofs_verify(backend_name, k):
    b = make_backend(backend_name)
    g, (q,) = b.base(), derive_generators("sigma-h", 1, b)
    rng = DeterministicRng(f"honest/{k}".encode())
    h, e, o_prime, *witness = _square_instance(rng, k, g, q)
    tau = _sq(rng, h, e, o_prime, *witness, g=g, q=q)
    assert ver_prf_sq(g, q, h, e, o_prime, tau, _tr())
    assert ref_ver_prf_sq(g, q, h, e, o_prime, tau, _tr())
    h, z, e, link, r, v, sigma = _wf_instance(rng, k, g, q)
    rho = gen_prf_wf(g, q, h, z, e, link, r, v, sigma, rng, _tr())
    assert _wf_holds(g, q, h, z, e, link, rho)
    assert ref_ver_prf_wf(g, q, h, z, e, link, rho, _tr())


@pytest.mark.parametrize("backend_name", ["mock", "ristretto255"])
def test_noncanonical_challenge_fails_to_decode(backend_name):
    b = make_backend(backend_name)
    g, (q,) = b.base(), derive_generators("sigma-h", 1, b)
    rng = DeterministicRng(b"noncanonical")
    tau = _sq(rng, *_square_instance(rng, 2, g, q), g=g, q=q)
    h, z, e, link, r, v, sigma = _wf_instance(rng, 2, g, q)
    rho = gen_prf_wf(g, q, h, z, e, link, r, v, sigma, rng, _tr())
    # c is the first field of both: 32 bytes, then the responses
    for proof in (tau, rho):
        raw = proof.to_bytes()
        assert type(proof).from_bytes(raw, b) == proof
        for c in (Q, Q + proof.c, 2**256 - 1):
            with pytest.raises(ValueError):
                type(proof).from_bytes(c.to_bytes(32, "little") + raw[32:], b)


def test_square_roundtrip_k3():
    rng = DeterministicRng(b"sq-k3")
    h, e, o_prime, *witness = _square_instance(rng, 3)
    proof = _sq(rng, h, e, o_prime, *witness)
    assert ver_prf_sq(G, H, h, e, o_prime, proof, _tr())
    assert ref_ver_prf_sq(G, H, h, e, o_prime, proof, _tr())


def test_square_rejects_shifted_square():
    # o_prime committing sum v_t^2 + 1 instead of the sum must fail every
    # time
    rng = DeterministicRng(b"sq-shift")
    for _ in range(1000):
        h, e, o_prime, *witness = _square_instance(rng, 1)
        o_bad = o_prime + G
        proof = _sq(rng, h, e, o_bad, *witness)
        assert not ver_prf_sq(G, H, h, e, o_bad, proof, _tr())


def test_square_rejects_a_projection_other_than_e_opens():
    # the square proof's v_t must be the ones e opens: a prover whose o'
    # and H hold v_1 + 1 fails
    rng = DeterministicRng(b"sq-other-v")
    h, e, o_prime, h_commit, r, v, x, rho = _square_instance(rng, 3)
    v_bad = [(v[0] + 1) % Q, *v[1:]]
    o_bad = multiexp([G, H], [sum(t * t for t in v_bad) % Q, x])
    h_bad = multiexp([*h, H], [*v_bad, rho])
    proof = _sq(rng, h, e, o_bad, h_bad, r, v_bad, x, rho)
    assert not ver_prf_sq(G, H, h, e, o_bad, proof, _tr())
    assert not ref_ver_prf_sq(G, H, h, e, o_bad, proof, _tr())


def test_square_tamper_each_component():
    # c, y, y_x, y_rho, each response at each index, and H
    rng = DeterministicRng(b"sq-tamper")
    h, e, o_prime, *witness = _square_instance(rng, 2)
    proof = _sq(rng, h, e, o_prime, *witness)
    mutations = [*each_bump(proof), replace(proof, h_commit=proof.h_commit + G)]
    assert len(mutations) == 4 + 2 + 1
    for bad in mutations:
        assert not ver_prf_sq(G, H, h, e, o_prime, bad, _tr())
        assert not ref_ver_prf_sq(G, H, h, e, o_prime, bad, _tr())


def test_square_verifier_equals_reference():
    rng = DeterministicRng(b"sq-batch")
    for trial in range(100):
        k = 1 + rng.below(4)
        h, e, o_prime, *witness = _square_instance(rng, k)
        proof = _sq(rng, h, e, o_prime, *witness)
        if trial % 3 == 0:  # tamper one random coordinate
            i = rng.below(k)
            e = list(e)
            e[i] = e[i] + G
        elif trial % 3 == 1:  # or one random response
            proof = bumped(proof, "y_vec", rng.below(k))
        assert ver_prf_sq(G, H, h, e, o_prime, proof, _tr()) == ref_ver_prf_sq(
            G, H, h, e, o_prime, proof, _tr()
        ) == (trial % 3 == 2)


def test_wellformed_k0_degenerate():
    # no projections: the statement collapses to knowledge of (v0, r)
    rng = DeterministicRng(b"wf-k0")
    h, z, e, link, r, v, sigma = _wf_instance(rng, 0)
    proof = gen_prf_wf(G, H, h, z, e, link, r, v, sigma, rng, _tr())
    assert _wf_holds(G, H, h, z, e, link, proof)


def test_wellformed_roundtrip():
    rng = DeterministicRng(b"wf-rt")
    h, z, e, link, r, v, sigma = _wf_instance(rng, 4)
    proof = gen_prf_wf(G, H, h, z, e, link, r, v, sigma, rng, _tr())
    assert _wf_holds(G, H, h, z, e, link, proof)
    assert ref_ver_prf_wf(G, H, h, z, e, link, proof, _tr())


def test_wellformed_detects_e_link_mismatch():
    # e_1 opens v_1 but the link's answers are made on v_1 + 1: the
    # challenge holds, and the link identity fails
    rng = DeterministicRng(b"wf-mismatch")
    h, z, e, _, r, v, _ = _wf_instance(rng, 3)
    claims = [(v[1] + 1) % Q, *v[2:]]
    link, sigma = make_link(rng, derive_generators("wf-link", _ROWS, G.backend), H, claims)
    proof = gen_prf_wf(G, H, h, z, e, link, r, v, sigma, rng, _tr())
    assert ver_prf_wf(G, H, h, z, e, link, proof, _tr()) is not None
    assert not _wf_holds(G, H, h, z, e, link, proof)
    assert not ref_ver_prf_wf(G, H, h, z, e, link, proof, _tr())


def test_wellformed_tamper_each_component():
    # c, y, each response at each index, y_sigma and the link's announcement
    rng = DeterministicRng(b"wf-tamper")
    h, z, e, link, r, v, sigma = _wf_instance(rng, 3)
    proof = gen_prf_wf(G, H, h, z, e, link, r, v, sigma, rng, _tr())
    mutations = list(each_bump(proof)) + [replace(proof, t_link=proof.t_link + G)]
    assert len(mutations) == 2 + 4 + 1 + 1
    for bad in mutations:
        assert not _wf_holds(G, H, h, z, e, link, bad)
        assert not ref_ver_prf_wf(G, H, h, z, e, link, bad, _tr())
    # and each public part of the link: Y, one z_j, one bit of R
    for bad in (
        replace(link, y_commit=link.y_commit + G),
        replace(link, z=[(link.z[0] + 1) % Q, *link.z[1:]]),
        replace(link, rows=[[1 - link.rows[0][0], *link.rows[0][1:]], *link.rows[1:]]),
    ):
        assert not _wf_holds(G, H, h, z, e, bad, proof)
        assert not ref_ver_prf_wf(G, H, h, z, e, bad, proof, _tr())


def test_wellformed_verifier_equals_reference():
    rng = DeterministicRng(b"wf-batch")
    for trial in range(100):
        k = rng.below(4)
        h, z, e, link, r, v, sigma = _wf_instance(rng, k)
        proof = gen_prf_wf(G, H, h, z, e, link, r, v, sigma, rng, _tr())
        if trial % 3 == 1:
            e = list(e)
            i = rng.below(k + 1)
            e[i] = e[i] + G
        elif trial % 3 == 2:
            proof = bumped(proof, "y_vec", rng.below(k + 1))
        assert _wf_holds(G, H, h, z, e, link, proof) == ref_ver_prf_wf(
            G, H, h, z, e, link, proof, _tr()
        ) == (trial % 3 == 0)


@pytest.mark.parametrize("k", [0, 3, 16])
def test_each_statement_is_one_multiexps_batch(k, monkeypatch):
    # every announcement of a statement is a row of one batch; the
    # prover's link announcement is its own multiexp
    calls = []

    def counted(name, fn):
        def run(*args):
            calls.append(name)
            return fn(*args)
        return run

    monkeypatch.setattr(sigma, "multiexps", counted("multiexps", sigma.multiexps))
    monkeypatch.setattr(sigma, "multiexp", counted("link", sigma.multiexp))

    def made(run):
        calls.clear()
        return run(), list(calls)

    rng = DeterministicRng(f"one-batch/{k}".encode())
    h, e, o_prime, *witness = _square_instance(rng, k)
    h_wf, z, e_wf, link, r, v, sig = _wf_instance(rng, k)
    tau, made_sq = made(lambda: _sq(rng, h, e, o_prime, *witness))
    rho, made_wf = made(lambda: gen_prf_wf(G, H, h_wf, z, e_wf, link, r, v, sig, rng, _tr()))
    assert (made_sq, made_wf) == (["multiexps"], ["link", "multiexps"])
    assert made(lambda: ver_prf_sq(G, H, h, e, o_prime, tau, _tr())) == (True, ["multiexps"])
    checked, made_ver_wf = made(lambda: ver_prf_wf(G, H, h_wf, z, e_wf, link, rho, _tr()))
    assert checked is not None and made_ver_wf == ["multiexps"]


@pytest.mark.parametrize("backend_name", ["mock", "ristretto255"])
def test_repeated_and_identity_bases(backend_name):
    # two equal h_t and one identity h_t: the only statements in which
    # a (base, witness index) product is a term of two equations.  Every
    # bumped response fails: v_t at the identity h_t still multiplies g
    # and e_t (at savi/v9, -w_t there multiplied only the identity, and a
    # bumped one verified)
    b = make_backend(backend_name)
    g, (q, h0, h1) = b.base(), derive_generators("sigma-repeat", 3, b)
    rng = DeterministicRng(f"repeat/{backend_name}".encode())
    h = [h0, h1, h0, b.identity()]
    h, e, o_prime, *witness = _square_instance(rng, 4, g, q, h=h)
    tau = _sq(rng, h, e, o_prime, *witness, g=g, q=q)
    assert ver_prf_sq(g, q, h, e, o_prime, tau, _tr())
    assert ref_ver_prf_sq(g, q, h, e, o_prime, tau, _tr())
    for bad in each_bump(tau):
        assert not ver_prf_sq(g, q, h, e, o_prime, bad, _tr())
        assert not ref_ver_prf_sq(g, q, h, e, o_prime, bad, _tr())
    h, z, e, link, r, v, sig = _wf_instance(rng, 3, g, q, h=h)
    rho = gen_prf_wf(g, q, h, z, e, link, r, v, sig, rng, _tr())
    assert _wf_holds(g, q, h, z, e, link, rho)
    assert ref_ver_prf_wf(g, q, h, z, e, link, rho, _tr())
    for bad in each_bump(rho):
        assert not _wf_holds(g, q, h, z, e, link, bad)
        assert not ref_ver_prf_wf(g, q, h, z, e, link, bad, _tr())


def test_transcript_context_separation():
    a = Transcript("context-a")
    b = Transcript("context-b")
    for t in (a, b):
        t.absorb_bytes("x", (7).to_bytes(32, "little"))
    assert a.challenge("c") != b.challenge("c")


def test_transcript_label_and_order_sensitivity():
    t1 = Transcript("ctx")
    t1.absorb_bytes("l1", b"ab")
    t1.absorb_bytes("l2", b"cd")
    t2 = Transcript("ctx")
    t2.absorb_bytes("l2", b"cd")
    t2.absorb_bytes("l1", b"ab")
    assert t1.challenge("c") != t2.challenge("c")

    # length-prefixed frames: ("a", "bc") never collides with ("ab", "c")
    t3 = Transcript("ctx")
    t3.absorb_bytes("a", b"bc")
    t4 = Transcript("ctx")
    t4.absorb_bytes("ab", b"c")
    assert t3.challenge("c") != t4.challenge("c")


def test_transcript_challenges_ratchet():
    t = Transcript("ratchet")
    t.absorb_bytes("x", (1).to_bytes(32, "little"))
    c1 = t.challenge("c")
    c2 = t.challenge("c")
    assert c1 != c2


def test_transcript_fuzz_no_cross_context_collisions():
    rng = DeterministicRng(b"transcript-fuzz")
    seen = {}
    for i in range(10_000):
        ctx = f"ctx-{i % 7}"
        t = Transcript(ctx)
        data = rng.take(1 + rng.below(16))
        t.absorb_bytes("payload", data)
        c = t.challenge("c")
        key = (ctx, data)
        assert seen.setdefault(key, c) == c  # deterministic
        for (other_ctx, other_data), other_c in list(seen.items())[:5]:
            if (other_ctx, other_data) != key:
                assert other_c != c


def test_proof_components_vary_between_reproofs():
    # fresh nonces every proof: responses must not repeat, and their
    # encodings should spread over the scalars (coarse uniformity)
    rng = DeterministicRng(b"zk-structural")
    instance = _square_instance(rng, 1)
    first_bytes = []
    seen = set()
    for _ in range(200):
        proof = _sq(rng, *instance)
        enc = proof.y_vec[0].to_bytes(32, "little")
        assert enc not in seen
        seen.add(enc)
        first_bytes.append(enc[0])
    assert len(set(first_bytes)) > 50
    assert max(first_bytes.count(b) for b in set(first_bytes)) < 20
