from dataclasses import replace

import pytest

from savi.group import GROUP_ORDER, make_backend
from savi.group.generators import derive_generators
from savi.group.multiexp import multiexp
from savi.rng import DeterministicRng
from savi.zkp import Transcript, gen_prf_sq, gen_prf_wf, ver_prf_sq
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


def _square_instance(rng, k, g=G, h=H):
    x = [rng.scalar() for _ in range(k)]
    r1 = [rng.scalar() for _ in range(k)]
    r2 = [rng.scalar() for _ in range(k)]
    y1 = [multiexp([g, h], [x[i], r1[i]]) for i in range(k)]
    y2 = [multiexp([g, h], [x[i] * x[i] % Q, r2[i]]) for i in range(k)]
    return x, r1, r2, y1, y2


_ROWS = 4  # the link's rows here; a client proof has LAMBDA of them


def _wf_instance(rng, k, g=G, q=H):
    """A well-formedness statement with its link (over _ROWS generators
    G_j, masks y_j and a 0/1 matrix R) and its witness; -> (h, z, e, o,
    link, r, v, s, sigma)."""
    h = list(derive_generators("wf-h", k + 1, g.backend))
    r = rng.scalar()
    v = [rng.scalar() for _ in range(k + 1)]
    s = [rng.scalar() for _ in range(k)]
    z = r * g
    e = [multiexp([g, h[i]], [v[i], r]) for i in range(k + 1)]
    o = [multiexp([g, q], [v[i + 1], s[i]]) for i in range(k)]
    link, sigma = make_link(rng, derive_generators("wf-link", _ROWS, g.backend), q, v[1:])
    return h, z, e, o, link, r, v, s, sigma


def _wf_holds(g, q, h, z, e, o, link, proof):
    return wf_holds(g, q, h, z, e, o, link, proof, _tr())


@pytest.mark.parametrize("backend_name", ["mock", "ristretto255"])
@pytest.mark.parametrize("k", [0, 1, 3, 8])
def test_honest_proofs_verify(backend_name, k):
    b = make_backend(backend_name)
    g, (q,) = b.base(), derive_generators("sigma-h", 1, b)
    rng = DeterministicRng(f"honest/{k}".encode())
    x, r1, r2, y1, y2 = _square_instance(rng, k, g, q)
    tau = gen_prf_sq(g, q, y1, y2, x, r1, r2, rng, _tr())
    assert ver_prf_sq(g, q, y1, y2, tau, _tr())
    assert ref_ver_prf_sq(g, q, y1, y2, tau, _tr())
    h, z, e, o, link, r, v, s, sigma = _wf_instance(rng, k, g, q)
    rho = gen_prf_wf(g, q, h, z, e, o, link, r, v, s, sigma, rng, _tr())
    assert _wf_holds(g, q, h, z, e, o, link, rho)
    assert ref_ver_prf_wf(g, q, h, z, e, o, link, rho, _tr())


@pytest.mark.parametrize("backend_name", ["mock", "ristretto255"])
def test_noncanonical_challenge_fails_to_decode(backend_name):
    b = make_backend(backend_name)
    g, (q,) = b.base(), derive_generators("sigma-h", 1, b)
    rng = DeterministicRng(b"noncanonical")
    x, r1, r2, y1, y2 = _square_instance(rng, 2, g, q)
    tau = gen_prf_sq(g, q, y1, y2, x, r1, r2, rng, _tr())
    h, z, e, o, link, r, v, s, sigma = _wf_instance(rng, 2, g, q)
    rho = gen_prf_wf(g, q, h, z, e, o, link, r, v, s, sigma, rng, _tr())
    # c is the first field of both: 32 bytes, then the responses
    for proof in (tau, rho):
        raw = proof.to_bytes()
        assert type(proof).from_bytes(raw, b) == proof
        for c in (Q, Q + proof.c, 2**256 - 1):
            with pytest.raises(ValueError):
                type(proof).from_bytes(c.to_bytes(32, "little") + raw[32:], b)


def test_square_roundtrip_k3():
    rng = DeterministicRng(b"sq-k3")
    x, r1, r2, y1, y2 = _square_instance(rng, 3)
    proof = gen_prf_sq(G, H, y1, y2, x, r1, r2, rng, _tr())
    assert ver_prf_sq(G, H, y1, y2, proof, _tr())
    assert ref_ver_prf_sq(G, H, y1, y2, proof, _tr())


def test_square_rejects_shifted_square():
    # y2 committing x^2 + 1 instead of x^2 must fail every time
    rng = DeterministicRng(b"sq-shift")
    for _ in range(1000):
        x, r1, r2, y1, y2 = _square_instance(rng, 1)
        y2_bad = [y2[0] + G]
        proof = gen_prf_sq(G, H, y1, y2_bad, x, r1, r2, rng, _tr())
        assert not ver_prf_sq(G, H, y1, y2_bad, proof, _tr())


def test_square_tamper_each_component():
    # c, and each response at each index
    rng = DeterministicRng(b"sq-tamper")
    x, r1, r2, y1, y2 = _square_instance(rng, 2)
    proof = gen_prf_sq(G, H, y1, y2, x, r1, r2, rng, _tr())
    mutations = list(each_bump(proof))
    assert len(mutations) == 1 + 3 * 2
    for bad in mutations:
        assert not ver_prf_sq(G, H, y1, y2, bad, _tr())
        assert not ref_ver_prf_sq(G, H, y1, y2, bad, _tr())


def test_square_verifier_equals_reference():
    rng = DeterministicRng(b"sq-batch")
    for trial in range(100):
        k = 1 + rng.below(4)
        x, r1, r2, y1, y2 = _square_instance(rng, k)
        proof = gen_prf_sq(G, H, y1, y2, x, r1, r2, rng, _tr())
        if trial % 3 == 0:  # tamper one random coordinate
            i = rng.below(k)
            y1 = list(y1)
            y1[i] = y1[i] + G
        elif trial % 3 == 1:  # or one random response
            proof = bumped(proof, ("s1", "s2", "s3")[rng.below(3)], rng.below(k))
        assert ver_prf_sq(G, H, y1, y2, proof, _tr()) == ref_ver_prf_sq(
            G, H, y1, y2, proof, _tr()
        ) == (trial % 3 == 2)


def test_wellformed_k0_degenerate():
    # no projections: the statement collapses to knowledge of (v0, r)
    rng = DeterministicRng(b"wf-k0")
    h, z, e, o, link, r, v, s, sigma = _wf_instance(rng, 0)
    proof = gen_prf_wf(G, H, h, z, e, o, link, r, v, s, sigma, rng, _tr())
    assert _wf_holds(G, H, h, z, e, o, link, proof)


def test_wellformed_roundtrip():
    rng = DeterministicRng(b"wf-rt")
    h, z, e, o, link, r, v, s, sigma = _wf_instance(rng, 4)
    proof = gen_prf_wf(G, H, h, z, e, o, link, r, v, s, sigma, rng, _tr())
    assert _wf_holds(G, H, h, z, e, o, link, proof)
    assert ref_ver_prf_wf(G, H, h, z, e, o, link, proof, _tr())


def test_wellformed_detects_e_o_mismatch():
    # e_1 commits v_1 but o_1 commits v_1 + 1
    rng = DeterministicRng(b"wf-mismatch")
    h, z, e, o, link, r, v, s, sigma = _wf_instance(rng, 3)
    o = list(o)
    o[0] = o[0] + G
    proof = gen_prf_wf(G, H, h, z, e, o, link, r, v, s, sigma, rng, _tr())
    assert not _wf_holds(G, H, h, z, e, o, link, proof)


def test_wellformed_tamper_each_component():
    # c, y, each response at each index, y_sigma and the link's announcement
    rng = DeterministicRng(b"wf-tamper")
    h, z, e, o, link, r, v, s, sigma = _wf_instance(rng, 3)
    proof = gen_prf_wf(G, H, h, z, e, o, link, r, v, s, sigma, rng, _tr())
    mutations = list(each_bump(proof)) + [replace(proof, t_link=proof.t_link + G)]
    assert len(mutations) == 2 + 4 + 3 + 1 + 1
    for bad in mutations:
        assert not _wf_holds(G, H, h, z, e, o, link, bad)
        assert not ref_ver_prf_wf(G, H, h, z, e, o, link, bad, _tr())
    # and each public part of the link: Y, one z_j, one bit of R
    for bad in (
        replace(link, y_commit=link.y_commit + G),
        replace(link, z=[(link.z[0] + 1) % Q, *link.z[1:]]),
        replace(link, rows=[[1 - link.rows[0][0], *link.rows[0][1:]], *link.rows[1:]]),
    ):
        assert not _wf_holds(G, H, h, z, e, o, bad, proof)
        assert not ref_ver_prf_wf(G, H, h, z, e, o, bad, proof, _tr())


def test_wellformed_verifier_equals_reference():
    rng = DeterministicRng(b"wf-batch")
    for trial in range(100):
        k = rng.below(4)
        h, z, e, o, link, r, v, s, sigma = _wf_instance(rng, k)
        proof = gen_prf_wf(G, H, h, z, e, o, link, r, v, s, sigma, rng, _tr())
        if trial % 3 == 1:
            e = list(e)
            i = rng.below(k + 1)
            e[i] = e[i] + G
        elif trial % 3 == 2:
            proof = bumped(proof, "y_vec", rng.below(k + 1))
        assert _wf_holds(G, H, h, z, e, o, link, proof) == ref_ver_prf_wf(
            G, H, h, z, e, o, link, proof, _tr()
        ) == (trial % 3 == 0)


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
    x, r1, r2, y1, y2 = _square_instance(rng, 1)
    first_bytes = []
    seen = set()
    for _ in range(200):
        proof = gen_prf_sq(G, H, y1, y2, x, r1, r2, rng, _tr())
        enc = proof.s1[0].to_bytes(32, "little")
        assert enc not in seen
        seen.add(enc)
        first_bytes.append(enc[0])
    assert len(set(first_bytes)) > 50
    assert max(first_bytes.count(b) for b in set(first_bytes)) < 20
