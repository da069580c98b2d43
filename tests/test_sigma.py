import pytest

from savi.group import GROUP_ORDER, make_backend
from savi.group.generators import derive_generators
from savi.group.multiexp import multiexp
from savi.rng import DeterministicRng
from savi.zkp import Transcript, gen_prf_sq, gen_prf_wf, ver_prf_sq, ver_prf_wf
from savi.zkp.sigma import _square_challenge, _wellformed_challenge

Q = GROUP_ORDER

backend = make_backend("mock")
G = backend.base()
(H,) = derive_generators("sigma-h", 1, backend)


def _tr():
    """A fresh transcript: prover, verifier and naive check each replay
    the same state."""
    return Transcript("sigma-test")


def _square_instance(rng, k):
    x = [rng.scalar() for _ in range(k)]
    r1 = [rng.scalar() for _ in range(k)]
    r2 = [rng.scalar() for _ in range(k)]
    y1 = [multiexp([G, H], [x[i], r1[i]]) for i in range(k)]
    y2 = [multiexp([G, H], [x[i] * x[i] % Q, r2[i]]) for i in range(k)]
    return x, r1, r2, y1, y2


def naive_ver_prf_sq(y1, y2, proof):
    """Unbatched conjunction: both equations per index, no random
    weights."""
    k = len(y1)
    c = _square_challenge(_tr(), G, H, y1, y2, proof.t1, proof.t2)
    for i in range(k):
        lhs1 = multiexp([G, H, y1[i]], [proof.s1[i], proof.s2[i], c])
        if lhs1 != proof.t1[i]:
            return False
        lhs2 = multiexp([y1[i], H, y2[i]], [proof.s1[i], proof.s3[i], c])
        if lhs2 != proof.t2[i]:
            return False
    return True


def test_square_roundtrip_k3():
    rng = DeterministicRng(b"sq-k3")
    x, r1, r2, y1, y2 = _square_instance(rng, 3)
    proof = gen_prf_sq(G, H, y1, y2, x, r1, r2, rng, _tr())
    assert ver_prf_sq(G, H, y1, y2, proof, rng, _tr())
    assert naive_ver_prf_sq(y1, y2, proof)


def test_square_rejects_shifted_square():
    # y2 committing x^2 + 1 instead of x^2 must fail every time
    rng = DeterministicRng(b"sq-shift")
    for _ in range(1000):
        x, r1, r2, y1, y2 = _square_instance(rng, 1)
        y2_bad = [y2[0] + G]
        proof = gen_prf_sq(G, H, y1, y2_bad, x, r1, r2, rng, _tr())
        assert not ver_prf_sq(G, H, y1, y2_bad, proof, rng, _tr())


def test_square_tamper_each_component():
    rng = DeterministicRng(b"sq-tamper")
    x, r1, r2, y1, y2 = _square_instance(rng, 2)
    proof = gen_prf_sq(G, H, y1, y2, x, r1, r2, rng, _tr())
    mutations = [
        proof.__class__(
            t1=(proof.t1[0] + G, proof.t1[1]), t2=proof.t2,
            s1=proof.s1, s2=proof.s2, s3=proof.s3,
        ),
        proof.__class__(
            t1=proof.t1, t2=(proof.t2[0], proof.t2[1] + G),
            s1=proof.s1, s2=proof.s2, s3=proof.s3,
        ),
        proof.__class__(
            t1=proof.t1, t2=proof.t2,
            s1=((proof.s1[0] + 1) % Q, proof.s1[1]), s2=proof.s2, s3=proof.s3,
        ),
        proof.__class__(
            t1=proof.t1, t2=proof.t2,
            s1=proof.s1, s2=(proof.s2[0], (proof.s2[1] + 1) % Q), s3=proof.s3,
        ),
        proof.__class__(
            t1=proof.t1, t2=proof.t2,
            s1=proof.s1, s2=proof.s2, s3=((proof.s3[0] + 1) % Q, proof.s3[1]),
        ),
    ]
    for bad in mutations:
        assert not ver_prf_sq(G, H, y1, y2, bad, rng, _tr())
        assert not naive_ver_prf_sq(y1, y2, bad)


def test_square_batch_equals_naive_conjunction():
    rng = DeterministicRng(b"sq-batch")
    for trial in range(100):
        k = 1 + rng.below(4)
        x, r1, r2, y1, y2 = _square_instance(rng, k)
        proof = gen_prf_sq(G, H, y1, y2, x, r1, r2, rng, _tr())
        if trial % 3 == 0:  # tamper one random coordinate
            i = rng.below(k)
            y1 = list(y1)
            y1[i] = y1[i] + G
        assert ver_prf_sq(G, H, y1, y2, proof, rng, _tr()) == naive_ver_prf_sq(
            y1, y2, proof
        )


def _wf_instance(rng, k):
    h = list(derive_generators("wf-h", k + 1, backend))
    r = rng.scalar()
    v = [rng.scalar() for _ in range(k + 1)]
    s = [rng.scalar() for _ in range(k)]
    z = r * G
    e = [multiexp([G, h[i]], [v[i], r]) for i in range(k + 1)]
    o = [multiexp([G, H], [v[i + 1], s[i]]) for i in range(k)]
    return h, z, e, o, r, v, s


def naive_ver_prf_wf(h, z, e, o, proof):
    k = len(o)
    c = _wellformed_challenge(_tr(), G, H, h, z, e, o, proof.u, proof.t, proof.t_star)
    if proof.u != multiexp([G, z], [proof.y, c]):
        return False
    for i in range(k + 1):
        if proof.t[i] != multiexp([G, h[i], e[i]], [proof.y_vec[i], proof.y, c]):
            return False
    for i in range(k):
        if proof.t_star[i] != multiexp(
            [G, H, o[i]], [proof.y_vec[i + 1], proof.y_star[i], c]
        ):
            return False
    return True


def test_wellformed_k0_degenerate():
    # no projections: the statement collapses to knowledge of (v0, r)
    rng = DeterministicRng(b"wf-k0")
    h, z, e, o, r, v, s = _wf_instance(rng, 0)
    proof = gen_prf_wf(G, H, h, z, e, o, r, v, s, rng, _tr())
    assert ver_prf_wf(G, H, h, z, e, o, proof, rng, _tr())


def test_wellformed_roundtrip():
    rng = DeterministicRng(b"wf-rt")
    h, z, e, o, r, v, s = _wf_instance(rng, 4)
    proof = gen_prf_wf(G, H, h, z, e, o, r, v, s, rng, _tr())
    assert ver_prf_wf(G, H, h, z, e, o, proof, rng, _tr())
    assert naive_ver_prf_wf(h, z, e, o, proof)


def test_wellformed_detects_e_o_mismatch():
    # e_1 commits v_1 but o_1 commits v_1 + 1
    rng = DeterministicRng(b"wf-mismatch")
    h, z, e, o, r, v, s = _wf_instance(rng, 3)
    o = list(o)
    o[0] = o[0] + G
    proof = gen_prf_wf(G, H, h, z, e, o, r, v, s, rng, _tr())
    assert not ver_prf_wf(G, H, h, z, e, o, proof, rng, _tr())


def test_wellformed_batch_equals_naive_conjunction():
    rng = DeterministicRng(b"wf-batch")
    for trial in range(100):
        k = rng.below(4)
        h, z, e, o, r, v, s = _wf_instance(rng, k)
        proof = gen_prf_wf(G, H, h, z, e, o, r, v, s, rng, _tr())
        if trial % 3 == 1:
            e = list(e)
            i = rng.below(k + 1)
            e[i] = e[i] + G
        assert ver_prf_wf(G, H, h, z, e, o, proof, rng, _tr()) == naive_ver_prf_wf(
            h, z, e, o, proof
        )


def test_transcript_context_separation():
    a = Transcript("context-a")
    b = Transcript("context-b")
    for t in (a, b):
        t.absorb_scalar("x", 7)
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
    t.absorb_scalar("x", 1)
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
    # fresh nonces every proof: commitments must not repeat, and their
    # encodings should spread over the group (coarse uniformity)
    rng = DeterministicRng(b"zk-structural")
    x, r1, r2, y1, y2 = _square_instance(rng, 1)
    first_bytes = []
    seen = set()
    for _ in range(200):
        proof = gen_prf_sq(G, H, y1, y2, x, r1, r2, rng, _tr())
        enc = proof.t1[0].encode()
        assert enc not in seen
        seen.add(enc)
        first_bytes.append(enc[0])
    assert len(set(first_bytes)) > 50
    assert max(first_bytes.count(b) for b in set(first_bytes)) < 20
