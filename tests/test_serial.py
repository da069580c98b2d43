"""The wire codec: legacy byte layouts, the pinned message layouts and
hostile-byte decoding."""

import dataclasses
import functools
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savi.commit import CommitmentBundle
from savi.group import GROUP_ORDER, make_backend
from savi.harness import desk_preset
from savi.harness.simulate import MSG_BLIND_SHARE, MSG_BUNDLE, MSG_PROOF, Simulation
from savi.protocol.pairwise import seal_share
from savi.serial import U32, Message, decode, encode
from savi.vsss import CheckString, Share
from savi.rng import DeterministicRng
from savi.zkp import IntegrityProof, Transcript, gen_prf_sq, gen_prf_wf, ver_integrity_set
from savi.zkp.sigma import Link


def _legacy_flag_report(report):
    return struct.pack(f"<I{len(report)}I", len(report), *report)


def _legacy_clear_shares(shares):
    return struct.pack("<I", len(shares)) + b"".join(
        struct.pack("<I", sh.index) + sh.value.to_bytes(32, "little") for sh in shares
    )


@pytest.mark.parametrize("report", [(), (3,), (1, 2, 7), (2**32 - 1,)])
def test_flag_report_matches_legacy_layout(report):
    raw = encode(tuple[U32, ...], report)
    assert raw == _legacy_flag_report(report)
    assert decode(tuple[U32, ...], raw) == report


@pytest.mark.parametrize("n", [0, 1, 3])
def test_clear_shares_match_legacy_layout(n):
    shares = tuple(Share(index=i + 1, value=(i * 0x9E3779B97F4A7C15) ** 3 % GROUP_ORDER)
                   for i in range(n))
    raw = encode(tuple[Share, ...], shares)
    assert raw == _legacy_clear_shares(shares)
    assert decode(tuple[Share, ...], raw) == shares


def _message_kinds(cls=Message):
    for sub in cls.__subclasses__():
        yield sub
        yield from _message_kinds(sub)


def test_wire_surface_is_pinned():
    # a message's bytes follow from its fields, in order: changing one is
    # a deliberate edit of this test and a bump of the transcript domain
    fields = {
        tp.__name__: [f.name for f in dataclasses.fields(tp)]
        for tp in (*_message_kinds(), Share, CheckString)
    }
    assert fields == {
        "CommitmentBundle": ["y", "encrypted_shares", "check_string"],
        # savi/v7, the proof of smallness; at savi/v6 ["e_star", "o",
        # "o_prime", "rho", "tau", "sigma", "mu"] and ["c", "y", "y_vec",
        # "y_star"]
        "IntegrityProof": ["e_star", "o", "o_prime", "masks", "z", "rho", "tau", "mu"],
        "WellFormedProof": ["c", "y", "y_vec", "y_star", "y_sigma", "t_link"],
        "SquareProof": ["c", "s1", "s2", "s3"],
        # savi/v6, Bulletproofs+; at savi/v5 ["a_commit", "s_commit",
        # "t1_commit", "t2_commit", "tau_x", "mu", "t_hat", "ls", "rs", "a", "b"]
        "RangeProof": ["a_commit", "ls", "rs", "a1_commit", "b1_commit", "r", "s", "delta"],
        "Share": ["index", "value"],
        "CheckString": ["points"],
    }
    # a sealed share is its 32-byte value and the 16-byte tag; the index
    # is the receiver, bound by the nonce
    for value in (0, GROUP_ORDER - 1):
        assert len(seal_share(b"k" * 32, 1, 1, 2, value)) == 48


@pytest.mark.parametrize("k", [1, 8, 32])
def test_sigma_proof_sizes_are_pinned(k):
    # the (c, s) form sends scalars only, but for the link's announcement:
    # c, y, the two counted runs y_vec (k+1) and y_star (k), y_sigma and
    # t_link for rho (104 + 64k before the link); c and three runs of k
    # for tau
    b = make_backend("mock")
    g, q = b.base(), b.from_uniform(bytes(64))
    rng = DeterministicRng(f"sizes/{k}".encode())
    h = [b.from_uniform(rng.take(64)) for _ in range(k + 1)]
    v = [rng.scalar() for _ in range(k + 1)]
    s, s2, r = [rng.scalar() for _ in range(k)], [rng.scalar() for _ in range(k)], rng.scalar()
    e = [v[i] * g + r * h[i] for i in range(k + 1)]
    o = [v[i + 1] * g + s[i] * q for i in range(k)]
    o2 = [v[i + 1] ** 2 * g + s2[i] * q for i in range(k)]
    gs = [b.from_uniform(rng.take(64)) for _ in range(2)]
    link = Link(gs, [[1] * k, [0] * k], gs[0] + q, [1 + sum(v[1:]), 1])  # y = (1, 1), sigma 1
    rho = gen_prf_wf(g, q, h, r * g, e, o, link, r, v, s, 1, rng, Transcript("sizes"))
    tau = gen_prf_sq(g, q, o, o2, v[1:], s, s2, rng, Transcript("sizes"))
    assert len(rho.to_bytes()) == 168 + 64 * k
    assert len(tau.to_bytes()) == 44 + 96 * k


@functools.cache
def _first_round(backend_name):
    """A simulation after its first round, and that round's messages."""
    cfg = desk_preset(n=3, m=0, d=8, k=4, epsilon_log2=-16, M=16, b_max=64,
                      seed=3, backend=backend_name)
    sim = Simulation(cfg)
    return sim, sim.run_round(1).messages


@functools.cache
def _payloads(backend_name):
    """(wire type, real payload) for every decoded message kind."""
    first = {}
    for kind, _, payload in _first_round(backend_name)[1]:
        first.setdefault(kind, payload)
    shares = (Share(index=2, value=GROUP_ORDER - 5), Share(index=3, value=1))
    return {
        "bundle": (CommitmentBundle, first[MSG_BUNDLE]),
        "proof": (IntegrityProof, first[MSG_PROOF]),
        "blind_share": (int, first[MSG_BLIND_SHARE]),
        "flag_report": (tuple[U32, ...], encode(tuple[U32, ...], (2, 3))),
        "clear_shares": (tuple[Share, ...], encode(tuple[Share, ...], shares)),
        "sealed_share_plaintext": (int, encode(int, shares[0].value)),
    }


_mutation = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=40)),
    st.tuples(st.just("flip"), st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
)


def _mutate(data, mutation):
    op, arg, *rest = mutation
    if op == "extend":
        return data + arg
    pos = int(arg * len(data))
    if op == "truncate":
        return data[:pos]
    return data[:pos] + bytes([data[pos] ^ rest[0]]) + data[pos + 1:]


@pytest.mark.parametrize("backend_name", ["mock", "ristretto255"])
@pytest.mark.parametrize("kind", ["bundle", "proof", "blind_share", "flag_report",
                                  "clear_shares", "sealed_share_plaintext"])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(mutation=_mutation)
def test_decode_mutated_payload_returns_or_raises_value_error(backend_name, kind, mutation):
    tp, payload = _payloads(backend_name)[kind]
    backend = make_backend(backend_name)
    assert encode(tp, decode(tp, payload, backend)) == payload
    data = _mutate(payload, mutation)
    try:
        value = decode(tp, data, backend)
    except ValueError:
        return
    # whatever parses is canonical: it re-encodes to the bytes it came from
    assert encode(tp, value) == data
    if kind == "proof":
        # and a proof that parses is verified against its round's real
        # statement, which names the check it fails
        assert _proof_verdict(backend_name, value) in _REJECTIONS


_REJECTIONS = {"malformed", "consistency", "wellformed", "square", "range_ip", "range_sum"}


def _proof_verdict(backend_name, proof):
    """The verifier's label for ``proof`` sent in place of the first
    proof of ``_first_round``."""
    sim, messages = _first_round(backend_name)
    sender = next(sender for kind, sender, _ in messages if kind == MSG_PROOF)
    server, bundle = sim.server, sim.server.bundles[sender]
    verdicts = ver_integrity_set(
        server.params, server.gens, server.matrix, server.h,
        {sender: (bundle.z, bundle.y, proof)}, 1, DeterministicRng(b"mutated-proof"),
    )[0]
    return verdicts[sender]


def _smallness_offsets(backend_name):
    """The byte offsets of the first proof's smallness fields: Y and z
    (one run), then rho's y_sigma and t_link (its last 64 bytes)."""
    payload = _payloads(backend_name)["proof"][1]
    proof = decode(IntegrityProof, payload, make_backend(backend_name))
    start = sum(4 + 32 * len(getattr(proof, f)) for f in ("e_star", "o", "o_prime"))
    z_end = start + 32 + 4 + len(proof.z)
    rho_end = z_end + 4 + len(proof.rho.to_bytes())
    return [*range(start, z_end), *range(rho_end - 64, rho_end)]


@pytest.mark.parametrize("backend_name", ["mock", "ristretto255"])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(where=st.floats(0, 1, exclude_max=True), flip=st.integers(1, 255))
def test_mutated_smallness_field_raises_or_is_rejected(backend_name, where, flip):
    # one byte of Y, of z (its length or packed values), of y_sigma
    # or of t_link flipped: the proof fails to parse or fails a check
    payload = _payloads(backend_name)["proof"][1]
    offsets = _smallness_offsets(backend_name)
    pos = offsets[int(where * len(offsets))]
    data = payload[:pos] + bytes([payload[pos] ^ flip]) + payload[pos + 1:]
    try:
        value = decode(IntegrityProof, data, make_backend(backend_name))
    except ValueError:
        return
    assert encode(IntegrityProof, value) == data
    assert _proof_verdict(backend_name, value) in _REJECTIONS
