"""The wire codec: legacy byte layouts, the pinned message layouts and
hostile-byte decoding."""

import dataclasses
import functools
import struct
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savi.commit import CommitmentBundle
from savi.group import GROUP_ORDER, Point, make_backend
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
        # savi/v8, one commitment to the squares (savi/v9 sends rho, tau
        # and mu inline, with no length in front); at savi/v7 ["e_star",
        # "o", "o_prime", "masks", "z", "rho", "tau", "mu"], ["c", "y",
        # "y_vec", "y_star", "y_sigma", "t_link"] and ["c", "s1", "s2",
        # "s3"]; at savi/v6 ["e_star", "o", "o_prime", "rho", "tau",
        # "sigma", "mu"] and ["c", "y", "y_vec", "y_star"]
        "IntegrityProof": ["e_star", "o_prime", "masks", "z", "rho", "tau", "mu"],
        "WellFormedProof": ["c", "y", "y_vec", "y_sigma", "t_link"],
        "SquareProof": ["c", "y", "y_x", "y_vec", "y_w"],
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


def _values(tp, points):
    """A strategy for values of the wire type ``tp``."""
    if tp is Point:
        return points
    if tp is U32:
        return st.integers(0, 2**32 - 1)
    if tp is int:
        return st.integers(0, GROUP_ORDER - 1)
    if tp is bytes:
        return st.binary(max_size=40)
    if typing.get_origin(tp) is tuple:
        return st.lists(_values(typing.get_args(tp)[0], points), max_size=3).map(tuple)
    fields = typing.get_type_hints(tp)
    return st.builds(tp, **{name: _values(ftp, points) for name, ftp in fields.items()})


@pytest.mark.parametrize("tp", list(_message_kinds()), ids=lambda tp: tp.__name__)
@settings(max_examples=50, derandomize=True, deadline=None)
@given(data=st.data())
def test_message_is_its_fields_inline(tp, data):
    # a message's bytes are its fields' encodings, one after the other,
    # a nested message's too: every encoding delimits itself, so none is
    # framed twice (savi/v8 put a u32 length in front of a nested one)
    backend = make_backend("mock")
    points = st.binary(min_size=64, max_size=64).map(backend.from_uniform)
    message = data.draw(_values(tp, points))
    raw = message.to_bytes()
    assert raw == b"".join(
        encode(ftp, getattr(message, name)) for name, ftp in typing.get_type_hints(tp).items()
    )
    assert tp.from_bytes(raw, backend) == message


@pytest.mark.parametrize("k", [1, 8, 32])
def test_sigma_proof_sizes_are_pinned(k):
    # the (c, s) form sends scalars only, but for the link's announcement:
    # c, y, the counted run y_vec (k+1), y_sigma and t_link for rho; c,
    # y, y_x and the two counted runs y_vec and y_w (k each) for tau.  At
    # savi/v7 rho also sent y_star (k), 168 + 64k bytes, and tau c and
    # three runs of k, 44 + 96k (104 + 64k for rho before the link)
    b = make_backend("mock")
    g, q = b.base(), b.from_uniform(bytes(64))
    rng = DeterministicRng(f"sizes/{k}".encode())
    h = [b.from_uniform(rng.take(64)) for _ in range(k + 1)]
    v = [rng.scalar() for _ in range(k + 1)]
    r, x = rng.scalar(), rng.scalar()
    e = [v[i] * g + r * h[i] for i in range(k + 1)]
    o_prime = sum(t * t for t in v[1:]) % GROUP_ORDER * g + x * q
    gs = [b.from_uniform(rng.take(64)) for _ in range(2)]
    link = Link(gs, [[1] * k, [0] * k], gs[0] + q, [1 + sum(v[1:]), 1])  # y = (1, 1), sigma 1
    rho = gen_prf_wf(g, q, h, r * g, e, link, r, v, 1, rng, Transcript("sizes"))
    w = [t * r % GROUP_ORDER for t in v[1:]]
    tau = gen_prf_sq(g, q, h[1:], e[1:], o_prime, r, v[1:], w, x, rng, Transcript("sizes"))
    assert len(rho.to_bytes()) == 164 + 32 * k
    assert len(tau.to_bytes()) == 104 + 64 * k


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
    start = 4 + 32 * len(proof.e_star) + 32  # after e_star and o_prime
    z_end = start + 32 + 4 + len(proof.z)
    rho_end = z_end + len(proof.rho.to_bytes())
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
