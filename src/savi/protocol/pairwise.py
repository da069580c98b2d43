"""Pairwise authenticated encryption for Shamir shares.

Clients agree on keys Diffie-Hellman style over the same group the
commitments live in, then seal each share with ChaCha20-Poly1305.  The
nonce encodes (round, sender, receiver), which is unique per key since
a key is only ever used by one ordered pair per direction-agnostic
derivation — the sender id in the nonce disambiguates the directions.
A share's index is its receiver, which the nonce (also the associated
data) binds, so only its 32-byte value is sealed: 48 bytes with the tag.
"""

from __future__ import annotations

import hashlib

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from ..group.base import GroupBackend, Point
from ..rng import Rng
from ..serial import decode, encode

_KEY_TAG = b"savi/v1/pairwise-key"


def keygen(backend: GroupBackend, rng: Rng) -> tuple[int, Point]:
    sk = rng.nonzero_scalar()
    return sk, sk * backend.base()


def pairwise_key(sk: int, pk_other: Point) -> bytes:
    """Both endpoints derive the same 32-byte key from sk_i * PK_j."""
    shared = (sk * pk_other).encode()
    return hashlib.sha256(_KEY_TAG + shared).digest()


def _nonce(round_no: int, sender: int, receiver: int) -> bytes:
    return (
        round_no.to_bytes(4, "little")
        + sender.to_bytes(4, "little")
        + receiver.to_bytes(4, "little")
    )


def seal_share(key: bytes, round_no: int, sender: int, receiver: int, value: int) -> bytes:
    plain = encode(int, value)
    aad = _nonce(round_no, sender, receiver)
    return ChaCha20Poly1305(key).encrypt(aad, plain, aad)


def open_share(
    key: bytes, round_no: int, sender: int, receiver: int, blob: bytes
) -> int | None:
    """Decrypt and parse a share's value; None signals a flag-worthy ciphertext."""
    aad = _nonce(round_no, sender, receiver)
    try:
        return decode(int, ChaCha20Poly1305(key).decrypt(aad, blob, aad))
    except (InvalidTag, ValueError):
        return None
