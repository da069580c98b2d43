"""Fiat–Shamir transcript.

Challenges are 256-bit hashes over the canonical encodings absorbed so
far, reduced mod the group order.  Every absorbed item carries an ASCII
label, and issuing a challenge ratchets the state so later challenges
differ even with no new absorptions in between.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable

from ..group.base import GROUP_ORDER, Point

DOMAIN = "savi/v10"
"""Version of the wire format: bumped whenever proof or message bytes change."""


class Transcript:
    def __init__(self, context: str) -> None:
        self._h = hashlib.sha256()
        self._absorb_frame(f"{DOMAIN}/transcript".encode(), context.encode())

    def _absorb_frame(self, label: bytes, data: bytes) -> None:
        self._h.update(struct.pack("<I", len(label)))
        self._h.update(label)
        self._h.update(struct.pack("<I", len(data)))
        self._h.update(data)

    def absorb_bytes(self, label: str, data: bytes) -> None:
        self._absorb_frame(label.encode(), data)

    def absorb_u64(self, label: str, v: int) -> None:
        self._absorb_frame(label.encode(), struct.pack("<Q", v))

    def absorb_point(self, label: str, p: Point) -> None:
        self._absorb_frame(label.encode(), p.encode())

    def absorb_points(self, label: str, ps: Iterable[Point]) -> None:
        self._absorb_frame(label.encode(), b"".join(p.encode() for p in ps))

    def fork(self) -> "Transcript":
        """An independent copy of this transcript's state."""
        other = Transcript.__new__(Transcript)
        other._h = self._h.copy()
        return other

    def _digest(self, label: str) -> bytes:
        """The hash of the state under ``label``; ratchets the transcript."""
        fork = self._h.copy()
        fork.update(b"/challenge:" + label.encode())
        self._absorb_frame(b"challenge-consumed", label.encode())
        return fork.digest()

    def challenge(self, label: str) -> int:
        """Derive a scalar challenge and ratchet the transcript."""
        return int.from_bytes(self._digest(label), "little") % GROUP_ORDER

    def challenge_bytes(self, label: str, n: int) -> bytes:
        """Derive n challenge bytes (SHAKE-256 of the state's hash) and
        ratchet the transcript."""
        return hashlib.shake_256(self._digest(label)).digest(n)

    def nonzero_challenge(self, label: str) -> int:
        c = self.challenge(label)
        i = 0
        while c == 0:  # astronomically unlikely; loop keeps determinism total
            c = self.challenge(f"{label}/retry{i}")
            i += 1
        return c
