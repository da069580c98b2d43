"""The protocol's one source of randomness.

Simulations must be bit-reproducible from a master seed, so every
random draw in the protocol (blinds, polynomial coefficients, proof
nonces, verifier batch weights) goes through an injected rng object,
a ``DeterministicRng``: a SHAKE-256 counter-mode generator.  Outside a
simulation, seed it from the operating system,
``DeterministicRng(secrets.token_bytes(32))``, to get fresh randomness
through the same interface.
"""

from __future__ import annotations

import hashlib
import struct

from .group.base import GROUP_ORDER


class DeterministicRng:
    """SHAKE-256 counter-mode generator, forkable by label."""

    def __init__(self, seed: bytes | str | int) -> None:
        if isinstance(seed, str):
            seed = seed.encode()
        elif isinstance(seed, int):
            seed = seed.to_bytes(16, "little", signed=False)
        self._seed = hashlib.sha256(b"savi/v1/rng|" + seed).digest()
        self._counter = 0

    def take(self, n: int) -> bytes:
        """Next n pseudorandom bytes."""
        block = hashlib.shake_256(self._seed + struct.pack("<Q", self._counter))
        self._counter += 1
        return block.digest(n)

    def scalar(self) -> int:
        """Near-uniform scalar via wide reduction of 64 bytes."""
        return int.from_bytes(self.take(64), "little") % GROUP_ORDER

    def nonzero_scalar(self) -> int:
        while True:
            s = self.scalar()
            if s != 0:
                return s

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        nbytes = (n.bit_length() + 7) // 8 + 8
        return int.from_bytes(self.take(nbytes), "little") % n

    def child(self, label: str) -> "DeterministicRng":
        """Independent stream derived from this seed and a label, of the
        same class."""
        return type(self)(self._seed + b"|child|" + label.encode())


# The rng type the protocol objects take.
Rng = DeterministicRng
