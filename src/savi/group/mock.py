"""Non-cryptographic mock group: the additive group Z_p.

Discrete logs are trivially computable here, which is the point — it
lets protocol-logic, cost-shape and large-dimension tests run orders of
magnitude faster than the real group while exercising identical code
paths.  Never use it where hiding or binding matters.
"""

from __future__ import annotations

import hashlib

from .base import GROUP_ORDER, GroupBackend


def _derived_base() -> int:
    # An arbitrary fixed element; anything nonzero generates Z_p.
    h = hashlib.sha512(b"savi/mock-group/base").digest()
    return int.from_bytes(h, "little") % GROUP_ORDER


_BASE = _derived_base()


class MockBackend(GroupBackend):
    """Insecure stand-in group with the same order as ristretto255."""

    name = "mock"

    def identity_data(self) -> int:
        return 0

    def base_data(self) -> int:
        return _BASE

    def add_data(self, a: int, b: int) -> int:
        self.counter.cell().add += 1
        return (a + b) % GROUP_ORDER

    def sub_data(self, a: int, b: int) -> int:
        self.counter.cell().add += 1
        return (a - b) % GROUP_ORDER

    def mul_data(self, p: int, e: int) -> int:
        self.counter.cell().mul += 1
        return (p * e) % GROUP_ORDER

    def encode_data(self, p: int) -> bytes:
        return p.to_bytes(32, "little")

    def decode_data(self, raw: bytes) -> int:
        if len(raw) != 32:
            raise ValueError("mock points encode to exactly 32 bytes")
        v = int.from_bytes(raw, "little")
        if v >= GROUP_ORDER:
            raise ValueError("non-canonical mock point encoding")
        return v

    def from_uniform_data(self, raw64: bytes) -> int:
        if len(raw64) != 64:
            raise ValueError("hash-to-group input must be 64 bytes")
        self.counter.cell().from_hash += 1
        return int.from_bytes(raw64, "little") % GROUP_ORDER

    def lift_data(self, p: int) -> int:
        return p

    def lower_data(self, lifted: int) -> int:
        return lifted

    @staticmethod
    def lifted_add(a: int, b: int) -> int:
        return (a + b) % GROUP_ORDER

    @staticmethod
    def lifted_neg(a: int) -> int:
        return -a % GROUP_ORDER
