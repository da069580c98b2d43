"""Scalar field helpers (integers mod the group order)."""

from __future__ import annotations

from .base import GROUP_ORDER, SCALAR_BYTES


def scalar_to_bytes(x: int) -> bytes:
    """Canonical 32-byte little-endian encoding of a scalar."""
    return (x % GROUP_ORDER).to_bytes(SCALAR_BYTES, "little")


def scalar_from_bytes(raw: bytes) -> int:
    if len(raw) != SCALAR_BYTES:
        raise ValueError("scalars encode to exactly 32 bytes")
    x = int.from_bytes(raw, "little")
    if x >= GROUP_ORDER:
        raise ValueError("non-canonical scalar encoding")
    return x


def reduce_wide(raw64: bytes) -> int:
    """Reduce 64 uniform bytes to a near-uniform scalar."""
    return int.from_bytes(raw64, "little") % GROUP_ORDER


def inv(x: int) -> int:
    """Multiplicative inverse mod the group order."""
    return pow(x, -1, GROUP_ORDER)
