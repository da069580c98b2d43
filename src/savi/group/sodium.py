"""ristretto255 backend over the system libsodium, bound with ctypes.

libsodium quirks handled here:

* ``crypto_scalarmult_ristretto255`` returns -1 whenever the *result*
  is the identity (zero scalar, or identity input point).  Since the
  group has prime order, those are the only ways a valid input can
  produce the identity, so both cases are short-circuited before the
  call and a -1 afterwards means the point encoding was invalid.
  ``crypto_scalarmult_ristretto255_base`` does the same for multiples of
  the base point, from a precomputed table; both clear the scalar's top
  bit, which a scalar reduced mod the group order never sets.
* Every function needs explicit ``restype``/``argtypes``; the defaults
  truncate 64-bit pointers.
"""

from __future__ import annotations

import ctypes
import ctypes.util

from . import edwards
from .base import GROUP_ORDER, GroupBackend

_IDENTITY = bytes(32)


def _load_libsodium() -> ctypes.CDLL:
    path = ctypes.util.find_library("sodium") or ctypes.util.find_library("libsodium")
    if path is None:
        raise OSError("libsodium shared library not found")
    lib = ctypes.cdll.LoadLibrary(path)
    lib.sodium_init.restype = ctypes.c_int
    if lib.sodium_init() < 0:
        raise OSError("sodium_init failed")
    for name, argc in [
        ("crypto_scalarmult_ristretto255", 3),
        ("crypto_scalarmult_ristretto255_base", 2),
        ("crypto_core_ristretto255_add", 3),
        ("crypto_core_ristretto255_sub", 3),
        ("crypto_core_ristretto255_from_hash", 2),
        ("crypto_core_ristretto255_is_valid_point", 1),
    ]:
        fn = getattr(lib, name)
        fn.restype = ctypes.c_int
        fn.argtypes = [ctypes.c_char_p] * argc
    return lib


_lib: ctypes.CDLL | None = None


def _sodium() -> ctypes.CDLL:
    global _lib
    if _lib is None:
        _lib = _load_libsodium()
    return _lib


class RistrettoBackend(GroupBackend):
    """The real group: ristretto255, ~126-bit security, 32-byte encodings."""

    name = "ristretto255"
    releases_gil = True  # ctypes releases it around each libsodium call

    def __init__(self) -> None:
        super().__init__()
        self._lib = _sodium()
        buf = ctypes.create_string_buffer(32)
        one = (1).to_bytes(32, "little")
        self._lib.crypto_scalarmult_ristretto255_base(buf, one)
        self._base = buf.raw

    def identity_data(self) -> bytes:
        return _IDENTITY

    def base_data(self) -> bytes:
        return self._base

    def add_data(self, a: bytes, b: bytes) -> bytes:
        self.counter.local.cell.add += 1
        if a == _IDENTITY:
            return b
        if b == _IDENTITY:
            return a
        buf = ctypes.create_string_buffer(32)
        if self._lib.crypto_core_ristretto255_add(buf, a, b) != 0:
            raise ValueError("invalid ristretto255 point in addition")
        return buf.raw

    def sub_data(self, a: bytes, b: bytes) -> bytes:
        self.counter.local.cell.add += 1
        if b == _IDENTITY:
            return a
        buf = ctypes.create_string_buffer(32)
        if self._lib.crypto_core_ristretto255_sub(buf, a, b) != 0:
            raise ValueError("invalid ristretto255 point in subtraction")
        return buf.raw

    def mul_data(self, p: bytes, e: int) -> bytes:
        self.counter.local.cell.mul += 1
        e %= GROUP_ORDER
        if e == 0 or p == _IDENTITY:
            return _IDENTITY
        buf = ctypes.create_string_buffer(32)
        if p == self._base:  # libsodium's fixed-base table, about 3x faster
            self._lib.crypto_scalarmult_ristretto255_base(buf, e.to_bytes(32, "little"))
            return buf.raw
        ret = self._lib.crypto_scalarmult_ristretto255(buf, e.to_bytes(32, "little"), p)
        if ret != 0:
            raise ValueError("invalid ristretto255 point in scalar multiplication")
        return buf.raw

    def encode_data(self, p: bytes) -> bytes:
        return p

    def decode_data(self, raw: bytes) -> bytes:
        if len(raw) != 32:
            raise ValueError("ristretto255 points encode to exactly 32 bytes")
        if self._lib.crypto_core_ristretto255_is_valid_point(raw) != 1:
            raise ValueError("invalid ristretto255 point encoding")
        return raw

    def from_uniform_data(self, raw64: bytes) -> bytes:
        if len(raw64) != 64:
            raise ValueError("hash-to-group input must be 64 bytes")
        self.counter.local.cell.from_hash += 1
        buf = ctypes.create_string_buffer(32)
        self._lib.crypto_core_ristretto255_from_hash(buf, raw64)
        return buf.raw

    def lift_data(self, p: bytes) -> tuple[tuple[int, int, int, int], tuple[int, int, int]]:
        point = edwards.decode(p)
        return point, edwards.niels(point)

    def lower_data(self, lifted: tuple[int, int, int, int]) -> bytes:
        return edwards.encode(lifted)

    lifted_add = staticmethod(edwards.add)
    lifted_add_base = staticmethod(edwards.add_niels)
    lifted_neg = staticmethod(edwards.neg)
