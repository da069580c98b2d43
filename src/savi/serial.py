"""Length-prefixed deterministic serialization.

Wire format building blocks: little-endian u32 integers, 32-byte
scalars, 32-byte point encodings, and u32-length-prefixed vectors.
Serialization is canonical — equal messages produce equal bytes — so
transcript hashing and byte-count accounting can both use it.
"""

from __future__ import annotations

import struct
from typing import Sequence

from .group.base import GroupBackend, Point
from .group.scalars import scalar_from_bytes, scalar_to_bytes


class ByteWriter:
    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def raw(self, data: bytes) -> "ByteWriter":
        self._parts.append(data)
        return self

    def u32(self, v: int) -> "ByteWriter":
        return self.raw(struct.pack("<I", v))

    def scalar(self, x: int) -> "ByteWriter":
        return self.raw(scalar_to_bytes(x))

    def point(self, p: Point) -> "ByteWriter":
        return self.raw(p.encode())

    def var_bytes(self, data: bytes) -> "ByteWriter":
        return self.u32(len(data)).raw(data)

    def scalar_vec(self, xs: Sequence[int]) -> "ByteWriter":
        self.u32(len(xs))
        for x in xs:
            self.scalar(x)
        return self

    def point_vec(self, ps: Sequence[Point]) -> "ByteWriter":
        self.u32(len(ps))
        for p in ps:
            self.point(p)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class ByteReader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def raw(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise ValueError("truncated message")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.raw(4))[0]

    def scalar(self) -> int:
        return scalar_from_bytes(self.raw(32))

    def point(self, backend: GroupBackend) -> Point:
        return backend.decode(self.raw(32))

    def var_bytes(self) -> bytes:
        return self.raw(self.u32())

    def scalar_vec(self) -> list[int]:
        return [self.scalar() for _ in range(self.u32())]

    def point_vec(self, backend: GroupBackend) -> list[Point]:
        return [self.point(backend) for _ in range(self.u32())]

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise ValueError("trailing bytes after message")
