"""One wire codec: a message's bytes follow from its dataclass declaration.

``encode(tp, value)`` writes the fields of a dataclass in declaration
order and ``decode(tp, data, backend)`` reads them back.  The declared
type of each field sets its encoding:

  Point            32-byte encoding
  int              32-byte canonical scalar
  U32              4-byte little-endian count or index
  bytes            u32 length, then the bytes
  tuple[X, ...]    u32 count, then the items
  a dataclass      its fields inline, a ``Message`` nested in another too

Every encoding delimits itself, so nothing is framed twice: a message's
bytes are its fields' encodings, one after the other, wherever it is
sent.

Serialization is canonical — equal messages produce equal bytes — so
transcript hashing and byte-count accounting can both use it.  A
malformed payload raises ``ValueError`` and nothing else.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Any, NewType, Optional

from .group.base import GroupBackend, Point
from .group.scalars import scalar_from_bytes, scalar_to_bytes

U32 = NewType("U32", int)
"""Field marker for counts and indices: 4 bytes on the wire, not 32."""


def _u32(v: int) -> bytes:
    return v.to_bytes(4, "little")


@functools.cache
def _fields(tp: type) -> tuple[tuple[str, Any], ...]:
    hints = typing.get_type_hints(tp)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(tp))


def encode(tp: Any, value: Any) -> bytes:
    """The bytes of ``value`` as a ``tp``."""
    out: list[bytes] = []
    _write(tp, value, out)
    return b"".join(out)


def _write(tp: Any, value: Any, out: list[bytes]) -> None:
    if tp is Point:
        out.append(value.encode())
    elif tp is U32:
        out.append(_u32(value))
    elif tp is int:
        out.append(scalar_to_bytes(value))
    elif tp is bytes:
        out += (_u32(len(value)), value)
    elif typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        out.append(_u32(len(value)))
        for x in value:
            _write(item, x, out)
    else:
        for name, ftp in _fields(tp):
            _write(ftp, getattr(value, name), out)


def decode(tp: Any, data: bytes, backend: Optional[GroupBackend] = None) -> Any:
    """Parse ``data`` as one ``tp``; it must be consumed exactly."""
    value, end = _read(tp, data, 0, backend)
    if end != len(data):
        raise ValueError("trailing bytes after message")
    return value


def _take(data: bytes, pos: int, n: int) -> tuple[bytes, int]:
    end = pos + n
    if end > len(data):
        raise ValueError("truncated message")
    return data[pos:end], end


def _read(tp: Any, data: bytes, pos: int, backend: Optional[GroupBackend]) -> tuple[Any, int]:
    if tp is Point:
        raw, pos = _take(data, pos, 32)
        return backend.decode(raw), pos
    if tp is U32:
        raw, pos = _take(data, pos, 4)
        return int.from_bytes(raw, "little"), pos
    if tp is int:
        raw, pos = _take(data, pos, 32)
        return scalar_from_bytes(raw), pos
    if tp is bytes:
        n, pos = _read(U32, data, pos, backend)
        return _take(data, pos, n)
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        n, pos = _read(U32, data, pos, backend)
        items = []
        for _ in range(n):
            x, pos = _read(item, data, pos, backend)
            items.append(x)
        return tuple(items), pos
    fields = {}
    for name, ftp in _fields(tp):
        fields[name], pos = _read(ftp, data, pos, backend)
    return tp(**fields), pos


class Message:
    """A dataclass sent whole on the wire.

    Field order is the wire order: reordering, adding or retyping a
    field changes the bytes.  Nested in another message, a message is
    its fields inline, as any dataclass is."""

    def to_bytes(self) -> bytes:
        return encode(type(self), self)

    @classmethod
    def from_bytes(cls, data: bytes, backend: GroupBackend) -> Any:
        return decode(cls, data, backend)
