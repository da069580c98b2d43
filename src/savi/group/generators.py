"""Deterministic derivation of independent generators.

Each generator is hash-to-group over a domain-separated tag, so no
party knows discrete-log relations between any of them (on the real
backend), and every party derives the identical set.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import cached_property

from .base import GroupBackend, Point
from .multiexp import RadixTable
from .pool import map_chunks

_DOMAIN = b"savi/v1/generators"


def derive_generators(tag: str, count: int, backend: GroupBackend) -> list[Point]:
    """Derive ``count`` independent generators under ``tag``.

    Deterministic in (tag, count-index); distinct tags give disjoint
    sets except with negligible probability.
    """
    encoded_tag = tag.encode()
    prefix = _DOMAIN + struct.pack("<I", len(encoded_tag)) + encoded_tag

    def derive(indices) -> list[Point]:
        return [
            backend.from_uniform(hashlib.sha512(prefix + struct.pack("<Q", i)).digest())
            for i in indices
        ]

    return map_chunks(derive, range(count), backend)


@dataclass(frozen=True)
class RangeGenerators:
    """Generator vectors for bit-decomposition range proofs."""

    gs: tuple[Point, ...]
    hs: tuple[Point, ...]
    u: Point

    def slots(self) -> int:
        return len(self.gs)


@dataclass(frozen=True)
class GeneratorSet:
    """All public bases a protocol instance needs.

    g      value base (the group's canonical generator)
    q      blind base for the auxiliary commitments
    w      per-coordinate blind bases of the vector commitment
    range_gens  bit-slot bases for range proofs

    ``g_multiples`` is g's radix-256 table for ``commit_update``.  It
    starts empty and builds a level the first time a commitment needs
    it, so deriving a set costs no additions.
    """

    g: Point
    q: Point
    w: tuple[Point, ...]
    range_gens: RangeGenerators
    g_multiples: RadixTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "g_multiples", RadixTable(self.g))

    @property
    def backend(self) -> GroupBackend:
        return self.g.backend

    @property
    def dimension(self) -> int:
        return len(self.w)

    @cached_property
    def lifted_w(self) -> tuple:
        """``w`` in the backend's lifted form, for ``bucket_multiexp``.

        Decoded on first use, by the server's first ``h``: clients and
        ``derive`` never pay for it (about 0.2 ms a point on ristretto255)."""
        return tuple(self.backend.lift_data(p.data) for p in self.w)

    @staticmethod
    def derive(backend: GroupBackend, dimension: int, range_slots: int) -> "GeneratorSet":
        g = backend.base()
        (q,) = derive_generators("q", 1, backend)
        w = tuple(derive_generators("w", dimension, backend))
        gs = tuple(derive_generators("range-g", range_slots, backend))
        hs = tuple(derive_generators("range-h", range_slots, backend))
        (u,) = derive_generators("range-u", 1, backend)
        return GeneratorSet(g=g, q=q, w=w, range_gens=RangeGenerators(gs, hs, u))
