"""Pedersen commitments to update vectors and their homomorphic aggregation.

A client commits to a d-dimensional integer update u under a single blind
r: the l-th coordinate commitment is y_l = u_l g + r w_l.  The blind's
commitment z = r g is sent once, as the constant term of its Feldman check
string.  Sums of commitments open to sums of updates under the summed
blind, which is what lets the server aggregate only the surviving clients.

u_l g is never a scalar multiplication.  A precomputed table of g's
small multiples (Lim and Lee, "More flexible exponentiation with
precomputation", CRYPTO 1994), ``GeneratorSet.g_multiples``, holds
j 256^i g for every radix-256 digit j.  y_l is one ``multiexps`` row:
r w_l and one table entry per nonzero digit of |u_l|, each with scalar
1, or -1 for a negative u_l.  A coordinate below 2^16 in magnitude then
costs one or two additions on top of r w_l, and a commitment costs d
muls, whatever the update.  libsodium takes no such table for the w_l,
each of which is used once per commitment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .group.base import GROUP_ORDER, Point
from .group.generators import GeneratorSet
from .group.multiexp import multiexps
from .serial import Message
from .vsss import CheckString


def commit_update(u: Sequence[int], r: int, gens: GeneratorSet) -> list[Point]:
    """Commit coordinate-wise: y_l = u_l g + r w_l.

    Each u_l is taken as its signed representative mod the order, so
    -5 and (-5) % order commit alike, and a zero u_l costs no addition."""
    if len(u) != len(gens.w):
        raise ValueError(f"update has {len(u)} coordinates, generators {len(gens.w)}")
    table = gens.g_multiples
    rows = []
    for u_l, w_l in zip(u, gens.w):
        s = u_l % GROUP_ORDER
        sign = -1 if s > GROUP_ORDER // 2 else 1
        # min(s, order - s) is |u_l| for u_l's signed representative
        rows.append([(w_l, r)] + [(p, sign) for p in table.digits(min(s, GROUP_ORDER - s))])
    return multiexps(rows, gens.backend)


def aggregate_commitments(
    vectors: Sequence[Sequence[Point]], gens: GeneratorSet
) -> list[Point]:
    """Coordinate-wise sum over a set of commitment vectors.

    An empty set yields the identity vector (callers flag that case in
    their reports rather than treating it as an error).
    """
    d = len(gens.w)
    if any(len(vec) != d for vec in vectors):
        raise ValueError("commitment vector length mismatch")
    if not vectors:
        return [gens.backend.identity() for _ in range(d)]
    return multiexps([[(p, 1) for p in column] for column in zip(*vectors)], gens.backend)


@dataclass(frozen=True)
class CommitmentBundle(Message):
    """Everything a client publishes in the commit round.

    The shares are ciphertexts, one per client in index order (empty
    for the sender itself).  z = r g is the check string's constant term.
    """

    y: tuple[Point, ...]
    encrypted_shares: tuple[bytes, ...]
    check_string: CheckString

    @property
    def z(self) -> Point:
        """r g; read it only from a ``well_formed`` bundle."""
        return self.check_string.points[0]

    def well_formed(self, d: int, n: int, threshold: int) -> bool:
        """The shape a bundle must have before anyone indexes into it:
        d coordinate commitments, one sealed share per client and a
        check string of ``threshold`` (at least one) points."""
        return (
            len(self.y) == d
            and len(self.encrypted_shares) == n
            and len(self.check_string.points) == threshold
        )
