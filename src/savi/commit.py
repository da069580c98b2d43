"""Pedersen commitments to update vectors and their homomorphic aggregation.

A client commits to a d-dimensional integer update u under a single blind
r: the l-th coordinate commitment is y_l = u_l g + r w_l, and z = r g
doubles as the constant term of the blind's Feldman check string.  Sums of
commitments open to sums of updates under the summed blind, which is what
lets the server aggregate only the surviving clients.

u_l g is never a scalar multiplication.  A precomputed table of g's
small multiples (Lim and Lee, "More flexible exponentiation with
precomputation", CRYPTO 1994), ``GeneratorSet.g_multiples``, holds
j 256^i g for every radix-256 digit j, so u_l g is one table entry per
nonzero digit of |u_l|, negated for a negative u_l.  A coordinate below
2^16 in magnitude then costs one or two additions on top of r w_l, and
a commitment costs d muls for the r w_l plus one for z, whatever the
update.  libsodium takes no such table for the w_l, each of which is
used once per commitment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .group.base import GROUP_ORDER, Point
from .group.generators import GeneratorSet
from .group.multiexp import sum_points
from .group.pool import map_chunks
from .serial import Message
from .vsss import CheckString


def commit_update(
    u: Sequence[int], r: int, gens: GeneratorSet
) -> tuple[list[Point], Point]:
    """Commit coordinate-wise: y_l = u_l g + r w_l, plus z = r g.

    Each u_l is taken as its signed representative mod the order, so
    -5 and (-5) % order commit alike, and a zero u_l costs no addition."""
    if len(u) != len(gens.w):
        raise ValueError(f"update has {len(u)} coordinates, generators {len(gens.w)}")
    table = gens.g_multiples

    def commit_coordinates(pairs) -> list[Point]:
        y = []
        for u_l, w_l in pairs:
            y_l = r * w_l
            s = u_l % GROUP_ORDER
            if s > GROUP_ORDER // 2:
                y_l = y_l - table.multiple(GROUP_ORDER - s)
            elif s:
                y_l = y_l + table.multiple(s)
            y.append(y_l)
        return y

    return map_chunks(commit_coordinates, list(zip(u, gens.w)), gens.backend), r * gens.g


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
    # each coordinate's sum starts from the first vector: adding it to
    # identities would count d additions that ristretto255 short-circuits
    return map_chunks(
        lambda columns: [sum_points(column) for column in columns],
        list(zip(*vectors)),
        gens.backend,
    )


@dataclass(frozen=True)
class CommitmentBundle(Message):
    """Everything a client publishes in the commit round.

    The shares are ciphertexts (one per peer, addressed by index order);
    z is redundant with check_string.points[0] but is sent explicitly,
    and bundles where the two disagree are not ``well_formed``.
    """

    y: tuple[Point, ...]
    z: Point
    encrypted_shares: tuple[bytes, ...]
    check_string: CheckString

    def well_formed(self, d: int, n: int, threshold: int) -> bool:
        """The shape a bundle must have before anyone indexes into it:
        d coordinate commitments, one sealed share per client, a check
        string of ``threshold`` points, and z equal to its first point."""
        points = self.check_string.points
        return (
            len(self.y) == d
            and len(self.encrypted_shares) == n
            and len(points) == threshold
            and self.z == points[0]
        )
