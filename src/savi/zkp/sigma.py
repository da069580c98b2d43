"""Sigma protocols for the commitment relations, Fiat–Shamir transformed
on the caller's transcript (the challenge binds all absorbed before it).

Two statements are proven about vectors of Pedersen-style commitments
(written additively; g is the value base):

* square relation — given y1_i = x_i g + r1_i h and y2_i = x2_i g + r2_i h,
  prove x2_i = x_i^2.  Uses the identity y2_i = x_i y1_i + (r2_i - r1_i x_i) h.
* well-formedness — given z = r g, e_i = v_i g + r h_i (i in 0..k) and
  o_i = v_i g + s_i q (i in 1..k), prove a single r ties z to every e_i
  and that e_i, o_i hide the same v_i.

A proof is sent in the (c, s) form of Schnorr signatures: the challenge
and the responses, not the announcements.  The verifier recomputes each
announcement as response·base + c·statement, absorbs them in the
prover's order and accepts only if the challenge it derives equals c.
The check is exact, so verification draws no randomness.  All products
of one verification run as one flat run on the thread pool
(``group.pool``), and so do the sums that make the announcements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..group.base import GROUP_ORDER, GroupBackend, Point
from ..group.multiexp import multiexp
from ..group.pool import map_chunks
from ..rng import Rng
from ..serial import Message
from .transcript import Transcript

_Q = GROUP_ORDER


def _announcements(
    products: list[tuple[int, Point]], sums: list[tuple[int, ...]], backend: GroupBackend
) -> list[Point]:
    """For each index tuple in ``sums``, the sum of those entries of
    ``products``: every product s·P is computed once, however many
    announcements share it."""
    points = map_chunks(lambda run: [s * p for s, p in run], products, backend)

    def add_up(groups: Sequence[tuple[int, ...]]) -> list[Point]:
        out = []
        for first, *rest in groups:
            acc = points[first]
            for j in rest:
                acc = acc + points[j]
            out.append(acc)
        return out

    return map_chunks(add_up, sums, backend)


@dataclass(frozen=True)
class SquareProof(Message):
    c: int
    s1: tuple[int, ...]
    s2: tuple[int, ...]
    s3: tuple[int, ...]


def _square_challenge(
    tr: Transcript, g: Point, h: Point, y1: Sequence[Point], y2: Sequence[Point],
    t1: Sequence[Point], t2: Sequence[Point],
) -> int:
    tr.absorb_point("g", g)
    tr.absorb_point("h", h)
    tr.absorb_points("y1", y1)
    tr.absorb_points("y2", y2)
    tr.absorb_points("t1", t1)
    tr.absorb_points("t2", t2)
    return tr.challenge("c")


def gen_prf_sq(
    g: Point,
    h: Point,
    y1: Sequence[Point],
    y2: Sequence[Point],
    x: Sequence[int],
    r1: Sequence[int],
    r2: Sequence[int],
    rng: Rng,
    tr: Transcript,
) -> SquareProof:
    k = len(x)
    if not (len(y1) == len(y2) == len(r1) == len(r2) == k):
        raise ValueError("square proof inputs must share one length")
    v1 = [rng.scalar() for _ in range(k)]
    v2 = [rng.scalar() for _ in range(k)]
    v3 = [rng.scalar() for _ in range(k)]
    t1 = tuple(multiexp([g, h], [v1[i], v2[i]]) for i in range(k))
    t2 = tuple(multiexp([y1[i], h], [v1[i], v3[i]]) for i in range(k))
    c = _square_challenge(tr, g, h, y1, y2, t1, t2)
    s1 = tuple((v1[i] - c * x[i]) % _Q for i in range(k))
    s2 = tuple((v2[i] - c * r1[i]) % _Q for i in range(k))
    s3 = tuple((v3[i] - c * (r2[i] - r1[i] * x[i])) % _Q for i in range(k))
    return SquareProof(c=c, s1=s1, s2=s2, s3=s3)


def ver_prf_sq(
    g: Point,
    h: Point,
    y1: Sequence[Point],
    y2: Sequence[Point],
    proof: SquareProof,
    tr: Transcript,
) -> bool:
    k = len(y1)
    if not (len(y2) == len(proof.s1) == len(proof.s2) == len(proof.s3) == k):
        return False
    c = proof.c
    # t1_i = s1_i g + s2_i h + c y1_i and t2_i = s1_i y1_i + s3_i h + c y2_i,
    # the six products of index i at 6i .. 6i+5
    products = []
    for i in range(k):
        products += [
            (proof.s1[i], g), (proof.s2[i], h), (c, y1[i]),
            (proof.s1[i], y1[i]), (proof.s3[i], h), (c, y2[i]),
        ]
    t1_t2 = _announcements(
        products, [(j, j + 1, j + 2) for j in range(0, 6 * k, 3)], g.backend
    )
    return c == _square_challenge(tr, g, h, y1, y2, t1_t2[0::2], t1_t2[1::2])


@dataclass(frozen=True)
class WellFormedProof(Message):
    c: int
    y: int
    y_vec: tuple[int, ...]   # one per e_i, i in 0..k
    y_star: tuple[int, ...]  # one per o_i, i in 1..k


def _wellformed_challenge(
    tr: Transcript, g: Point, q: Point, h: Sequence[Point], z: Point,
    e: Sequence[Point], o: Sequence[Point],
    u: Point, t: Sequence[Point], t_star: Sequence[Point],
) -> int:
    tr.absorb_point("g", g)
    tr.absorb_point("q", q)
    tr.absorb_points("h", h)
    tr.absorb_point("z", z)
    tr.absorb_points("e", e)
    tr.absorb_points("o", o)
    tr.absorb_point("u", u)
    tr.absorb_points("t", t)
    tr.absorb_points("t*", t_star)
    return tr.challenge("c")


def gen_prf_wf(
    g: Point,
    q: Point,
    h: Sequence[Point],
    z: Point,
    e: Sequence[Point],
    o: Sequence[Point],
    r: int,
    v: Sequence[int],
    s: Sequence[int],
    rng: Rng,
    tr: Transcript,
) -> WellFormedProof:
    """Prove z, e_0..e_k, o_1..o_k are well formed over secrets (r, v, s).

    ``v`` has length k+1 (v_0 included); ``s`` has length k.
    """
    k = len(o)
    if not (len(e) == k + 1 == len(v) and len(h) == k + 1 and len(s) == k):
        raise ValueError("inconsistent well-formedness statement lengths")
    w_nonce = rng.scalar()
    xs = [rng.scalar() for _ in range(k + 1)]
    x_star = [rng.scalar() for _ in range(k)]
    u = w_nonce * g
    t = tuple(multiexp([g, h[i]], [xs[i], w_nonce]) for i in range(k + 1))
    t_star = tuple(multiexp([g, q], [xs[i + 1], x_star[i]]) for i in range(k))
    c = _wellformed_challenge(tr, g, q, h, z, e, o, u, t, t_star)
    y = (w_nonce - c * r) % _Q
    y_vec = tuple((xs[i] - c * v[i]) % _Q for i in range(k + 1))
    y_star = tuple((x_star[i] - c * s[i]) % _Q for i in range(k))
    return WellFormedProof(c=c, y=y, y_vec=y_vec, y_star=y_star)


def ver_prf_wf(
    g: Point,
    q: Point,
    h: Sequence[Point],
    z: Point,
    e: Sequence[Point],
    o: Sequence[Point],
    proof: WellFormedProof,
    tr: Transcript,
) -> bool:
    k = len(o)
    n = k + 1
    if not (len(e) == len(h) == len(proof.y_vec) == n and len(proof.y_star) == k):
        return False
    c, y = proof.c, proof.y
    # The announcements are
    #   u    = y g + c z
    #   t_i  = y_i g + y h_i + c e_i       (i in 0..k)
    #   t*_i = y_i g + y*_i q + c o_i      (i in 1..k)
    # so y_i g (at index i) serves both t_i and t*_i.
    products = [(y_i, g) for y_i in proof.y_vec] + [(y, g), (c, z)]
    for i in range(n):
        products += [(y, h[i]), (c, e[i])]      # at n + 2 + 2i
    for i in range(k):
        products += [(proof.y_star[i], q), (c, o[i])]  # at 3n + 2 + 2i
    sums = (
        [(n, n + 1)]
        + [(i, n + 2 + 2 * i, n + 3 + 2 * i) for i in range(n)]
        + [(i + 1, 3 * n + 2 + 2 * i, 3 * n + 3 + 2 * i) for i in range(k)]
    )
    u, *t = _announcements(products, sums, g.backend)
    return c == _wellformed_challenge(tr, g, q, h, z, e, o, u, t[:n], t[n:])
