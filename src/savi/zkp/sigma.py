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
The check is exact, so verification draws no randomness.  Each side
computes a proof's announcements as one ``multiexps`` batch, one row
per announcement, after a batch of the x_i g (or y_i g) that t_i and
t*_i share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..group.base import GROUP_ORDER, Point
from ..group.multiexp import multiexps
from ..rng import Rng
from ..serial import Message
from .transcript import Transcript

_Q = GROUP_ORDER


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
    t1_t2 = multiexps(
        [[(g, v1[i]), (h, v2[i])] for i in range(k)]
        + [[(y1[i], v1[i]), (h, v3[i])] for i in range(k)],
        g.backend,
    )
    c = _square_challenge(tr, g, h, y1, y2, t1_t2[:k], t1_t2[k:])
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
    c, s1, s2, s3 = proof.c, proof.s1, proof.s2, proof.s3
    t1_t2 = multiexps(
        [[(g, s1[i]), (h, s2[i]), (y1[i], c)] for i in range(k)]
        + [[(y1[i], s1[i]), (h, s3[i]), (y2[i], c)] for i in range(k)],
        g.backend,
    )
    return c == _square_challenge(tr, g, h, y1, y2, t1_t2[:k], t1_t2[k:])


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
    # x_i g serves both t_i and t*_i, so it is computed once
    u, *xg = multiexps([[(g, w_nonce)]] + [[(g, x)] for x in xs], g.backend)
    t_t_star = multiexps(
        [[(xg[i], 1), (h[i], w_nonce)] for i in range(k + 1)]
        + [[(xg[i + 1], 1), (q, x_star[i])] for i in range(k)],
        g.backend,
    )
    c = _wellformed_challenge(tr, g, q, h, z, e, o, u, t_t_star[: k + 1], t_t_star[k + 1 :])
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
    # so y_i g is computed once and serves both t_i and t*_i.
    yg = multiexps([[(g, y_i)] for y_i in proof.y_vec], g.backend)
    u, *t = multiexps(
        [[(g, y), (z, c)]]
        + [[(yg[i], 1), (h[i], y), (e[i], c)] for i in range(n)]
        + [[(yg[i + 1], 1), (q, proof.y_star[i]), (o[i], c)] for i in range(k)],
        g.backend,
    )
    return c == _wellformed_challenge(tr, g, q, h, z, e, o, u, t[:n], t[n:])
