"""Sigma protocols for the commitment relations, Fiat–Shamir transformed
on the caller's transcript (the challenge binds all absorbed before it).

Two statements are proven about vectors of Pedersen-style commitments
(written additively; g is the value base):

* square relation — given y1_i = x_i g + r1_i h and y2_i = x2_i g + r2_i h,
  prove x2_i = x_i^2.  Uses the identity y2_i = x_i y1_i + (r2_i - r1_i x_i) h.
* well-formedness — given z = r g, e_i = v_i g + r h_i (i in 0..k) and
  o_i = v_i g + s_i q (i in 1..k), prove a single r ties z to every e_i
  and that e_i, o_i hide the same v_i.

Verification is batched: one random linear combination collapses all
per-index equations into a single multiexp equality.  Fresh weights are
drawn per call from the verifier's rng, so a proof that cheats on any
index fails except with probability ~1/p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..group.base import GROUP_ORDER, Point
from ..group.multiexp import multiexp
from ..rng import Rng
from ..serial import Message
from .transcript import Transcript

_Q = GROUP_ORDER


@dataclass(frozen=True)
class SquareProof(Message):
    t1: tuple[Point, ...]
    t2: tuple[Point, ...]
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
    return SquareProof(t1=t1, t2=t2, s1=s1, s2=s2, s3=s3)


def ver_prf_sq(
    g: Point,
    h: Point,
    y1: Sequence[Point],
    y2: Sequence[Point],
    proof: SquareProof,
    rng: Rng,
    tr: Transcript,
) -> bool:
    k = len(y1)
    if not (
        len(y2) == k
        and len(proof.t1) == len(proof.t2) == k
        and len(proof.s1) == len(proof.s2) == len(proof.s3) == k
    ):
        return False
    c = _square_challenge(tr, g, h, y1, y2, proof.t1, proof.t2)
    alpha = [rng.nonzero_scalar() for _ in range(k)]
    beta = [rng.nonzero_scalar() for _ in range(k)]

    # Per index the two equations are
    #   t1_i == s1_i g + s2_i h + c y1_i
    #   t2_i == s3_i h + s1_i y1_i + c y2_i
    # Collapse: sum_i alpha_i t1_i + beta_i t2_i - (...) == 0.
    points: list[Point] = []
    scalars: list[int] = []
    g_coef = 0
    h_coef = 0
    for i in range(k):
        points.append(proof.t1[i])
        scalars.append(alpha[i])
        points.append(proof.t2[i])
        scalars.append(beta[i])
        g_coef += alpha[i] * proof.s1[i]
        h_coef += alpha[i] * proof.s2[i] + beta[i] * proof.s3[i]
        points.append(y1[i])
        scalars.append(-(alpha[i] * c + beta[i] * proof.s1[i]) % _Q)
        points.append(y2[i])
        scalars.append(-(beta[i] * c) % _Q)
    points.append(g)
    scalars.append(-g_coef % _Q)
    points.append(h)
    scalars.append(-h_coef % _Q)
    return multiexp(points, scalars, backend=g.backend).is_identity()


@dataclass(frozen=True)
class WellFormedProof(Message):
    u: Point
    t: tuple[Point, ...]       # one per e_i, i in 0..k
    t_star: tuple[Point, ...]  # one per o_i, i in 1..k
    y: int
    y_vec: tuple[int, ...]
    y_star: tuple[int, ...]


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
    return WellFormedProof(u=u, t=t, t_star=t_star, y=y, y_vec=y_vec, y_star=y_star)


def ver_prf_wf(
    g: Point,
    q: Point,
    h: Sequence[Point],
    z: Point,
    e: Sequence[Point],
    o: Sequence[Point],
    proof: WellFormedProof,
    rng: Rng,
    tr: Transcript,
) -> bool:
    k = len(o)
    if not (
        len(e) == k + 1
        and len(h) == k + 1
        and len(proof.t) == k + 1
        and len(proof.t_star) == k
        and len(proof.y_vec) == k + 1
        and len(proof.y_star) == k
    ):
        return False
    c = _wellformed_challenge(tr, g, q, h, z, e, o, proof.u, proof.t, proof.t_star)
    alpha = rng.nonzero_scalar()
    beta = [rng.nonzero_scalar() for _ in range(k + 1)]
    gamma = [rng.nonzero_scalar() for _ in range(k)]

    # Per-equation checks being batched:
    #   u      == y g + c z
    #   t_i    == y_i g + y h_i + c e_i        (i in 0..k)
    #   t*_i   == y_i g + y*_i q + c o_i       (i in 1..k)
    points: list[Point] = [proof.u]
    scalars: list[int] = [alpha]
    g_coef = alpha * proof.y
    q_coef = 0
    for i in range(k + 1):
        points.append(proof.t[i])
        scalars.append(beta[i])
        g_coef += beta[i] * proof.y_vec[i]
        points.append(h[i])
        scalars.append(-(beta[i] * proof.y) % _Q)
        points.append(e[i])
        scalars.append(-(beta[i] * c) % _Q)
    for i in range(k):
        points.append(proof.t_star[i])
        scalars.append(gamma[i])
        g_coef += gamma[i] * proof.y_vec[i + 1]
        q_coef += gamma[i] * proof.y_star[i]
        points.append(o[i])
        scalars.append(-(gamma[i] * c) % _Q)
    points.append(z)
    scalars.append(-(alpha * c) % _Q)
    points.append(g)
    scalars.append(-g_coef % _Q)
    points.append(q)
    scalars.append(-q_coef % _Q)
    return multiexp(points, scalars, backend=g.backend).is_identity()
