"""Sigma protocols for the commitment relations, Fiat–Shamir transformed
on the caller's transcript (the challenge binds all absorbed before it).

One protocol proves knowledge of a witness vector w satisfying a list of
linear equations, each target = sum_j base_j · w[index_j] (Maurer,
"Unifying zero-knowledge proofs of knowledge", AFRICACRYPT 2009;
Camenisch and Stadler, CRYPTO 1997).  It serves two statements about
vectors of Pedersen-style commitments (written additively; g is the
value base):

* well-formedness — given z = r g, e_i = v_i g + r h_i (i in 0..k) and
  o_i = v_i g + s_i q (i in 1..k), prove a single r ties z to every e_i
  and that e_i, o_i hide the same v_i.  The witness is
  (r, v_0..v_k, s_1..s_k).
* square relation — given y1_i = x_i g + r1_i h and y2_i = x2_i g + r2_i h,
  prove x2_i = x_i^2 through y2_i = x_i y1_i + (r2_i - r1_i x_i) h.  The
  witness is (x, r1, r2 - r1 x).

A statement is the labelled points it absorbs, then labelled blocks of
equations, each a target and its (base, witness index) terms.  The
prover draws one nonce per witness entry in witness order, announces
each equation at the nonces and sends the challenge c with the
responses nonce - c·witness: the (c, s) form of Schnorr signatures.
The verifier recomputes each announcement as the equation at the
responses plus c·target, absorbs the statement and then each block's
announcements under its label, as the prover did, and accepts only if
the challenge it derives equals c.  The check is exact, so verification
draws no randomness.  Each side computes every distinct (base, index)
product once, as one ``multiexps`` batch, then sums each equation as a
second, so v_i g serves both e_i and o_i.

The well-formedness statement has one more equation, the link of the
proof of smallness (``zkp.integrity``):

    sum_j z_j G_j - Y = sum_t v_t G'_t - sigma q,  G'_t = sum_j R_jt G_j,

over the same v_t (t in 1..k) and one more witness entry, -sigma.  R is
a 0/1 matrix, so the equation at scalars s is
sum_j (sum_t R_jt s_t) G_j + s_sigma q: neither side forms G'_t.  The
prover sends this equation's announcement, which joins the challenge
after the others.  The statement does not absorb Y, R or the z_j: the
caller binds them in the transcript first (``zkp.integrity`` absorbs
e and o, then Y, reads R from the transcript, then absorbs the z_j).  The verifier does not recompute the announcement: ``ver_prf_wf``
returns the equation's check as an ``Identity``, which the caller
batches with the range proofs' identities, so the G_j are paid once a
batch.  A proof holds when the challenge matches and that identity holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Sequence

from ..group.base import GROUP_ORDER, Point
from ..group.multiexp import multiexp, multiexps
from ..rng import Rng
from ..serial import Message
from .rangeproof import Identity
from .transcript import Transcript

_Q = GROUP_ORDER

Equation = tuple[Point, list[tuple[Point, int]]]  # target, (base, witness index) terms
Statement = tuple[list[tuple[str, Sequence[Point]]], list[tuple[str, list[Equation]]]]


def _challenge(
    statement: Statement, scalars: Sequence[int], c: int, tr: Transcript,
    sent: Point | None = None,
) -> int:
    """The challenge over the statement and its announcements: each
    equation at ``scalars``, plus c times its target (0 for the prover),
    then the link's announcement ``sent``, if the statement has a link."""
    absorbed, blocks = statement
    backend = absorbed[0][1][0].backend  # of g, absorbed first
    equations = [eq for _, block in blocks for eq in block]
    products = list(dict.fromkeys(term for _, terms in equations for term in terms))
    value = dict(zip(products, multiexps([[(b, scalars[j])] for b, j in products], backend)))
    announced = iter(multiexps(
        [[(value[term], 1) for term in terms] + [(target, c)] for target, terms in equations],
        backend,
    ))
    for label, points in absorbed:
        tr.absorb_points(label, points)
    for label, block in blocks:
        tr.absorb_points(label, [next(announced) for _ in block])
    if sent is not None:
        tr.absorb_point("link", sent)
    return tr.challenge("c")


def _prove(
    statement: Statement,
    witness: Sequence[int],
    rng: Rng,
    tr: Transcript,
    announce: Callable[[Sequence[int]], Point] | None = None,
) -> tuple[int, list[int], Point | None]:
    """(c, the responses, the link's announcement ``announce(nonces)``)."""
    nonces = [rng.scalar() for _ in witness]
    sent = None if announce is None else announce(nonces)
    c = _challenge(statement, nonces, 0, tr, sent)
    return c, [(n - c * w) % _Q for n, w in zip(nonces, witness)], sent


def _verify(
    statement: Statement, c: int, responses: Sequence[int], tr: Transcript,
    sent: Point | None = None,
) -> bool:
    return c == _challenge(statement, responses, c, tr, sent)


@dataclass(frozen=True)
class SquareProof(Message):
    c: int
    s1: tuple[int, ...]
    s2: tuple[int, ...]
    s3: tuple[int, ...]


def _square(g: Point, h: Point, y1: Sequence[Point], y2: Sequence[Point]) -> Statement:
    k = len(y1)
    X, R1, RHO = 0, k, 2 * k  # x_i, r1_i, rho_i = r2_i - r1_i x_i
    return (
        [("g", [g]), ("h", [h]), ("y1", y1), ("y2", y2)],
        [
            ("t1", [(y1[i], [(g, X + i), (h, R1 + i)]) for i in range(k)]),
            ("t2", [(y2[i], [(y1[i], X + i), (h, RHO + i)]) for i in range(k)]),
        ],
    )


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
    witness = [*x, *r1, *(r2_i - r1_i * x_i for x_i, r1_i, r2_i in zip(x, r1, r2))]
    c, s, _ = _prove(_square(g, h, y1, y2), witness, rng, tr)
    return SquareProof(c=c, s1=tuple(s[:k]), s2=tuple(s[k : 2 * k]), s3=tuple(s[2 * k :]))


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
    return _verify(_square(g, h, y1, y2), proof.c, proof.s1 + proof.s2 + proof.s3, tr)


@dataclass(frozen=True)
class WellFormedProof(Message):
    c: int
    y: int
    y_vec: tuple[int, ...]   # one per e_i, i in 0..k
    y_star: tuple[int, ...]  # one per o_i, i in 1..k
    y_sigma: int             # the link's witness -sigma
    t_link: Point            # the link's announcement


@dataclass(frozen=True)
class Link:
    """The link equation's public part: the bases G_j, R as one row of k
    bits per G_j, Y and the z_j."""

    gs: Sequence[Point]
    rows: Sequence[Sequence[int]]
    y_commit: Point
    z: Sequence[int]


def row_sums(rows: Sequence[Sequence[int]], scalars: Sequence[int]) -> list[int]:
    """sum_t R_jt scalars[t] for each 0/1 row R_j, unreduced."""
    return [sum(compress(scalars, row)) for row in rows]


def _wellformed(
    g: Point, q: Point, h: Sequence[Point], z: Point, e: Sequence[Point], o: Sequence[Point]
) -> Statement:
    k = len(o)
    R, V, S = 0, 1, k + 1  # r, v_i at V + i (i in 0..k), s_i at S + i (i in 1..k)
    return (
        [("g", [g]), ("q", [q]), ("h", h), ("z", [z]), ("e", e), ("o", o)],
        [
            ("u", [(z, [(g, R)])]),
            ("t", [(e[i], [(g, V + i), (h[i], R)]) for i in range(k + 1)]),
            ("t*", [(o[i - 1], [(g, V + i), (q, S + i)]) for i in range(1, k + 1)]),
        ],
    )  # and -sigma at S + k + 1, which only the link reads


def _shapes_fit(h: Sequence, e: Sequence, o: Sequence, link: Link) -> bool:
    k = len(o)
    return (
        len(e) == len(h) == k + 1
        and len(link.rows) == len(link.gs) == len(link.z)
        and all(len(row) == k for row in link.rows)
    )


def gen_prf_wf(
    g: Point,
    q: Point,
    h: Sequence[Point],
    z: Point,
    e: Sequence[Point],
    o: Sequence[Point],
    link: Link,
    r: int,
    v: Sequence[int],
    s: Sequence[int],
    sigma: int,
    rng: Rng,
    tr: Transcript,
) -> WellFormedProof:
    """Prove z, e_0..e_k, o_1..o_k and the link are well formed over
    secrets (r, v, s, sigma).

    ``v`` has length k+1 (v_0 included); ``s`` has length k.
    """
    k = len(o)
    if not (_shapes_fit(h, e, o, link) and len(v) == k + 1 and len(s) == k):
        raise ValueError("inconsistent well-formedness statement lengths")

    def announce(nonces: Sequence[int]) -> Point:
        return multiexp([*link.gs, q], [*row_sums(link.rows, nonces[2 : k + 2]), nonces[-1]])

    c, y, t_link = _prove(
        _wellformed(g, q, h, z, e, o), [r, *v, *s, -sigma % _Q], rng, tr, announce
    )
    return WellFormedProof(
        c=c, y=y[0], y_vec=tuple(y[1 : k + 2]), y_star=tuple(y[k + 2 : 2 * k + 2]),
        y_sigma=y[-1], t_link=t_link,
    )


def ver_prf_wf(
    g: Point,
    q: Point,
    h: Sequence[Point],
    z: Point,
    e: Sequence[Point],
    o: Sequence[Point],
    link: Link,
    proof: WellFormedProof,
    tr: Transcript,
) -> Identity | None:
    """None if the challenge fails, else the link's check: the proof
    holds when this identity holds over g, q and the G_j, which must be
    the generator set's smallness generators where it is batched.

    The identity is the announcement recomputed at the responses, minus
    the one sent:
    sum_j (sum_t R_jt y_t + c z_j) G_j + y_sigma q - c Y - t_link.
    """
    k = len(o)
    if not (_shapes_fit(h, e, o, link) and len(proof.y_vec) == k + 1 and len(proof.y_star) == k):
        return None
    responses = (proof.y,) + proof.y_vec + proof.y_star + (proof.y_sigma,)
    if not _verify(_wellformed(g, q, h, z, e, o), proof.c, responses, tr, proof.t_link):
        return None
    c = proof.c
    return Identity(
        fixed=(0, proof.y_sigma),
        gs=[],
        hs=[],
        points=[link.y_commit, proof.t_link],
        scalars=[-c % _Q, _Q - 1],
        smallness=[
            (s_j + c * z_j) % _Q for s_j, z_j in zip(row_sums(link.rows, proof.y_vec[1:]), link.z)
        ],
    )
