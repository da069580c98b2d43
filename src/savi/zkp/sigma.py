"""Sigma protocols for the commitment relations, Fiat–Shamir transformed
on the caller's transcript (the challenge binds all absorbed before it).

One protocol proves knowledge of a witness vector w satisfying a list of
linear equations, each target = sum_j base_j · w[index_j] (Maurer,
"Unifying zero-knowledge proofs of knowledge", AFRICACRYPT 2009;
Camenisch and Stadler, CRYPTO 1997).  It serves two statements about
the projection commitments e_t = v_t g + r h_t (written additively; g is
the value base, q the auxiliary one):

* well-formedness — given z = r g and e_t (t in 0..k), prove a single r
  ties z to every e_t.  The witness is (r, v_0..v_k).
* square relation — given e_t (t in 1..k) and one point o', prove
  e_t = v_t g + r h_t and o' = sum_t v_t e_t - sum_t w_t h_t + x q.
  The witness is (r, x, v_1..v_k, -w_1..-w_k); an honest prover has
  w_t = v_t r, so o' = (sum_t v_t^2) g + x q.  The relation holds for
  any w, and only the caller's range proof on B0 g - o' ties o' to the
  squares (``zkp.integrity`` gives the argument).

A statement is the labelled points it absorbs, then labelled blocks of
equations, each a target and its (base, witness index) terms.  The
prover draws one nonce per witness entry in witness order, announces
each equation at the nonces and sends the challenge c with the
responses nonce - c·witness: the (c, s) form of Schnorr signatures.
The verifier recomputes each announcement as the equation at the
responses plus c·target, absorbs the statement and then each block's
announcements under its label, as the prover did, and accepts only if
the challenge it derives equals c.  The check is exact, so verification
draws no randomness.  Each side computes all of a statement's
announcements as one ``multiexps`` batch, one row per equation.

The well-formedness statement has one more equation, the link of the
proof of smallness (``zkp.integrity``):

    sum_j z_j G_j - Y = sum_t v_t G'_t - sigma q,  G'_t = sum_j R_jt G_j,

over the same v_t (t in 1..k) and one more witness entry, -sigma.  R is
a 0/1 matrix, so the equation at scalars s is
sum_j (sum_t R_jt s_t) G_j + s_sigma q: neither side forms G'_t.  The
prover sends this equation's announcement, which joins the challenge
after the others.  The statement does not absorb Y, R or the z_j: the
caller binds them in the transcript first (``zkp.integrity`` absorbs
e, then Y, reads R from the transcript, then absorbs the z_j).  The
verifier does not recompute the announcement: ``ver_prf_wf`` returns
the equation's check as (point, scalar) terms that must sum to the
identity point.  Each term names its own base, so the caller can batch
the list with any other (``zkp.integrity`` batches it with the range
proofs'), and the G_j, like every base the lists share, are paid once
a batch.  A proof holds when the challenge matches and its terms sum to
the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Sequence

from ..group.base import GROUP_ORDER, Point
from ..group.multiexp import multiexp, multiexps
from ..rng import Rng
from ..serial import Message
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
    announced = iter(multiexps(
        [[(base, scalars[j]) for base, j in terms] + [(target, c)]
         for _, block in blocks for target, terms in block],
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
    y: int                   # for r
    y_x: int                 # for x, the blind of o'
    y_vec: tuple[int, ...]   # one per v_t, t in 1..k
    y_w: tuple[int, ...]     # one per -w_t, t in 1..k


def _square(g: Point, q: Point, h: Sequence[Point], e: Sequence[Point], o_prime: Point) -> Statement:
    k = len(e)
    R, X, V, W = 0, 1, 2, k + 2  # r, x, v_t at V + t - 1, -w_t at W + t - 1 (t in 1..k)
    return (
        [("g", [g]), ("q", [q]), ("h", h), ("e", e), ("o'", [o_prime])],
        [
            ("t1", [(e[i], [(g, V + i), (h[i], R)]) for i in range(k)]),
            ("t2", [(o_prime, [*((e[i], V + i) for i in range(k)),
                               *((h[i], W + i) for i in range(k)), (q, X)])]),
        ],
    )


def gen_prf_sq(
    g: Point,
    q: Point,
    h: Sequence[Point],
    e: Sequence[Point],
    o_prime: Point,
    r: int,
    v: Sequence[int],
    w: Sequence[int],
    x: int,
    rng: Rng,
    tr: Transcript,
) -> SquareProof:
    """Prove e_1..e_k and o' are well formed over secrets (r, v, w, x).

    ``h`` and ``e`` are h_1..h_k and e_1..e_k; ``v`` and ``w`` have
    length k.
    """
    k = len(e)
    if not (len(h) == len(v) == len(w) == k):
        raise ValueError("square proof inputs must share one length")
    witness = [r, x, *v, *(-w_t % _Q for w_t in w)]
    c, s, _ = _prove(_square(g, q, h, e, o_prime), witness, rng, tr)
    return SquareProof(c=c, y=s[0], y_x=s[1], y_vec=tuple(s[2 : k + 2]), y_w=tuple(s[k + 2 :]))


def ver_prf_sq(
    g: Point,
    q: Point,
    h: Sequence[Point],
    e: Sequence[Point],
    o_prime: Point,
    proof: SquareProof,
    tr: Transcript,
) -> bool:
    k = len(e)
    if not (len(h) == len(proof.y_vec) == len(proof.y_w) == k):
        return False
    responses = (proof.y, proof.y_x) + proof.y_vec + proof.y_w
    return _verify(_square(g, q, h, e, o_prime), proof.c, responses, tr)


@dataclass(frozen=True)
class WellFormedProof(Message):
    c: int
    y: int
    y_vec: tuple[int, ...]   # one per e_t, t in 0..k
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


def _wellformed(g: Point, q: Point, h: Sequence[Point], z: Point, e: Sequence[Point]) -> Statement:
    R, V = 0, 1  # r, v_t at V + t (t in 0..k)
    return (
        [("g", [g]), ("q", [q]), ("h", h), ("z", [z]), ("e", e)],
        [
            ("u", [(z, [(g, R)])]),
            ("t", [(e[t], [(g, V + t), (h[t], R)]) for t in range(len(e))]),
        ],
    )  # and -sigma at V + k + 1, which only the link reads


def _shapes_fit(h: Sequence, e: Sequence, link: Link) -> bool:
    return (
        len(e) == len(h) >= 1
        and len(link.rows) == len(link.gs) == len(link.z)
        and all(len(row) == len(e) - 1 for row in link.rows)
    )


def gen_prf_wf(
    g: Point,
    q: Point,
    h: Sequence[Point],
    z: Point,
    e: Sequence[Point],
    link: Link,
    r: int,
    v: Sequence[int],
    sigma: int,
    rng: Rng,
    tr: Transcript,
) -> WellFormedProof:
    """Prove z, e_0..e_k and the link are well formed over secrets
    (r, v, sigma).

    ``v`` has length k+1 (v_0 included).
    """
    k = len(e) - 1
    if not (_shapes_fit(h, e, link) and len(v) == k + 1):
        raise ValueError("inconsistent well-formedness statement lengths")

    def announce(nonces: Sequence[int]) -> Point:
        return multiexp([*link.gs, q], [*row_sums(link.rows, nonces[2 : k + 2]), nonces[-1]])

    c, y, t_link = _prove(_wellformed(g, q, h, z, e), [r, *v, -sigma % _Q], rng, tr, announce)
    return WellFormedProof(c=c, y=y[0], y_vec=tuple(y[1 : k + 2]), y_sigma=y[-1], t_link=t_link)


def ver_prf_wf(
    g: Point,
    q: Point,
    h: Sequence[Point],
    z: Point,
    e: Sequence[Point],
    link: Link,
    proof: WellFormedProof,
    tr: Transcript,
) -> list[tuple[Point, int]] | None:
    """None if the challenge fails, else the link's check: the proof
    holds when these (point, scalar) terms sum to the identity point.

    The terms are the announcement recomputed at the responses, minus
    the one sent:
    sum_j (sum_t R_jt y_t + c z_j) G_j + y_sigma q - c Y - t_link.
    """
    if not (_shapes_fit(h, e, link) and len(proof.y_vec) == len(e)):
        return None
    responses = (proof.y,) + proof.y_vec + (proof.y_sigma,)
    if not _verify(_wellformed(g, q, h, z, e), proof.c, responses, tr, proof.t_link):
        return None
    c = proof.c
    sums = row_sums(link.rows, proof.y_vec[1:])
    return [
        (q, proof.y_sigma),
        (link.y_commit, -c % _Q),
        (proof.t_link, _Q - 1),
        *((g_j, (s_j + c * z_j) % _Q) for g_j, s_j, z_j in zip(link.gs, sums, link.z)),
    ]
