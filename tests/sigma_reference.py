"""A reference verifier for the compact sigma proofs, written apart from
``savi.zkp.sigma``, and the tampering that tests feed it.

Each announcement is recomputed on its own, as one multiexp of its
response·base and c·statement terms, and the challenge is derived from
the transcript with the labels of the wire format.  A proof passes when
that challenge is the c it carries, and, for the well-formedness proof,
when the link's announcement it sends is the one recomputed with every
G'_t formed.
"""

import dataclasses

from savi.group import GROUP_ORDER
from savi.group.generators import GeneratorSet, RangeGenerators
from savi.group.multiexp import multiexp
from savi.rng import DeterministicRng
from savi.zkp import ver_prf_wf, ver_range_proof
from savi.zkp.sigma import Link


def make_link(rng, gs, q, claims):
    """A link over the generators ``gs`` for the claims v_1..v_k, with
    masks, sigma and R drawn from ``rng``; -> (link, sigma)."""
    masks, sigma = [rng.scalar() for _ in gs], rng.scalar()
    rows = [[rng.below(2) for _ in claims] for _ in gs]
    y_commit = multiexp([*gs, q], [*masks, sigma])
    answers = [(y + sum(b * x for b, x in zip(row, claims))) % GROUP_ORDER
               for y, row in zip(masks, rows)]
    return Link(gs, rows, y_commit, answers), sigma


def wf_holds(g, q, h, z, e, link, proof, tr):
    """``ver_prf_wf``'s verdict: its challenge matches and the link
    identity it returns holds."""
    small = ver_prf_wf(g, q, h, z, e, link, proof, tr)
    gens = GeneratorSet(g=g, q=q, w=(), range_gens=RangeGenerators((), ()), smallness=())
    return small is not None and ver_range_proof(gens, [small], DeterministicRng(b"weights"))


def bumped(proof, field, i=None):
    """``proof`` with one scalar plus one: ``field`` itself, or its
    entry ``i``."""
    value = getattr(proof, field)
    if i is None:
        return dataclasses.replace(proof, **{field: (value + 1) % GROUP_ORDER})
    return dataclasses.replace(
        proof, **{field: value[:i] + ((value[i] + 1) % GROUP_ORDER,) + value[i + 1:]}
    )


def each_bump(proof):
    """``proof`` with one scalar plus one, for every scalar it sends:
    c, and each response at each index."""
    for f in dataclasses.fields(proof):
        value = getattr(proof, f.name)
        if isinstance(value, tuple):
            for i in range(len(value)):
                if isinstance(value[i], int):
                    yield bumped(proof, f.name, i)
        elif isinstance(value, int):
            yield bumped(proof, f.name)


def ref_ver_prf_sq(g, q, h, e, o_prime, proof, tr):
    """e_t = v_t g + r h_t (t in 1..k) and
    o' = sum_t v_t e_t - sum_t w_t h_t + x q, with the responses for
    (r, x, v, -w)."""
    k = len(e)
    if not (len(h) == len(proof.y_vec) == len(proof.y_w) == k):
        return False
    c = proof.c
    t1 = [multiexp([g, h[t], e[t]], [proof.y_vec[t], proof.y, c]) for t in range(k)]
    t2 = multiexp(
        [*e, *h, q, o_prime], [*proof.y_vec, *proof.y_w, proof.y_x, c], g.backend
    )
    tr.absorb_point("g", g)
    tr.absorb_point("q", q)
    tr.absorb_points("h", h)
    tr.absorb_points("e", e)
    tr.absorb_point("o'", o_prime)
    tr.absorb_points("t1", t1)
    tr.absorb_point("t2", t2)
    return tr.challenge("c") == c


def ref_ver_prf_wf(g, q, h, z, e, link, proof, tr):
    """z = r g and e_t = v_t g + r h_t (t in 0..k), with the link's
    announcement over v_1..v_k and -sigma."""
    k = len(e) - 1
    if not (len(h) == len(proof.y_vec) == k + 1):
        return False
    c, y = proof.c, proof.y
    # the link's announcement, with each G'_t = sum_j R_jt G_j formed
    g_prime = [
        multiexp(link.gs, [row[t] for row in link.rows], g.backend) for t in range(k)
    ]
    t_link = multiexp(
        [*g_prime, q, *link.gs, link.y_commit],
        [*proof.y_vec[1:], proof.y_sigma, *(c * z_j for z_j in link.z), -c],
        g.backend,
    )
    if t_link != proof.t_link:
        return False
    u = multiexp([g, z], [y, c])
    t = [multiexp([g, h[i], e[i]], [proof.y_vec[i], y, c]) for i in range(k + 1)]
    tr.absorb_point("g", g)
    tr.absorb_point("q", q)
    tr.absorb_points("h", h)
    tr.absorb_point("z", z)
    tr.absorb_points("e", e)
    tr.absorb_point("u", u)
    tr.absorb_points("t", t)
    tr.absorb_point("link", t_link)
    return tr.challenge("c") == c
