"""A reference verifier for the compact sigma proofs, written apart from
``savi.zkp.sigma``, and the tampering that tests feed it.

Each announcement is recomputed on its own, as one multiexp of its
response·base and c·statement terms, and the challenge is derived from
the transcript with the labels of the wire format.  A proof passes when
that challenge is the c it carries.
"""

import dataclasses

from savi.group import GROUP_ORDER
from savi.group.multiexp import multiexp


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
                yield bumped(proof, f.name, i)
        else:
            yield bumped(proof, f.name)


def ref_ver_prf_sq(g, h, y1, y2, proof, tr):
    k = len(y1)
    if not (len(y2) == len(proof.s1) == len(proof.s2) == len(proof.s3) == k):
        return False
    c = proof.c
    t1 = [multiexp([g, h, y1[i]], [proof.s1[i], proof.s2[i], c]) for i in range(k)]
    t2 = [multiexp([y1[i], h, y2[i]], [proof.s1[i], proof.s3[i], c]) for i in range(k)]
    tr.absorb_point("g", g)
    tr.absorb_point("h", h)
    for label, points in (("y1", y1), ("y2", y2), ("t1", t1), ("t2", t2)):
        tr.absorb_points(label, points)
    return tr.challenge("c") == c


def ref_ver_prf_wf(g, q, h, z, e, o, proof, tr):
    k = len(o)
    if not (len(e) == len(h) == len(proof.y_vec) == k + 1 and len(proof.y_star) == k):
        return False
    c, y = proof.c, proof.y
    u = multiexp([g, z], [y, c])
    t = [multiexp([g, h[i], e[i]], [proof.y_vec[i], y, c]) for i in range(k + 1)]
    t_star = [
        multiexp([g, q, o[i]], [proof.y_vec[i + 1], proof.y_star[i], c]) for i in range(k)
    ]
    tr.absorb_point("g", g)
    tr.absorb_point("q", q)
    tr.absorb_points("h", h)
    tr.absorb_point("z", z)
    tr.absorb_points("e", e)
    tr.absorb_points("o", o)
    tr.absorb_point("u", u)
    tr.absorb_points("t", t)
    tr.absorb_points("t*", t_star)
    return tr.challenge("c") == c
