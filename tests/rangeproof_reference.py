"""Textbook Bulletproofs+ range proofs (Chung et al., ASIACRYPT 2022), for
the tests: a prover and a verifier that fold both bases explicitly in
every round and multiply every term, down to the odd length c of
N = c * 2^r, where the zero-knowledge step runs on c-vectors.  The
package's prover must match the prover byte for byte, and its batch
verifier must agree with the verifier."""

from savi.group import GROUP_ORDER
from savi.group.scalars import inv
from savi.zkp.rangeproof import RangeProof

Q = GROUP_ORDER


def _naive_msm(points, scalars):
    """sum s*P with one scalar multiplication per term, even for s = +-1."""
    acc = points[0].backend.identity()
    for pt, sc in zip(points, scalars):
        acc = acc + (sc % Q) * pt
    return acc


def _wip(a, b, y):
    """The weighted inner product sum_i a_i b_i y^i, i = 1..len(a)."""
    return sum(x * w * pow(y, i + 1, Q) for i, (x, w) in enumerate(zip(a, b))) % Q


def _reference_statement(n_bits, m, y, z):
    """The paper's vectors: z^(2j) per value, d, y^<-N and zeta."""
    nm = n_bits * m
    zz = [pow(z, 2 * (j + 1), Q) for j in range(m)]
    d = [zz[i // n_bits] * 2 ** (i % n_bits) for i in range(nm)]
    y_rev = [pow(y, nm - i, Q) for i in range(nm)]
    zeta = (
        (z - z * z) * sum(pow(y, i, Q) for i in range(1, nm + 1))
        - z * pow(y, nm + 1, Q) * sum(d)
    ) % Q
    return zz, d, y_rev, zeta


def ref_gen_range_proof(gens, n_bits, values, blinds, rng, tr):
    """The textbook Bulletproofs+ prover: A with one mul per slot, both
    bases folded explicitly in every round, down to the odd length c of
    nm = c * 2^r, where the zero-knowledge step runs on c-vectors."""
    m, nm = len(values), n_bits * len(values)
    g, q = gens.g, gens.q
    big_g, big_h = list(gens.range_gens.gs[:nm]), list(gens.range_gens.hs[:nm])
    commitments = [_naive_msm([g, q], [v, gamma]) for v, gamma in zip(values, blinds)]
    tr.absorb_u64("bits", n_bits)
    tr.absorb_u64("values", m)
    tr.absorb_points("V", commitments)
    a_l = [(values[i // n_bits] >> (i % n_bits)) & 1 for i in range(nm)]
    a_r = [bit - 1 for bit in a_l]
    alpha = rng.scalar()
    a_commit = _naive_msm([q] + big_g + big_h, [alpha] + a_l + a_r)
    tr.absorb_point("A", a_commit)
    y, z = tr.nonzero_challenge("y"), tr.nonzero_challenge("z")
    zz, d, y_rev, _ = _reference_statement(n_bits, m, y, z)
    a = [(a_l[i] - z) % Q for i in range(nm)]
    b = [(a_r[i] + z + d[i] * y_rev[i]) % Q for i in range(nm)]
    alpha = (alpha + pow(y, nm + 1, Q) * sum(w * gamma for w, gamma in zip(zz, blinds))) % Q
    ls, rs = [], []
    while len(a) % 2 == 0:
        h = len(a) // 2
        y_h = pow(y, h, Q)
        d_l, d_r = rng.scalar(), rng.scalar()
        ls.append(_naive_msm(
            big_g[h:] + big_h[:h] + [g, q],
            [x * inv(y_h) for x in a[:h]] + b[h:] + [_wip(a[:h], b[h:], y), d_l],
        ))
        rs.append(_naive_msm(
            big_g[:h] + big_h[h:] + [g, q],
            [x * y_h for x in a[h:]] + b[:h] + [_wip([y_h * x for x in a[h:]], b[:h], y), d_r],
        ))
        tr.absorb_point("L", ls[-1])
        tr.absorb_point("R", rs[-1])
        e = tr.nonzero_challenge("e")
        ei = inv(e)
        big_g = [(ei * big_g[i]) + (e * inv(y_h)) % Q * big_g[h + i] for i in range(h)]
        big_h = [e * big_h[i] + ei * big_h[h + i] for i in range(h)]
        a = [(e * a[i] + ei * y_h * a[h + i]) % Q for i in range(h)]
        b = [(ei * b[i] + e * b[h + i]) % Q for i in range(h)]
        alpha = (alpha + e * e * d_l + ei * ei * d_r) % Q
    r = [rng.scalar() for _ in a]
    s = [rng.scalar() for _ in a]
    delta, eta = rng.scalar(), rng.scalar()
    a1 = _naive_msm(big_g + big_h + [g, q], r + s + [_wip(r, b, y) + _wip(s, a, y), delta])
    b1 = _naive_msm([g, q], [_wip(r, s, y), eta])
    tr.absorb_point("A1", a1)
    tr.absorb_point("B1", b1)
    e = tr.nonzero_challenge("e")
    return RangeProof(
        a_commit, tuple(ls), tuple(rs), a1, b1,
        tuple((r[t] + e * a[t]) % Q for t in range(len(a))),
        tuple((s[t] + e * b[t]) % Q for t in range(len(a))),
        (eta + e * delta + e * e * alpha) % Q,
    )


def ref_ver_range_proof(gens, n_bits, comms, proof, tr):
    """The textbook verifier: P as a point, the bases folded explicitly
    down to the length of the final vectors, then the final check."""
    m, nm = len(comms), n_bits * len(comms)
    g, q, rg = gens.g, gens.q, gens.range_gens
    tr.absorb_u64("bits", n_bits)
    tr.absorb_u64("values", m)
    tr.absorb_points("V", comms)
    tr.absorb_point("A", proof.a_commit)
    y, z = tr.nonzero_challenge("y"), tr.nonzero_challenge("z")
    zz, d, y_rev, zeta = _reference_statement(n_bits, m, y, z)
    big_g, big_h = list(rg.gs[:nm]), list(rg.hs[:nm])
    p_pt = _naive_msm(
        [proof.a_commit, g] + big_g + big_h + list(comms),
        [1, zeta] + [-z] * nm + [z + d[i] * y_rev[i] for i in range(nm)]
        + [w * pow(y, nm + 1, Q) for w in zz],
    )
    for left, right in zip(proof.ls, proof.rs):
        tr.absorb_point("L", left)
        tr.absorb_point("R", right)
        e = tr.nonzero_challenge("e")
        ei, h = inv(e), len(big_g) // 2
        y_h_inv = inv(pow(y, h, Q))
        p_pt = (e * e) * left + p_pt + (ei * ei) * right
        big_g = [ei * big_g[i] + (e * y_h_inv) % Q * big_g[h + i] for i in range(h)]
        big_h = [e * big_h[i] + ei * big_h[h + i] for i in range(h)]
    if not len(big_g) == len(proof.r) == len(proof.s):
        return False
    tr.absorb_point("A1", proof.a1_commit)
    tr.absorb_point("B1", proof.b1_commit)
    e = tr.nonzero_challenge("e")
    lhs = (e * e) * p_pt + e * proof.a1_commit + proof.b1_commit
    return lhs == _naive_msm(
        big_g + big_h + [g, q],
        [e * x for x in proof.r] + [e * x for x in proof.s]
        + [_wip(proof.r, proof.s, y), proof.delta],
    )
