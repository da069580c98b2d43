"""Aggregated range proof: Bulletproofs+ with an odd-length final step.

Proves that each of m Pedersen commitments V_j = v_j g + gamma_j q
hides a value in [0, 2^n) (Chung, Han, Ju, Kim and Seo, "Bulletproofs+",
ASIACRYPT 2022).  The N = m*n bit slots must have the shape N = c * 2^r
with c odd and at most ``MAX_ODD_PART``; ``range_width`` picks the
widths of this shape.

The relation.  The prover commits to the bits a_L of the values and to
a_R = a_L - 1 as A = alpha q + <a_L, G> + <a_R, H>.  Challenges y and z
turn the m range statements into one weighted inner-product statement

    P = A - z <1, G> + <z 1 + d o y^(N+1-i), H> + y^(N+1) sum_j z^(2j) V_j + zeta g
      = <a, G> + <b, H> + (a .y b) g + alpha' q,

where u .y v = sum_i u_i v_i y^i (i = 1..N) is the weighted inner
product, d_i = z^(2j) 2^t for slot i = bit t of value j, a = a_L - z 1,
b = a_R + z 1 + d o y^(N+1-i), alpha' = alpha + y^(N+1) sum_j z^(2j) gamma_j
and zeta = (z - z^2) sum_i y^i - z y^(N+1) <1, d>.  Then
a .y b = zeta + y^(N+1) sum_j z^(2j) v_j, a polynomial identity in y
and z that holds only when a_L is a bit vector whose j-th block is v_j.

The weighted inner-product argument folds while the vectors have even
length.  A round of half-length h sends

    L = <a_1 y^-h, G_2> + <b_2, H_1> + (a_1 .y b_2) g + d_L q
    R = <a_2 y^h, G_1> + <b_1, H_2> + (y^h a_2 .y b_1) g + d_R q

and folds under its challenge e: G' = e^-1 G_1 + e y^-h G_2,
H' = e H_1 + e^-1 H_2, a' = e a_1 + e^-1 y^h a_2, b' = e^-1 b_1 + e b_2
and P' = e^2 L + P + e^-2 R, with alpha' = alpha + e^2 d_L + e^-2 d_R.
BP+ folds on to length 1; here it stops at the odd length c, where the
prover draws c-vectors r, s and scalars delta, eta, sends

    A1 = <r, G> + <s, H> + (r .y b + s .y a) g + delta q
    B1 = (r .y s) g + eta q,

and answers the challenge e with r' = r + e a, s' = s + e b and
delta' = eta + e delta + e^2 alpha.  The verifier checks

    e^2 P + e A1 + B1 == e <r', G> + e <s', H> + (r' .y s') g + delta' q,

which holds because (e a + r) .y (e b + s) = e^2 a .y b
+ e (r .y b + s .y a) + r .y s.  At c = 1 this is BP+'s last step.

Soundness, sketched.  Three accepting answers to distinct final
challenges interpolate the check, a degree-2 polynomial in e, into an
opening (a, b, alpha) of P whose g term is a .y b, unless they give a
discrete-log relation among g, q, G and H.  Answers to several
challenges of a folding round turn openings of the folded statement into
one of the statement before it, as in BP+.  An opening of the first
statement satisfies the identity above, which for random y and z forces
bit vectors with the committed values.  Zero knowledge, sketched: alpha
hides A, d_L and d_R hide each L and R, delta hides A1, and r', s' and
delta' are uniform because r, s and eta are; a simulator draws all of
these and solves the check for B1.

A proof carries A, the r pairs L, R, then A1 and B1: 2r + 3 points;
and r', s' and delta': 2c + 1 scalars.

The prover carries each base's scalar factor instead of multiplying it
in: G_i = f_g PG_i and H_i = f_h PH_i with one f_g and one f_h for all
slots, so a fold G' = e^-1 (G_1 + e^2 y^-h G_2), H' = e (H_1 + e^-2 H_2)
stores one bracket per pair (one mul) and moves e^-1 and e into the
factors, which the L, R and A1 scalars take.  A has only scalars 1 and
-1 on G_i and H_i, which ``multiexp`` turns into additions.  So the
prover costs 6N - 4c + 4r + 5 muls and 7N - 4c + 2r + 2 additions: A
costs one mul, a round of length n costs 2n + 4 muls for L and R and n
for the brackets, and A1 and B1 cost 2c + 4.  Its proofs are byte for byte those of a
prover that folds its bases explicitly.

Verification replays a proof's transcript into the final check with P
and the folds unrolled, one identity of (point, scalar) terms over
2N + 2r + m + 3 points plus g and q (``range_terms``).
``ver_range_proof`` checks any number of such term lists together, the
link identities of ``zkp.sigma`` among them, in one weighted multiexp
in which equal points merge, so the G_i/H_i part is shared by all of
them.

The caller passes the value commitments it already holds, and pads the
value count with zero-valued, zero-blinded commitments (the identity
point) when it needs a slot count of the right shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..group.base import GROUP_ORDER, Point
from ..group.generators import GeneratorSet
from ..group.multiexp import multiexp, multiexps
from ..group.scalars import inv
from ..rng import Rng
from ..serial import Message
from .transcript import Transcript

_Q = GROUP_ORDER


@dataclass(frozen=True)
class RangeProof(Message):
    a_commit: Point
    ls: tuple[Point, ...]
    rs: tuple[Point, ...]
    a1_commit: Point
    b1_commit: Point
    r: tuple[int, ...]
    s: tuple[int, ...]
    delta: int


def _powers(y: int, n: int) -> list[int]:
    out = [1] * n
    for i in range(1, n):
        out[i] = out[i - 1] * y % _Q
    return out


def _wip(a: Sequence[int], b: Sequence[int], y_pow: Sequence[int]) -> int:
    """The weighted inner product sum_i a_i b_i y^(i+1), 0-indexed."""
    return sum(x * w * p for x, w, p in zip(a, b, y_pow[1:])) % _Q


def _statement(n_bits: int, m: int, y_pow: Sequence[int], z: int) -> tuple[list[int], list[int]]:
    """(z^(2j) for each value j, d_i y^(N-i) for each 0-indexed slot i):
    the value weights and the slot terms of P's H_i scalars, less z."""
    nm = n_bits * m
    zz = _powers(z * z % _Q, m + 1)[1:]
    return zz, [zz[i // n_bits] * (1 << (i % n_bits)) * y_pow[nm - i] % _Q for i in range(nm)]


# The largest odd length at which the inner-product argument stops.  The
# widths it admits (2^j times 4, 5, 6, 7 or 8) lie at most 25% apart, and
# the final vectors hold at most 14 scalars.
MAX_ODD_PART = 7


def slot_shape(nm: int) -> tuple[int, int]:
    """(c, r) with nm = c * 2^r and c odd, for nm > 0."""
    r = (nm & -nm).bit_length() - 1
    return nm >> r, r


def range_width(need: int) -> int:
    """The smallest width w >= need whose odd part is at most
    ``MAX_ODD_PART``: w bit slots times a power-of-two value count is
    then a slot count a proof accepts."""
    w = need
    while slot_shape(w)[0] > MAX_ODD_PART:
        w += 1
    return w


def _check_sizes(gens: GeneratorSet, n_bits: int, m: int) -> int:
    nm = n_bits * m
    if nm <= 0 or slot_shape(nm)[0] > MAX_ODD_PART:
        raise ValueError(
            f"{nm} bit slots are not c * 2^r with odd c <= {MAX_ODD_PART} (pad the values)"
        )
    if gens.range_gens.slots() < nm:
        raise ValueError("generator set has too few range slots")
    return nm


def gen_range_proof(
    gens: GeneratorSet,
    n_bits: int,
    values: Sequence[int],
    blinds: Sequence[int],
    commitments: Sequence[Point],
    rng: Rng,
    tr: Transcript,
) -> RangeProof:
    """Prove values[j] in [0, 2^n_bits) under blinds[j], drawing the
    challenges from ``tr`` after absorbing the statement.

    ``commitments[j]`` must be values[j] g + blinds[j] q; the caller
    holds them already, so they are not recomputed.  Raises ValueError
    when a value is outside the range — an honest caller must not be
    able to produce an unprovable statement.
    """
    m = len(values)
    if len(blinds) != m or len(commitments) != m:
        raise ValueError("one blind and one commitment per value required")
    nm = _check_sizes(gens, n_bits, m)
    for v in values:
        if not 0 <= v < (1 << n_bits):
            raise ValueError(f"value {v} outside [0, 2^{n_bits})")

    g, q, backend = gens.g, gens.q, gens.backend
    gs = list(gens.range_gens.gs[:nm])
    hs = list(gens.range_gens.hs[:nm])
    tr.absorb_u64("bits", n_bits)
    tr.absorb_u64("values", m)
    tr.absorb_points("V", commitments)

    a_l = [(values[i // n_bits] >> (i % n_bits)) & 1 for i in range(nm)]
    a_r = [(bit - 1) % _Q for bit in a_l]
    alpha = rng.scalar()
    a_commit = multiexp([q] + gs + hs, [alpha] + a_l + a_r)
    tr.absorb_point("A", a_commit)
    y = tr.nonzero_challenge("y")
    z = tr.nonzero_challenge("z")

    y_pow = _powers(y, nm + 2)
    zz, dy = _statement(n_bits, m, y_pow, z)
    a = [(bit - z) % _Q for bit in a_l]
    b = [(a_r[i] + z + dy[i]) % _Q for i in range(nm)]
    alpha = (alpha + y_pow[nm + 1] * sum(w * gamma for w, gamma in zip(zz, blinds))) % _Q

    # The bases are kept as f_g PG_i and f_h PH_i, one f_g and one f_h for
    # every slot, and the factors are carried into the L, R and A1
    # scalars.  A fold stores only the brackets PG_1 + e^2 y^-h PG_2 and
    # PH_1 + e^-2 PH_2 (one mul and one add per pair) and moves e^-1 and
    # e into f_g and f_h.  Scalars stay unreduced: multiexps reduces them.
    y_inv = inv(y)
    pg, ph = gs, hs
    f_g = f_h = 1
    ls: list[Point] = []
    rs: list[Point] = []
    while len(a) % 2 == 0:
        h = len(a) // 2
        y_h, y_h_inv = y_pow[h], pow(y_inv, h, _Q)
        c_l = _wip(a[:h], b[h:], y_pow)
        c_r = y_h * _wip(a[h:], b[:h], y_pow)
        d_l, d_r = rng.scalar(), rng.scalar()
        g_l, g_r = f_g * y_h_inv % _Q, f_g * y_h % _Q
        left, right = multiexps(
            [
                [(pg[h + i], a[i] * g_l) for i in range(h)]
                + [(ph[i], b[h + i] * f_h) for i in range(h)]
                + [(g, c_l), (q, d_l)],
                [(pg[i], a[h + i] * g_r) for i in range(h)]
                + [(ph[h + i], b[i] * f_h) for i in range(h)]
                + [(g, c_r), (q, d_r)],
            ],
            backend,
        )
        ls.append(left)
        rs.append(right)
        tr.absorb_point("L", left)
        tr.absorb_point("R", right)
        e = tr.nonzero_challenge("e")
        e_inv = inv(e)
        e2, e2_inv = e * e % _Q, e_inv * e_inv % _Q
        a = [(a[i] * e + a[h + i] * y_h * e_inv) % _Q for i in range(h)]
        b = [(b[i] * e_inv + b[h + i] * e) % _Q for i in range(h)]
        alpha = (alpha + e2 * d_l + e2_inv * d_r) % _Q
        g_hi = e2 * y_h_inv % _Q
        brackets = multiexps(
            [[(pg[i], 1), (pg[h + i], g_hi)] for i in range(h)]
            + [[(ph[i], 1), (ph[h + i], e2_inv)] for i in range(h)],
            backend,
        )
        pg, ph = brackets[:h], brackets[h:]
        f_g, f_h = f_g * e_inv % _Q, f_h * e % _Q

    c = len(a)
    r = [rng.scalar() for _ in range(c)]
    s = [rng.scalar() for _ in range(c)]
    delta, eta = rng.scalar(), rng.scalar()
    a1_commit, b1_commit = multiexps(
        [
            [(pg[t], r[t] * f_g) for t in range(c)]
            + [(ph[t], s[t] * f_h) for t in range(c)]
            + [(g, _wip(r, b, y_pow) + _wip(s, a, y_pow)), (q, delta)],
            [(g, _wip(r, s, y_pow)), (q, eta)],
        ],
        backend,
    )
    tr.absorb_point("A1", a1_commit)
    tr.absorb_point("B1", b1_commit)
    e = tr.nonzero_challenge("e")
    return RangeProof(
        a_commit=a_commit,
        ls=tuple(ls),
        rs=tuple(rs),
        a1_commit=a1_commit,
        b1_commit=b1_commit,
        r=tuple((r[t] + e * a[t]) % _Q for t in range(c)),
        s=tuple((s[t] + e * b[t]) % _Q for t in range(c)),
        delta=(eta + e * delta + e * e * alpha) % _Q,
    )


def range_terms(
    gens: GeneratorSet,
    n_bits: int,
    commitments: Sequence[Point],
    proof: RangeProof,
    tr: Transcript,
) -> list[tuple[Point, int]] | None:
    """Replay the proof's transcript into the terms of its identity: the
    proof holds when the terms sum to the identity point.

    Returns None for a proof whose shape does not fit the statement (a
    slot count not of the shape c * 2^r, too few range generators, other
    than r L/R pairs, or final vectors not of length c).  Costs no group
    operation.
    """
    m = len(commitments)
    try:
        nm = _check_sizes(gens, n_bits, m)
    except ValueError:
        return None
    c, rounds = slot_shape(nm)
    if not len(proof.ls) == len(proof.rs) == rounds or not len(proof.r) == len(proof.s) == c:
        return None

    tr.absorb_u64("bits", n_bits)
    tr.absorb_u64("values", m)
    tr.absorb_points("V", commitments)
    tr.absorb_point("A", proof.a_commit)
    y = tr.nonzero_challenge("y")
    z = tr.nonzero_challenge("z")
    challenges = []
    for j in range(rounds):
        tr.absorb_point("L", proof.ls[j])
        tr.absorb_point("R", proof.rs[j])
        challenges.append(tr.nonzero_challenge("e"))
    tr.absorb_point("A1", proof.a1_commit)
    tr.absorb_point("B1", proof.b1_commit)
    e = tr.nonzero_challenge("e")
    e2 = e * e % _Q

    y_pow = _powers(y, nm + 2)
    zz, dy = _statement(n_bits, m, y_pow, z)
    ones_d = sum(zz) * ((1 << n_bits) - 1)  # <1, d>
    zeta = ((z - z * z) * sum(y_pow[1 : nm + 1]) - z * y_pow[nm + 1] * ones_d) % _Q

    # The final check with P and the folds unrolled:
    #   e^2 (P + sum_j e_j^2 L_j + e_j^-2 R_j) + e A1 + B1
    #     - e <r', G~> - e <s', H~> - (r' .y s') g - delta' q == 0,
    # with G~ and H~ the folded bases.  Slot i = t + c k ends in entry t
    # of the final vectors.  Its G base is scaled by y^(-c k) and the
    # product fold[k] of e_j or e_j^-1 over the r rounds, its H base by
    # fold[k]^-1, which is the mirrored product fold[2^r - 1 - k].
    challenges_inv = [inv(e_j) for e_j in challenges]
    folds = 1 << rounds
    fold = [1] * folds
    for e_inv in challenges_inv:
        fold[0] = fold[0] * e_inv % _Q
    for k in range(1, folds):
        lg = k.bit_length() - 1
        fold[k] = fold[k - (1 << lg)] * challenges[rounds - 1 - lg] ** 2 % _Q
    y_ck = _powers(pow(inv(y), c, _Q), folds)
    gs = [(-e2 * z - e * proof.r[i % c] * fold[i // c] * y_ck[i // c]) % _Q for i in range(nm)]
    hs = [
        (e2 * (z + dy[i]) - e * proof.s[i % c] * fold[folds - 1 - i // c]) % _Q
        for i in range(nm)
    ]
    terms = [
        (gens.g, (e2 * zeta - _wip(proof.r, proof.s, y_pow)) % _Q),
        (gens.q, -proof.delta % _Q),
        *zip(gens.range_gens.gs[:nm], gs),
        *zip(gens.range_gens.hs[:nm], hs),
        (proof.a_commit, e2),
        (proof.a1_commit, e),
        (proof.b1_commit, 1),
        *((v, e2 * w * y_pow[nm + 1] % _Q) for v, w in zip(commitments, zz)),
    ]
    for j in range(rounds):
        terms += [
            (proof.ls[j], e2 * challenges[j] ** 2 % _Q),
            (proof.rs[j], e2 * challenges_inv[j] ** 2 % _Q),
        ]
    return terms


def ver_range_proof(
    gens: GeneratorSet, statements: Sequence[Sequence[tuple[Point, int]]], rng: Rng
) -> bool:
    """Check every statement's identity, a list of (point, scalar) terms
    whose sum is the identity point, in one multiexp on ``gens``' backend.

    Each identity is weighted by a fresh nonzero scalar from ``rng``, and
    the weighted scalars of equal points are summed, whichever identity
    or role they come from: equal bases merge by encoding.  So g, q and
    the generators that every proof shares cost one mul a batch (a
    narrower proof uses a prefix of the same range generators).  A batch
    holding a false identity passes only if the weights happen to cancel
    it (probability about 1/order), so the result is the AND of the
    identities' own verdicts; a single proof is a batch of one.
    """
    merged: dict[Point, int] = {}
    # sums stay unreduced: multiexp reduces every scalar
    for terms in statements:
        w = rng.nonzero_scalar()
        for point, scalar in terms:
            merged[point] = merged.get(point, 0) + w * scalar
    return multiexp(list(merged), list(merged.values()), gens.backend).is_identity()
