"""Aggregated range proof with a logarithmic inner-product argument.

Proves that each of m Pedersen commitments V_j = v_j g + gamma_j q
hides a value in [0, 2^n) (Bünz et al., "Bulletproofs", IEEE S&P 2018,
§3–4).  The N = m*n bit slots must have the shape N = c * 2^r with c
odd and at most ``MAX_ODD_PART``.  The inner-product argument folds
while the vectors have even length, r rounds, and then sends the two
c-vectors in the clear, as the recursion of Bootle et al. (EUROCRYPT
2016) ends; Bünz et al. fold on to length 1.  A proof carries 2r points
plus 2c scalars and a constant number of elements.  ``range_width``
picks the widths of this shape.

Verification replays a proof's transcript into two identities, a
polynomial one of length m and the unrolled inner-product argument of
length N, as scalar terms (``range_terms``); ``ver_range_proof`` checks
the identities of any number of proofs together in one weighted
multiexp whose G_i/H_i part is shared by all of them.

The prover costs about 8N scalar multiplications, with the paper's
arithmetic reordered and its points unchanged, so proofs are byte for
byte those of a prover that folds its bases explicitly.  The bit
commitment A has only scalars 1 and -1 on G_i and H_i, which
``multiexp`` turns into additions.  The inner-product argument carries
each base's scalar factor into the L and R scalars instead of
multiplying it in: H is never rescaled by y^{-i}, a fold stores one
bracket per pair (one multiplication), and the last round folds no
bases, since nothing reads them.

The caller passes the value commitments it already holds, and pads the
value count with zero-valued, zero-blinded commitments (the identity
point) when it needs a slot count of the right shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..group.base import GROUP_ORDER, Point
from ..group.generators import GeneratorSet
from ..group.multiexp import multiexp
from ..group.pool import map_chunks
from ..group.scalars import inv
from ..rng import Rng
from ..serial import Message
from .transcript import Transcript

_Q = GROUP_ORDER


@dataclass(frozen=True)
class RangeProof(Message):
    a_commit: Point
    s_commit: Point
    t1_commit: Point
    t2_commit: Point
    tau_x: int
    mu: int
    t_hat: int
    ls: tuple[Point, ...]
    rs: tuple[Point, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]


def _ip(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b)) % _Q


def _powers(y: int, n: int) -> list[int]:
    out = [1] * n
    for i in range(1, n):
        out[i] = out[i - 1] * y % _Q
    return out


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

    g, q = gens.g, gens.q
    gs = list(gens.range_gens.gs[:nm])
    hs = list(gens.range_gens.hs[:nm])
    tr.absorb_u64("bits", n_bits)
    tr.absorb_u64("values", m)
    tr.absorb_points("V", commitments)

    a_l = [0] * nm
    for j, v in enumerate(values):
        for i in range(n_bits):
            a_l[j * n_bits + i] = (v >> i) & 1
    a_r = [(bit - 1) % _Q for bit in a_l]

    alpha = rng.scalar()
    a_commit = multiexp([q] + gs + hs, [alpha] + a_l + a_r)
    s_l = [rng.scalar() for _ in range(nm)]
    s_r = [rng.scalar() for _ in range(nm)]
    rho = rng.scalar()
    s_commit = multiexp([q] + gs + hs, [rho] + s_l + s_r)

    tr.absorb_point("A", a_commit)
    tr.absorb_point("S", s_commit)
    y = tr.nonzero_challenge("y")
    z = tr.nonzero_challenge("z")

    y_pow = _powers(y, nm)
    zz = _powers(z, m + 2)[2:]  # z^2, z^3, ... z^{m+1}

    l0 = [(a_l[i] - z) % _Q for i in range(nm)]
    l1 = s_l
    r0 = [
        (y_pow[i] * (a_r[i] + z) + zz[i // n_bits] * (1 << (i % n_bits))) % _Q
        for i in range(nm)
    ]
    r1 = [y_pow[i] * s_r[i] % _Q for i in range(nm)]

    t1 = (_ip(l0, r1) + _ip(l1, r0)) % _Q
    t2 = _ip(l1, r1)
    tau1, tau2 = rng.scalar(), rng.scalar()
    t1_commit = multiexp([g, q], [t1, tau1])
    t2_commit = multiexp([g, q], [t2, tau2])
    tr.absorb_point("T1", t1_commit)
    tr.absorb_point("T2", t2_commit)
    x = tr.nonzero_challenge("x")

    l_vec = [(l0[i] + x * l1[i]) % _Q for i in range(nm)]
    r_vec = [(r0[i] + x * r1[i]) % _Q for i in range(nm)]
    t_hat = _ip(l_vec, r_vec)
    tau_x = (tau2 * x * x + tau1 * x + sum(zz[j] * blinds[j] for j in range(m))) % _Q
    mu = (alpha + rho * x) % _Q
    tr.absorb_scalar("tau_x", tau_x)
    tr.absorb_scalar("mu", mu)
    tr.absorb_scalar("t_hat", t_hat)
    w = tr.nonzero_challenge("w")
    u_pt = w * gens.range_gens.u

    # The inner product runs over G_i and y^{-i} H_i.  Neither is ever
    # built: bases are kept as f_g PG_i and f_h[i] PH_i, with f_g one
    # scalar for every slot and f_h[i] = c y^{-i} for one c per round, and
    # the factors are carried into the L and R scalars.  Folding
    #   G'_i = x^-1 G_i + x G_{half+i} = x^-1 f_g (PG_i + x^2 PG_{half+i})
    #   H'_i = x H_i + x^-1 H_{half+i}
    #        = x f_h[i] (PH_i + x^-2 y^-half PH_{half+i})
    # stores only the brackets (one mul and one add per pair) and moves
    # x^-1 and x into the factors.
    y_inv_pow = _powers(inv(y), nm)
    pg, ph = gs, hs
    f_g, f_h = 1, y_inv_pow

    ls: list[Point] = []
    rs: list[Point] = []
    a_cur, b_cur = l_vec, r_vec
    while len(a_cur) % 2 == 0:
        half = len(a_cur) // 2
        c_l = _ip(a_cur[:half], b_cur[half:])
        c_r = _ip(a_cur[half:], b_cur[:half])
        # scalars stay unreduced: multiexp reduces every scalar
        left = multiexp(
            pg[half:] + ph[:half] + [u_pt],
            [a * f_g for a in a_cur[:half]]
            + [b * f for b, f in zip(b_cur[half:], f_h)]
            + [c_l],
        )
        right = multiexp(
            pg[:half] + ph[half:] + [u_pt],
            [a * f_g for a in a_cur[half:]]
            + [b * f for b, f in zip(b_cur[:half], f_h[half:])]
            + [c_r],
        )
        ls.append(left)
        rs.append(right)
        tr.absorb_point("L", left)
        tr.absorb_point("R", right)
        x_r = tr.nonzero_challenge("x-fold")
        x_r_inv = inv(x_r)
        a_cur = [(a_cur[i] * x_r + a_cur[half + i] * x_r_inv) % _Q for i in range(half)]
        b_cur = [(b_cur[i] * x_r_inv + b_cur[half + i] * x_r) % _Q for i in range(half)]
        if half % 2:
            break  # the last round's folded bases would never be read
        g_hi = x_r * x_r % _Q
        h_hi = x_r_inv * x_r_inv * y_inv_pow[half] % _Q
        pg = map_chunks(
            lambda idx: [pg[i] + g_hi * pg[half + i] for i in idx], range(half), gens.backend
        )
        ph = map_chunks(
            lambda idx: [ph[i] + h_hi * ph[half + i] for i in idx], range(half), gens.backend
        )
        f_g = f_g * x_r_inv % _Q
        f_h = [f * x_r % _Q for f in f_h[:half]]

    return RangeProof(
        a_commit=a_commit,
        s_commit=s_commit,
        t1_commit=t1_commit,
        t2_commit=t2_commit,
        tau_x=tau_x,
        mu=mu,
        t_hat=t_hat,
        ls=tuple(ls),
        rs=tuple(rs),
        a=tuple(a_cur),
        b=tuple(b_cur),
    )


@dataclass(frozen=True)
class Identity:
    """One verification identity as scalar terms: it holds exactly when

        fixed[0] g + fixed[1] q + fixed[2] u
          + sum_i gs[i] G_i + sum_i hs[i] H_i + sum_j scalars[j] points[j]

    is the identity point, where G_i, H_i, u are the range generators.
    """

    fixed: tuple[int, int, int]
    gs: list[int]
    hs: list[int]
    points: list[Point]
    scalars: list[int]


# A proof's polynomial identity and its unrolled inner-product argument.
RangeTerms = tuple[Identity, Identity]


def range_terms(
    gens: GeneratorSet,
    n_bits: int,
    commitments: Sequence[Point],
    proof: RangeProof,
    tr: Transcript,
) -> RangeTerms | None:
    """Replay the proof's transcript into the terms of its two identities.

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
    if not len(proof.ls) == len(proof.rs) == rounds or not len(proof.a) == len(proof.b) == c:
        return None

    tr.absorb_u64("bits", n_bits)
    tr.absorb_u64("values", m)
    tr.absorb_points("V", commitments)
    tr.absorb_point("A", proof.a_commit)
    tr.absorb_point("S", proof.s_commit)
    y = tr.nonzero_challenge("y")
    z = tr.nonzero_challenge("z")
    tr.absorb_point("T1", proof.t1_commit)
    tr.absorb_point("T2", proof.t2_commit)
    x = tr.nonzero_challenge("x")
    tr.absorb_scalar("tau_x", proof.tau_x)
    tr.absorb_scalar("mu", proof.mu)
    tr.absorb_scalar("t_hat", proof.t_hat)
    w = tr.nonzero_challenge("w")
    challenges = []
    for j in range(rounds):
        tr.absorb_point("L", proof.ls[j])
        tr.absorb_point("R", proof.rs[j])
        challenges.append(tr.nonzero_challenge("x-fold"))
    challenges_inv = [inv(c) for c in challenges]

    y_pow = _powers(y, nm)
    zz = _powers(z, m + 2)[2:]

    # Polynomial identity at the challenge point:
    #   t_hat g + tau_x q == delta(y,z) g + sum_j z^{2+j} V_j + x T1 + x^2 T2
    delta = ((z - z * z % _Q) * sum(y_pow)) % _Q
    two_n = ((1 << n_bits) - 1) % _Q
    delta = (delta - sum(zz[j] * z for j in range(m)) % _Q * two_n) % _Q
    poly = Identity(
        fixed=((delta - proof.t_hat) % _Q, -proof.tau_x % _Q, 0),
        gs=[],
        hs=[],
        points=[proof.t1_commit, proof.t2_commit] + list(commitments),
        scalars=[x, x * x % _Q] + zz,
    )

    # Inner-product argument check, unrolled.  Slot i = t + c*j ends in
    # entry t of the final vectors, its base scaled by the fold product
    # s_j over the r rounds.
    folds = 1 << rounds
    s = [0] * folds
    s[0] = 1
    for x_inv in challenges_inv:
        s[0] = s[0] * x_inv % _Q
    for j in range(1, folds):
        lg = j.bit_length() - 1
        s[j] = s[j - (1 << lg)] * challenges[rounds - 1 - lg] ** 2 % _Q
    y_inv_pow = _powers(inv(y), nm)

    gs = [(-z - proof.a[i % c] * s[i // c]) % _Q for i in range(nm)]
    # s_j^{-1} equals the mirrored product s_{folds-1-j}
    hs = [
        (
            z * y_pow[i]
            + zz[i // n_bits] * (1 << (i % n_bits))
            - proof.b[i % c] * s[folds - 1 - i // c]
        )
        * y_inv_pow[i]
        % _Q
        for i in range(nm)
    ]
    points = [proof.a_commit, proof.s_commit]
    scalars = [1, x]
    for j in range(rounds):
        points += [proof.ls[j], proof.rs[j]]
        scalars += [challenges[j] ** 2 % _Q, challenges_inv[j] ** 2 % _Q]
    ipa = Identity(
        fixed=(0, -proof.mu % _Q, w * (proof.t_hat - _ip(proof.a, proof.b)) % _Q),
        gs=gs,
        hs=hs,
        points=points,
        scalars=scalars,
    )
    return poly, ipa


def ver_range_proof(
    gens: GeneratorSet, statements: Sequence[RangeTerms], rng: Rng
) -> bool:
    """Check every identity of every statement in one multiexp.

    Each identity is weighted by a fresh nonzero scalar from ``rng``, the
    G_i and H_i scalars are summed slot by slot (a narrower proof uses a
    prefix of the same range generators) and the g, q, u terms merged.
    A batch holding a false identity passes only if the weights happen
    to cancel it (probability about 1/order), so the result is the AND
    of the proofs' own verdicts; a single proof is a batch of one.
    """
    rg = gens.range_gens
    width = max((len(ipa.gs) for _, ipa in statements), default=0)
    fixed = [0, 0, 0]
    gs = [0] * width
    hs = [0] * width
    points: list[Point] = []
    scalars: list[int] = []
    # sums stay unreduced: multiexp reduces every scalar
    for terms in statements:
        for ident in terms:
            c = rng.nonzero_scalar()
            for j in range(3):
                fixed[j] += c * ident.fixed[j]
            for i, (sg, sh) in enumerate(zip(ident.gs, ident.hs)):
                gs[i] += c * sg
                hs[i] += c * sh
            points += ident.points
            scalars += [c * sc for sc in ident.scalars]
    bases = [gens.g, gens.q, rg.u] + list(rg.gs[:width]) + list(rg.hs[:width]) + points
    return multiexp(bases, fixed + gs + hs + scalars, backend=gens.backend).is_identity()
