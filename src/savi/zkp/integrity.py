"""The composed client proof that a committed update passes the norm check.

A prover holding (u, r) behind the published commitment vector y and
blind commitment z shows, without revealing u:

  * e_star lists e_t = v_t g + r h_t where v_t = <a_t, u> — checkable
    against y and the projection matrix by a random linear combination;
    the well-formedness proof shows that one r, the one behind z, blinds
    every e_t;
  * o_prime = (sum_t v_t^2) g + x q commits to the sum of the squares of
    the v_t that e_star opens, under the auxiliary base q and a blind x.
    The square proof sends H = sum_t v_t h_t + rho q, under a fresh blind
    rho, and shows H's equation and o_prime = sum_t v_t e_t - r H + x~ q
    (x~ = x + r rho), over the same v_t and r as e_t = v_t g + r h_t;
  * every |v_t| is at most 2T, by an approximate proof of smallness
    (below), so v_t^2 <= (2T)^2;
  * B0 - sum v_t^2 lies in [0, 2^b_max) (a Bulletproofs+ range proof,
    ``zkp.rangeproof``, on B0 g - o_prime, which the verifier derives),
    i.e. the projected norm is bounded.  ``CheckParameters`` keeps
    k (2T)^2 + 2^b_max below the group order, so the sum of squares
    cannot wrap around it.

One commitment to the squares.  e_t already commits to v_t, under the
blind r on the base h_t, so no second commitment to the projections is
sent, and the k squares are summed in one point.  The argument, for
extracted witnesses:

  * Binding.  The well-formedness proof extracts (r, v_t) with
    e_t = v_t g + r h_t, and the square proof (r', v'_t) with
    e_t = v'_t g + r' h_t.  h_t = A_t·w is a known combination of the
    commitment generators w_l, so two openings of e_t give a
    discrete-log relation among g and the w_l unless v_t = v'_t: both
    proofs extract the same v_t.
  * The square equation.  The square proof also extracts rho and x~ with
    H = sum_t v_t h_t + rho q and o_prime = sum_t v_t e_t - r' H + x~ q.
    Substituting e_t and H, the h_t terms cancel exactly:
    o_prime = (sum_t v_t^2) g + (x~ - r' rho) q, an opening over g and
    q alone, whatever A's rows are.
  * The slack.  The range proof extracts an opening
    B0 g - o_prime = s g + gamma q with s in [0, 2^b_max), over g and q.
    Subtracting the two representations gives
    (sum_t v_t^2 + s - B0) g + (x~ - r' rho + gamma) q = 0, a
    discrete-log relation between g and q unless
    sum_t v_t^2 = B0 - s mod p.
  * No wrap.  The proof of smallness bounds every |v_t| by 2T, so
    sum_t v_t^2 + s <= k (2T)^2 + 2^b_max < p, and the congruence holds
    over the integers: sum_t v_t^2 <= B0.

The proof of smallness is that of Gentry, Halevi and Lyubashevsky
(EUROCRYPT 2022), as ACORN (Bell et al., USENIX Security 2023) uses it
for the inputs of a secure aggregation.  Let W = ceil(sqrt(k B0)): by
Cauchy–Schwarz, |sum_t R_t v_t| <= W for any 0/1 vector R and any claim
that passes B0.  Let T = 2^8 W and lambda = ``LAMBDA`` = 128.

  * The prover sizes its masks on its claims.  Their reach
    W_v = min(W, max(sum of the positive v_t, sum of the negative v_t's
    sizes)) is the largest |sum_t R_t v_t| that any 0/1 vector R gives
    for them (``_mask_reach``); the cap W binds only on claims that
    fail B0.  It draws masks y_j uniform in [-(T + W_v), T + W_v] for j
    in 1..lambda and a blind sigma, and commits to all of them in one
    point, Y = sum_j y_j G_j + sigma q, over the generators G_j
    (``GeneratorSet.smallness``).  It absorbs Y, reads R in
    {0,1}^(lambda x k) from the transcript, and computes
    z_j = y_j + sum_t R_jt v_t.  If any |z_j| > T, it discards the try
    and starts again from the transcript before Y (Fiat–Shamir with
    aborts, Lyubashevsky, ASIACRYPT 2009).  A row's shift is at most
    W_v, so it passes with probability (2T + 1)/(2T + 2 W_v + 1), and all
    lambda pass with probability p(W_v) = ((2T + 1)/(2T + 2 W_v + 1))^lambda,
    about exp(-W_v/(2W)): 1/p(W_v) tries on average, one for zero claims
    and about 1/0.61 = 1.65 at the cap W_v = W.  Honest claims reach about
    a tenth of W (``BENCH_claims_reach.json``), so a proof takes about
    1.05 tries.  After ``MAX_TRIES`` tries the prover sends its last one
    with each z_j cut into [-T, T]: a proof that encodes but whose link
    fails, so the verifier names it "range_ip".  An honest prover gets
    there with probability (1 - p(W_v))^64 <= (1 - p(W))^64 < 2^-86.
  * The z_j travel packed: each z_j + T in w = (2T).bit_length() bits
    (``CheckParameters.z_width``), 16 w bytes for the lambda of them.
    The verifier knows T, so the bytes carry neither T nor a count.
  * The z_j are absorbed, and the well-formedness proof carries one
    more equation over its v_t and the witness sigma (``zkp.sigma``):
    sum_j z_j G_j - Y = sum_t v_t G'_t - sigma q, G'_t = sum_j R_jt G_j.
  * The verifier checks that every |z_j| <= T and that equation, whose
    identity it batches with the range proofs'.

Soundness.  The transcript absorbs e_star, then Y, and only then draws
R, so the claims and the y_j are both fixed before R: the v_t that the
well-formedness proof extracts are those e_star commits to, and the
equation opens Y to y_j = z_j - sum_t R_jt v_t with them, unless the
prover knows a discrete-log relation among the G_j and q.  (Were e_star
absorbed after R, a prover could pick claims against a known R, such
as a large offset in the kernel of R that also keeps the sum of squares
in range mod p.  o_prime may follow R: the square proof fixes it to
the squares of the v_t in e_star.)  Take two accepting R that differ only in
R_jt: then v_t = +-(z_j - z'_j) mod p, whose centred value is at most
2T.  So if some v_t has a centred value above 2T, for each row j at
most one of R_jt's two values lets the row pass, and all lambda rows
pass with probability at most 2^-lambda per extraction.  The extracted v_t are then integers with |v_t| <= 2T, so
sum v_t^2 <= k (2T)^2, and with the slack in [0, 2^b_max) the sum of
squares does not wrap: k (2T)^2 + 2^b_max < p.  The binary challenges
are what make each v_t an integer rather than, say, half of one: a proof
that only showed gamma v_t small for some small gamma would accept
u = 2^-1 w.

Zero knowledge.  Y is a Pedersen vector commitment under the uniform
blind sigma, so it hides the masks.  Every row's shift
s = sum_t R_jt v_t has |s| <= W_v <= W, so y_j + s is uniform on a
range that covers [-T, T], and an accepted z_j is uniform on [-T, T]
whatever v is (rejection sampling); a rejected try is never sent.  The
number of tries is not sent either, but its distribution depends on
W_v, so on the claims: like ``commit_update``'s additions, one per
nonzero digit of u, it is a timing signal to whoever times the prover.
o_prime is a Pedersen commitment under the uniform blind x, so it hides
the sum of squares, and H is one under the uniform blind rho, so it
hides the v_t it combines.  x~ = x + r rho is a witness like any other.
The link's announcement and the sigma proofs' responses are a sigma
protocol's, which a simulator draws in the usual way.

All sub-proofs draw their challenges from one transcript bound to
the check parameters, the round and the client's commitments.
Verification reports which sub-check failed so the simulator can
attribute rejections.  The two sigma proofs are checked exactly, one
client at a time, but for the link.  The rest of a round's proofs is
verified in batches.  The link identity and the slack range proof's
identity of every client (``range_terms``), each a list of (point,
scalar) terms, are weighted and checked as one multiexp in which equal
points merge: the G_j, the range generators, g and q cost one mul a
batch (Bellare, Garay and Rabin's small-exponent test, as below).  A
batch that fails is bisected (``_failing``): each half is checked, down
to the clients that fail alone, so a set of n clients costs at most
2n - 1 checks.  A client whose z lies outside [-T, T] gets "range_ip"
before the batch.  One that fails alone gets "range_ip" if its link
identity fails alone, and "range_sum" if not, with no check of its
slack identity alone: a weighted sum of two identities that both hold
always holds, so when the pair fails and the link holds, the slack
fails.  e_star is checked once for the whole set, not once per client,
as follows.

Consistency per set.  Client i's e_star is consistent when
e_{i,t} = sum_l A_{t,l} y_{i,l} for every row t.  Let E_t and Y_l be the
column sums of e_star and y over a set S of clients.  One ``ver_crt``
tests sum_t b_t E_t == sum_l c_l Y_l, with the round's weights b and
c = b·A: d + k + 1 muls for the set, where checking each client costs
that much per client.  This is the small-exponent batch test of
Bellare, Garay and Rabin (EUROCRYPT 1998).

  * Which set.  The test runs once, last, on the clients that pass
    every other check: the accepted set, whose Y the server then
    unblinds.  If it fails, it is bisected by the same routine as the
    range batch, and a client that fails alone is named "consistency".
    The halves that pass need no further check, because the test is
    linear: their union passes too.  Y is then the set's sums less the
    named clients' columns.
  * Failure bound.  b is drawn after every proof is in.  So a fixed
    nonzero error sum over a subset passes with probability at most 1/p.
    A round checks at most 2n - 1 subsets: one bisection tree.
  * What a passing set still guarantees.  The sum of the accepted
    clients' claimed projections opens A·sum_i u_i.  Honest clients'
    claims are exact, so the malicious clients' sum u_M has
    ||A·u_M|| <= |M|·sqrt(B0), since each of their claims passed the norm
    check.  A is drawn after the commitments, so the bound applies to
    u_M.  That is the bound on the aggregate that per-client checks give
    through the triangle inequality.  The well-formedness proofs fix
    the blind of each e_{i,0} to the r_i behind z_i.  The uniform row a_0
    is drawn after the commitments too, so it forces Y's blind on every
    coordinate to equal the sum of the r_i: colluders cannot make the
    server's unblinding fail.
  * What colluders get.  Clients whose e_star errors cancel in the sum
    pass and are not named.  They may each send any update whose sum
    meets the bound above; the aggregate stays exact.  A single client
    with a bad e_star is still named "consistency" by the bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from ..commit import aggregate_commitments
from ..group.base import GROUP_ORDER, Point
from ..group.generators import LAMBDA, GeneratorSet
from ..group.multiexp import multiexp, multiexps
from ..group.scalars import scalar_to_bytes
from ..rng import Rng
from ..serial import Message
from .rangeproof import RangeProof, gen_range_proof, range_terms, ver_range_proof
from .sigma import (
    Link,
    SquareProof,
    WellFormedProof,
    gen_prf_sq,
    gen_prf_wf,
    row_sums,
    ver_prf_sq,
    ver_prf_wf,
)
from .transcript import Transcript
from .vercrt import crt_weights, ver_crt

if TYPE_CHECKING:
    from ..sampling import CheckParameters, SampleMatrix

_Q = GROUP_ORDER
_Terms = list[tuple[Point, int]]  # an identity: terms that sum to the identity point

MAX_TRIES = 64
"""Tries of the proof of smallness before the prover sends its last one."""


class BoundExceededError(Exception):
    """The projected squared norm exceeds B0 — an honest client's
    update failed the probabilistic check (probability <= epsilon +
    2^-128 when the norm is truly within B, see ``sampling``).
    ``projections`` is the row_inner vector the check computed, for a
    cheater that proves anyway."""

    def __init__(self, total: int, b0: int, projections: list[int]) -> None:
        super().__init__(f"sum of squared projections {total} exceeds bound {b0}")
        self.total = total
        self.b0 = b0
        self.projections = projections


@dataclass(frozen=True)
class IntegrityProof(Message):
    e_star: tuple[Point, ...]
    o_prime: Point  # the commitment to the sum of squares
    masks: Point  # Y, the commitment to the proof of smallness' masks
    z: bytes      # its answers z_j, packed (``_pack``)
    rho: WellFormedProof
    tau: SquareProof
    mu: RangeProof


def _slack(params: "CheckParameters", gens: GeneratorSet, o_prime: Point) -> Point:
    """The mu range proof's value commitment B0 g - o_prime."""
    return (params.b0 % _Q) * gens.g - o_prime


def _transcript(
    params: "CheckParameters", matrix: "SampleMatrix", round_no: int, client_id: int,
    y: Sequence[Point], z: Point, e_star: Sequence[Point],
) -> Transcript:
    """The one Fiat–Shamir transcript of a client's proof in a round,
    bound to e_star before any challenge is drawn."""
    tr = Transcript("integrity-proof")
    for label in ("d", "k", "M", "b_max"):
        tr.absorb_u64(label, getattr(params, label))
    tr.absorb_bytes("B0", params.b0.to_bytes((params.b_max + 7) // 8, "little"))
    tr.absorb_bytes("seed", matrix.seed)
    tr.absorb_u64("round", round_no)
    tr.absorb_u64("client", client_id)
    tr.absorb_points("y", y)
    tr.absorb_point("z", z)
    tr.absorb_points("e_star", e_star)
    return tr


def _challenge_rows(tr: Transcript, y_commit: Point, k: int) -> list[list[int]]:
    """Absorb Y, then read R: LAMBDA rows of k bits."""
    tr.absorb_point("Y", y_commit)
    raw = np.frombuffer(tr.challenge_bytes("R", LAMBDA * k // 8), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little").reshape(LAMBDA, k).tolist()


def _absorb_answers(tr: Transcript, z: Sequence[int]) -> None:
    tr.absorb_bytes("z_j", b"".join(scalar_to_bytes(x % _Q) for x in z))


def _pack(params: "CheckParameters", z: Sequence[int]) -> bytes:
    """The answers, each z_j + T in ``z_width`` bits, little-endian."""
    width, bound = params.z_width, params.z_bound
    packed = sum((x + bound) << (j * width) for j, x in enumerate(z))
    return packed.to_bytes(LAMBDA * width // 8, "little")  # LAMBDA is a multiple of 8


def _unpack(params: "CheckParameters", raw: bytes) -> list[int]:
    """The answers in ``_pack``'s bytes, of the length it writes: each
    at least -T, and above T where the field holds more than 2T."""
    width, bound = params.z_width, params.z_bound
    packed, mask = int.from_bytes(raw, "little"), (1 << width) - 1
    return [(packed >> (j * width) & mask) - bound for j in range(LAMBDA)]


def _mask_reach(params: "CheckParameters", claims: Sequence[int]) -> int:
    """W_v = min(W, max(sum of the positive claims, sum of the negative
    ones' sizes)): the largest |sum_t R_t v_t| of any 0/1 vector R, capped
    at W, which only claims that fail B0 reach."""
    up = sum(v for v in claims if v > 0)
    down = -sum(v for v in claims if v < 0)
    return min(params.mask_slack, max(up, down))


def _smallness(
    params: "CheckParameters", gens: GeneratorSet, claims: Sequence[int], rng: Rng,
    tr: Transcript,
) -> tuple[Link, int, Transcript]:
    """Commit to the masks and answer R, with up to ``MAX_TRIES`` tries
    (see the module docstring).  Returns the link of the try it sends,
    its blind sigma and the transcript after its R, before its answers;
    ``tr`` is left as the tries found it.  The answers sent are in
    [-T, T] whether or not a try passed."""
    bound = params.z_bound
    spread = bound + _mask_reach(params, claims)
    for _ in range(MAX_TRIES):
        masks = [rng.below(2 * spread + 1) - spread for _ in range(LAMBDA)]
        sigma = rng.scalar()
        y_commit = multiexp([*gens.smallness, gens.q], [*masks, sigma])
        attempt = tr.fork()
        rows = _challenge_rows(attempt, y_commit, params.k)
        z = [m + x for m, x in zip(masks, row_sums(rows, claims))]
        if all(abs(x) <= bound for x in z):
            break
    else:  # no try passed: cut the last one's answers, so its link fails
        z = [max(-bound, min(bound, x)) for x in z]
    return Link(gens.smallness, rows, y_commit, z), sigma, attempt


def gen_integrity_proof(
    params: "CheckParameters",
    gens: GeneratorSet,
    matrix: "SampleMatrix",
    h: Sequence[Point],
    z: Point,
    y: Sequence[Point],
    r: int,
    u: Sequence[int],
    round_no: int,
    client_id: int,
    rng: Rng,
) -> IntegrityProof:
    """Produce the full proof for update u under blind r.

    Preconditions (the protocol layer guarantees them): the caller has
    checked h against the matrix with ver_crt, u is the committed
    update, y = commit_update(u, r) and z = r g.  Raises
    BoundExceededError when the projections genuinely exceed B0 — the
    honest response is to sit the round out.
    """
    if len(u) != params.d or matrix.k != params.k or len(h) != params.k + 1:
        raise ValueError("dimension mismatch between update, matrix and h")
    v = matrix.row_inner(u)  # v[0] already reduced; v[1:] signed ints
    total = sum(x * x for x in v[1:])
    if total > params.b0:
        raise BoundExceededError(total, params.b0, v)
    return _prove(params, gens, matrix, h, z, y, r, v, v[1:], round_no, client_id, rng)


def _prove(
    params: "CheckParameters", gens: GeneratorSet, matrix: "SampleMatrix",
    h: Sequence[Point], z: Point, y: Sequence[Point], r: int, v: Sequence[int],
    claims: Sequence[int], round_no: int, client_id: int, rng: Rng,
) -> IntegrityProof:
    """Prove that e_star opens the projections v, and that the claimed
    projections (v[1:] for an honest client) pass the norm check: the
    proof of smallness and o_prime are made on the claims, the sigma
    proofs on v.  Only an honest claim yields a proof that verifies."""
    k = params.k
    g, q = gens.g, gens.q
    v_mod = [v[0]] + [t % _Q for t in v[1:]]
    squares = sum(t * t for t in claims)
    x, x_h = rng.scalar(), rng.scalar()  # the blinds of o_prime and of H
    *e_star, o_prime, h_commit = multiexps(
        [[(g, v_mod[t]), (h[t], r)] for t in range(k + 1)]
        + [[(g, squares % _Q), (q, x)], [*zip(h[1:], v_mod[1:]), (q, x_h)]],
        gens.backend,
    )

    tr = _transcript(params, matrix, round_no, client_id, y, z, e_star)
    link, sigma, tr = _smallness(params, gens, claims, rng, tr)
    _absorb_answers(tr, link.z)
    rho = gen_prf_wf(g, q, h, z, e_star, link, r, v_mod, sigma, rng, tr)
    tau = gen_prf_sq(g, q, h[1:], e_star[1:], o_prime, h_commit, r, v_mod[1:], x, x_h, rng, tr)
    mu = gen_range_proof(
        gens,
        params.b_max,
        [params.b0 - squares],
        [-x % _Q],
        [_slack(params, gens, o_prime)],
        rng,
        tr,
    )
    return IntegrityProof(
        e_star=tuple(e_star),
        o_prime=o_prime,
        masks=link.y_commit,
        z=_pack(params, link.z),
        rho=rho,
        tau=tau,
        mu=mu,
    )


def ver_integrity_proof(
    params: "CheckParameters",
    gens: GeneratorSet,
    matrix: "SampleMatrix",
    h: Sequence[Point],
    z: Point,
    y: Sequence[Point],
    proof: IntegrityProof,
    round_no: int,
    client_id: int,
    rng: Rng,
) -> tuple[bool, str | None]:
    """Check one client's proof; returns (verdict, failed-check label).

    A batch of one for ``ver_integrity_set``, which documents the
    labels; honest proofs return (True, None).
    """
    reason = ver_integrity_set(
        params, gens, matrix, h, {client_id: (z, y, proof)}, round_no, rng
    )[0][client_id]
    return reason is None, reason


def ver_integrity_set(
    params: "CheckParameters",
    gens: GeneratorSet,
    matrix: "SampleMatrix",
    h: Sequence[Point],
    proofs: Mapping[int, tuple[Point, Sequence[Point], IntegrityProof]],
    round_no: int,
    rng: Rng,
) -> tuple[dict[int, str | None], list[Point]]:
    """Check the proofs of a round, given as client id -> (z, y, proof).

    Returns client id -> the label of the first failed check, or None
    for a proof that verifies, and Y: the column sums of y over the
    accepted clients (d identities if none is).  The labels
    ("malformed", "consistency", "wellformed", "square", "range_ip",
    "range_sum") feed the simulator's rejection report.

    Every weight comes from the child stream ``verify/<round_no>``, so
    ``rng`` draws nothing and no proof moves the caller's later draws.
    That stream feeds two things only.  First, k+1 nonzero weights b and
    their combination c = b·A, computed once for the round, for the
    consistency check of the set (see the module docstring).  Second,
    the weights of the batch of link and slack identities.

    The checks run in one forward pass, and a proof is named by the
    first it fails.  First, per client in client-id order: the shape (the
    packed answers' length included), then the two sigma proofs, which
    are exact but for the link, and the z window.  Second, the link and
    slack identities of every client that passes them, as one weighted
    multiexp, bisected on failure down to single clients (``_failing``).
    A client that fails alone is named "range_ip" if its link fails
    alone, else "range_sum": the slack needs no check of its own, since
    two identities that both hold cannot fail together.  Last, one
    consistency check of the clients still accepted, bisected in the
    same way.  e_star and y are in each proof's transcript, so a proof
    whose e_star or y changed after proving is named "wellformed";
    "consistency" names a proof that is valid, but about projections
    other than those of the committed update.
    """
    weights = rng.child(f"verify/{round_no}")
    crt = crt_weights(matrix, weights)
    d = params.d
    verdicts: dict[int, str | None] = {}
    batch: dict[int, tuple[_Terms, _Terms]] = {}
    for client_id in sorted(proofs):
        z, y, proof = proofs[client_id]
        if not _well_shaped(params, h, y, proof):
            verdicts[client_id] = "malformed"
            continue
        checked = _cheap_checks(
            params, gens, matrix, h, z, y, proof, round_no, client_id, weights
        )
        if isinstance(checked, str):
            verdicts[client_id] = checked
        else:
            verdicts[client_id] = None
            batch[client_id] = checked

    def identities_hold(part: list[int]) -> bool:
        return ver_range_proof(gens, [terms for i in part for terms in batch[i]], weights)

    for client_id in _failing(sorted(batch), identities_hold):
        verdicts[client_id] = _identity_failure(gens, batch[client_id][0], weights)

    accepted = [i for i in sorted(batch) if verdicts[i] is None]
    columns = {i: (*proofs[i][1], *proofs[i][2].e_star) for i in accepted}  # y then e_star
    sums = aggregate_commitments(list(columns.values()), gens)

    def consistent(part: list[int]) -> bool:
        at = sums if part == accepted else aggregate_commitments([columns[i] for i in part], gens)
        return ver_crt(at[:d], at[d:], *crt)

    named = _failing(accepted, consistent)
    for client_id in named:
        verdicts[client_id] = "consistency"
    if named:
        sums = aggregate_commitments([sums], gens, [columns[i] for i in named])
    return verdicts, sums[:d]


def _well_shaped(
    params: "CheckParameters", h: Sequence[Point], y: Sequence[Point], proof: IntegrityProof
) -> bool:
    """Whether every vector has the length the checks index it by."""
    k = params.k
    return (
        len(proof.e_star) == k + 1
        and len(proof.z) == LAMBDA * params.z_width // 8
        and len(h) == k + 1
        and len(y) == params.d
    )


def _cheap_checks(
    params: "CheckParameters", gens: GeneratorSet, matrix: "SampleMatrix",
    h: Sequence[Point], z: Point, y: Sequence[Point], proof: IntegrityProof,
    round_no: int, client_id: int, weights: Rng,
) -> str | tuple[_Terms, _Terms]:
    """The checks of a well-shaped proof but the batched identities and
    the set's consistency: the failed-check label, or the identities of
    the link and of the mu range proof."""
    g, q = gens.g, gens.q
    tr = _transcript(params, matrix, round_no, client_id, y, z, proof.e_star)
    rows = _challenge_rows(tr, proof.masks, params.k)
    answers = _unpack(params, proof.z)
    _absorb_answers(tr, answers)
    link = Link(gens.smallness, rows, proof.masks, answers)
    small = ver_prf_wf(g, q, h, z, proof.e_star, link, proof.rho, tr)
    if small is None:
        return "wellformed"
    if not ver_prf_sq(g, q, h[1:], proof.e_star[1:], proof.o_prime, proof.tau, tr):
        return "square"
    if max(answers) > params.z_bound:
        return "range_ip"

    mu = range_terms(gens, params.b_max, [_slack(params, gens, proof.o_prime)], proof.mu, tr)
    if mu is None:
        return _identity_failure(gens, small, weights)
    return small, mu


def _identity_failure(gens: GeneratorSet, small: _Terms, weights: Rng) -> str:
    """The label of a client whose link or slack identity fails:
    "range_ip" if its link fails alone, else "range_sum"."""
    return "range_sum" if ver_range_proof(gens, [small], weights) else "range_ip"


def _failing(ids: list[int], holds: Callable[[list[int]], bool]) -> list[int]:
    """The clients in ``ids`` that fail ``holds`` alone: check them
    together and, on failure, each half, down to single clients.  A set
    that holds is not split, so ``holds`` runs on at most 2 len(ids) - 1
    sets."""
    if not ids or holds(ids):
        return []
    if len(ids) == 1:
        return ids
    half = len(ids) // 2
    return _failing(ids[:half], holds) + _failing(ids[half:], holds)
