"""The composed client proof that a committed update passes the norm check.

A prover holding (u, r) behind the published commitment vector y and
blind commitment z shows, without revealing u:

  * e_star lists e_t = v_t g + r h_t where v_t = <a_t, u> — checkable
    against y and the projection matrix by a random linear combination;
  * o_t / o_prime_t commit to v_t and v_t^2 under the auxiliary base q
    (same v_t as e_t via the well-formedness proof, squares via the
    square proof);
  * each shifted v_t + 2^(b_ip-1) lies in [0, 2^b_ip) (one range proof
    on the 2^(b_ip-1) g + o_t, padded with identity points to k_padded
    values), so |v_t| < 2^(b_ip-1) and v_t^2 <= 2^(2(b_ip-1));
  * B0 - sum v_t^2 lies in [0, 2^b_max) (range proof on
    B0 g - sum o_prime_t, which the verifier derives), i.e. the projected
    norm is bounded.  ``CheckParameters`` keeps
    k_padded 2^(2(b_ip-1)) + 2^b_max below the group order, so the sum
    of squares cannot wrap around it.

Both range proofs are Bulletproofs+ (``zkp.rangeproof``).  Their widths
follow from B0 (``CheckParameters``), and each one's slot count is
c * 2^r with c odd and at most 7: b_ip * k_padded for the projections
and b_max for the slack.

All four sub-proofs draw their challenges from one transcript bound to
the check parameters, the round and the client's commitments.
Verification reports which sub-check failed so the simulator can
attribute rejections.  The two sigma proofs are checked exactly, one
client at a time.  The rest of a round's proofs is verified in batches.
The range proofs of every client, each replayed into one identity over
the shared slot bases (``range_terms``), are checked as one weighted
multiexp, which is bisected on failure to name the cheaters: a client
whose sigma identity fails gets "range_ip", one whose mu identity fails
"range_sum".  e_star is checked once for the whole set, not once per
client, as follows.

Consistency per set.  Client i's e_star is consistent when
e_{i,t} = sum_l A_{t,l} y_{i,l} for every row t.  Let E_t and Y_l be the
column sums of e_star and y over a set S of clients.  One ``ver_crt``
tests sum_t b_t E_t == sum_l c_l Y_l, with the round's weights b and
c = b·A: d + k + 1 muls for the set, where checking each client costs
that much per client.  This is the small-exponent batch test of
Bellare, Garay and Rabin (EUROCRYPT 1998).

  * Which set.  The test runs on the well-shaped proofs, after
    "malformed" and before "wellformed".  If it fails, it is bisected as
    the range batch is, and a client that fails alone is named
    "consistency".  The halves that pass need no further check, because
    the test is linear: their union passes too.  If a later check drops
    anyone, the sums of the final set are the first sums minus the
    dropped clients' columns, and that set is checked once more, bisected
    in the same way.  So the test always covers exactly the accepted
    set, whose Y the server then unblinds.
  * Failure bound.  b is drawn after every proof is in.  So a fixed
    nonzero error sum over a subset passes with probability at most 1/p.
    A round checks at most 4n subsets: two bisection trees of at most
    2n - 1 nodes each.
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
from typing import TYPE_CHECKING, Mapping, Sequence

from ..commit import aggregate_commitments
from ..group.base import GROUP_ORDER, Point
from ..group.generators import GeneratorSet
from ..group.multiexp import multiexps, sum_points
from ..rng import Rng
from ..serial import Message
from .rangeproof import (
    Identity,
    RangeProof,
    gen_range_proof,
    range_terms,
    ver_range_proof,
)
from .sigma import (
    SquareProof,
    WellFormedProof,
    gen_prf_sq,
    gen_prf_wf,
    ver_prf_sq,
    ver_prf_wf,
)
from .transcript import Transcript
from .vercrt import crt_weights, ver_crt

if TYPE_CHECKING:
    from ..sampling import CheckParameters, SampleMatrix

_Q = GROUP_ORDER


class BoundExceededError(Exception):
    """The projected squared norm exceeds B0 — an honest client's
    update failed the probabilistic check (probability <= epsilon when
    the norm is truly within B).  ``projections`` is the row_inner
    vector the check computed, for a cheater that proves anyway."""

    def __init__(self, total: int, b0: int, projections: list[int]) -> None:
        super().__init__(f"sum of squared projections {total} exceeds bound {b0}")
        self.total = total
        self.b0 = b0
        self.projections = projections


@dataclass(frozen=True)
class IntegrityProof(Message):
    e_star: tuple[Point, ...]
    o: tuple[Point, ...]
    o_prime: tuple[Point, ...]
    rho: WellFormedProof
    tau: SquareProof
    sigma: RangeProof
    mu: RangeProof


def _padded(values: list[int], pad_to: int) -> list[int]:
    return values + [0] * (pad_to - len(values))


def _shifted(params: "CheckParameters", gens: GeneratorSet, o: Sequence[Point]) -> list[Point]:
    """The sigma range proof's value commitments 2^(b_ip-1) g + o_t,
    padded with identity points to k_padded."""
    shift = (1 << (params.b_ip - 1)) * gens.g
    pad = [gens.backend.identity()] * (params.k_padded - len(o))
    return multiexps([[(shift, 1), (o_t, 1)] for o_t in o], gens.backend) + pad


def _slack(params: "CheckParameters", gens: GeneratorSet, o_prime: Sequence[Point]) -> Point:
    """The mu range proof's value commitment B0 g - sum o_prime_t."""
    return (params.b0 % _Q) * gens.g - sum_points(o_prime, backend=gens.backend)


def _transcript(
    params: "CheckParameters", matrix: "SampleMatrix", round_no: int, client_id: int,
    y: Sequence[Point], z: Point,
) -> Transcript:
    """The one Fiat–Shamir transcript of a client's proof in a round."""
    tr = Transcript("integrity-proof")
    for label in ("d", "k", "M", "b_ip", "b_max"):
        tr.absorb_u64(label, getattr(params, label))
    tr.absorb_bytes("B0", params.b0.to_bytes((params.b_max + 7) // 8, "little"))
    tr.absorb_bytes("seed", matrix.seed)
    tr.absorb_u64("round", round_no)
    tr.absorb_u64("client", client_id)
    tr.absorb_points("y", y)
    tr.absorb_point("z", z)
    return tr


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
    """Prove that e_star opens the true projections v and that the
    claimed projections (v[1:] for an honest client) pass the norm
    check.  Only an honest claim yields a proof that verifies."""
    k = params.k
    g, q = gens.g, gens.q
    tr = _transcript(params, matrix, round_no, client_id, y, z)

    v_mod = [v[0]] + [x % _Q for x in v[1:]]
    claims_mod = [x % _Q for x in claims]
    s = [rng.scalar() for _ in range(k)]
    s_prime = [rng.scalar() for _ in range(k)]
    points = multiexps(
        [[(g, v_mod[t]), (h[t], r)] for t in range(k + 1)]
        + [[(g, claims_mod[t]), (q, s[t])] for t in range(k)]
        + [[(g, c * c % _Q), (q, sp)] for c, sp in zip(claims, s_prime)],
        gens.backend,
    )
    e_star, o, o_prime = points[: k + 1], points[k + 1 : 2 * k + 1], points[2 * k + 1 :]

    rho = gen_prf_wf(g, q, h, z, e_star, o, r, [v[0]] + claims_mod, s, rng, tr)
    tau = gen_prf_sq(g, q, o, o_prime, claims_mod, s, s_prime, rng, tr)

    shift = 1 << (params.b_ip - 1)
    sigma = gen_range_proof(
        gens,
        params.b_ip,
        _padded([x + shift for x in claims], params.k_padded),
        _padded(s, params.k_padded),
        _shifted(params, gens, o),
        rng,
        tr,
    )
    mu = gen_range_proof(
        gens,
        params.b_max,
        [params.b0 - sum(x * x for x in claims)],
        [-sum(s_prime) % _Q],
        [_slack(params, gens, o_prime)],
        rng,
        tr,
    )
    return IntegrityProof(
        e_star=tuple(e_star),
        o=tuple(o),
        o_prime=tuple(o_prime),
        rho=rho,
        tau=tau,
        sigma=sigma,
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

    A batch of one for ``ver_integrity_proofs``, which documents the
    labels; honest proofs return (True, None).
    """
    reason = ver_integrity_proofs(
        params, gens, matrix, h, {client_id: (z, y, proof)}, round_no, rng
    )[client_id]
    return reason is None, reason


def ver_integrity_proofs(
    params: "CheckParameters",
    gens: GeneratorSet,
    matrix: "SampleMatrix",
    h: Sequence[Point],
    proofs: Mapping[int, tuple[Point, Sequence[Point], IntegrityProof]],
    round_no: int,
    rng: Rng,
) -> dict[int, str | None]:
    """Check the proofs of a round: the verdicts of ``ver_integrity_set``."""
    return ver_integrity_set(params, gens, matrix, h, proofs, round_no, rng)[0]


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
    the weights of the range batch.

    The checks run in this order: shape, per client; consistency, for
    the well-shaped set; the two sigma proofs, which are exact, per
    client in client-id order; and the range proofs of every client that
    passes them, as one weighted multiexp, bisected on failure down to
    single clients, each named by its first failing range proof.  If the
    last two drop anyone, the accepted set's consistency is checked
    again.
    """
    weights = rng.child(f"verify/{round_no}")
    crt = crt_weights(matrix, weights)
    verdicts: dict[int, str | None] = {}
    columns: dict[int, tuple[Point, ...]] = {}  # y then e_star: what the set check sums
    for client_id in sorted(proofs):
        _, y, proof = proofs[client_id]
        if _well_shaped(params, h, y, proof):
            columns[client_id] = (*y, *proof.e_star)
        else:
            verdicts[client_id] = "malformed"
    ids = sorted(columns)
    sums = aggregate_commitments([columns[i] for i in ids], gens)
    _bisect_consistency(params.d, gens, ids, sums, columns, crt, verdicts)

    batch: dict[int, tuple[Identity, Identity]] = {}
    for client_id in ids:
        if client_id in verdicts:
            continue
        z, y, proof = proofs[client_id]
        checked = _cheap_checks(
            params, gens, matrix, h, z, y, proof, round_no, client_id, weights
        )
        if isinstance(checked, str):
            verdicts[client_id] = checked
        else:
            verdicts[client_id] = None
            batch[client_id] = checked
    _bisect(gens, sorted(batch), batch, weights, verdicts)

    accepted = [i for i in ids if verdicts[i] is None]
    if not accepted:
        return verdicts, [gens.backend.identity()] * params.d
    dropped = [i for i in ids if verdicts[i] is not None]
    if dropped:
        sums = aggregate_commitments([sums], gens, [columns[i] for i in dropped])
    if any(verdicts[i] != "consistency" for i in dropped):
        named = _bisect_consistency(params.d, gens, accepted, sums, columns, crt, verdicts)
        if named:
            sums = aggregate_commitments([sums], gens, [columns[i] for i in named])
    return verdicts, sums[: params.d]


def _well_shaped(
    params: "CheckParameters", h: Sequence[Point], y: Sequence[Point], proof: IntegrityProof
) -> bool:
    """Whether every vector has the length the checks index it by."""
    k = params.k
    return (
        len(proof.e_star) == k + 1
        and len(proof.o) == k
        and len(proof.o_prime) == k
        and len(h) == k + 1
        and len(y) == params.d
    )


def _bisect_consistency(
    d: int,
    gens: GeneratorSet,
    ids: list[int],
    sums: Sequence[Point],
    columns: Mapping[int, Sequence[Point]],
    crt: tuple[list[int], list[int]],
    verdicts: dict[int, str | None],
) -> list[int]:
    """Name "consistency" the clients in ``ids`` whose e_star fails,
    given the column sums of their y and e_star: check them together,
    and on failure recheck each half, down to one client.  Returns the
    clients it names."""
    if not ids or ver_crt(sums[:d], sums[d:], *crt):
        return []
    if len(ids) == 1:
        verdicts[ids[0]] = "consistency"
        return ids
    half = len(ids) // 2
    return [
        i
        for part in (ids[:half], ids[half:])
        for i in _bisect_consistency(
            d, gens, part, aggregate_commitments([columns[j] for j in part], gens), columns, crt,
            verdicts,
        )
    ]


def _cheap_checks(
    params: "CheckParameters", gens: GeneratorSet, matrix: "SampleMatrix",
    h: Sequence[Point], z: Point, y: Sequence[Point], proof: IntegrityProof,
    round_no: int, client_id: int, weights: Rng,
) -> str | tuple[Identity, Identity]:
    """The checks of a well-shaped, consistent proof but the range
    proofs' identities: the failed-check label, or the identities of the
    sigma and mu range proofs."""
    g, q = gens.g, gens.q
    tr = _transcript(params, matrix, round_no, client_id, y, z)
    if not ver_prf_wf(g, q, h, z, proof.e_star, proof.o, proof.rho, tr):
        return "wellformed"
    if not ver_prf_sq(g, q, proof.o, proof.o_prime, proof.tau, tr):
        return "square"

    sigma = range_terms(gens, params.b_ip, _shifted(params, gens, proof.o), proof.sigma, tr)
    if sigma is None:
        return "range_ip"

    mu = range_terms(gens, params.b_max, [_slack(params, gens, proof.o_prime)], proof.mu, tr)
    if mu is None:
        # a bad sigma proof is still the first failure
        return "range_sum" if ver_range_proof(gens, [sigma], weights) else "range_ip"
    return sigma, mu


def _bisect(
    gens: GeneratorSet,
    ids: list[int],
    batch: Mapping[int, tuple[Identity, Identity]],
    weights: Rng,
    verdicts: dict[int, str | None],
) -> None:
    """Name the clients in ``ids`` whose range proofs fail: check them
    together, and on failure recheck each half, down to one client."""
    if ver_range_proof(gens, [terms for i in ids for terms in batch[i]], weights):
        return
    if len(ids) > 1:
        half = len(ids) // 2
        _bisect(gens, ids[:half], batch, weights, verdicts)
        _bisect(gens, ids[half:], batch, weights, verdicts)
        return
    sigma, mu = batch[ids[0]]
    if not ver_range_proof(gens, [sigma], weights):
        verdicts[ids[0]] = "range_ip"
    elif not ver_range_proof(gens, [mu], weights):
        verdicts[ids[0]] = "range_sum"
