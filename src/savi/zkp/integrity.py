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
client at a time.  The rest of a round's proofs is verified in batches:
one weight vector tests every client's e_star against its y, and the
range proofs of every client, each replayed into one identity over the
shared slot bases (``range_terms``), are checked as one weighted
multiexp, which is bisected on failure to name the cheaters: a client
whose sigma identity fails gets "range_ip", one whose mu identity fails
"range_sum".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

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
    """Check the proofs of a round, given as client id -> (z, y, proof).

    Returns client id -> the label of the first failed check, or None
    for a proof that verifies.  The labels ("malformed", "consistency",
    "wellformed", "square", "range_ip", "range_sum") feed the simulator's
    rejection report.

    Every weight comes from the child stream ``verify/<round_no>``, so
    ``rng`` draws nothing and no proof moves the caller's later draws.
    That stream feeds two things only.  First, k+1 nonzero weights b and
    their combination c = b·A, computed once for the round: each client's
    consistency check tests sum_t b_t e_t == sum_l c_l y_l against them.
    They are drawn after every proof is in, so a client whose e_star
    does not open its y passes with probability 1/p, whatever the other
    clients sent; over n clients, some wrong e_star passes with
    probability at most n/p.  Second, the weights of the range batch.

    The per-client checks (shape, consistency, the two sigma proofs,
    which are exact) run in client-id order.  The range proofs of every
    client that passes them are then verified as one weighted multiexp,
    bisected on failure down to single clients, each named by its first
    failing range proof.
    """
    weights = rng.child(f"verify/{round_no}")
    crt = crt_weights(matrix, weights)
    verdicts: dict[int, str | None] = {}
    batch: dict[int, tuple[Identity, Identity]] = {}
    for client_id in sorted(proofs):
        z, y, proof = proofs[client_id]
        checked = _cheap_checks(
            params, gens, matrix, h, z, y, proof, round_no, client_id, crt, weights
        )
        if isinstance(checked, str):
            verdicts[client_id] = checked
        else:
            verdicts[client_id] = None
            batch[client_id] = checked
    _bisect(gens, sorted(batch), batch, weights, verdicts)
    return verdicts


def _cheap_checks(
    params: "CheckParameters", gens: GeneratorSet, matrix: "SampleMatrix",
    h: Sequence[Point], z: Point, y: Sequence[Point], proof: IntegrityProof,
    round_no: int, client_id: int, crt: tuple[list[int], list[int]], weights: Rng,
) -> str | tuple[Identity, Identity]:
    """Everything but the range proofs' identities: the failed-check
    label, or the identities of the sigma and mu range proofs.  ``crt`` is
    the round's consistency weights and their combination."""
    k = params.k
    if (
        len(proof.e_star) != k + 1
        or len(proof.o) != k
        or len(proof.o_prime) != k
        or len(h) != k + 1
        or len(y) != params.d
    ):
        return "malformed"
    g, q = gens.g, gens.q

    if not ver_crt(y, proof.e_star, *crt):
        return "consistency"
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
