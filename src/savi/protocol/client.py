"""Client-side state machine for one aggregation round.

Stages run strictly forward: commit -> share flags -> proof -> aggregate.
The client keeps the shares it dealt (to answer clear-share requests)
and the shares it received (to sum into its aggregated blind share).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..commit import CommitmentBundle, commit_update
from ..group.base import GROUP_ORDER, Point
from ..group.generators import GeneratorSet
from ..rng import Rng
from ..sampling import CheckParameters, SampleMatrix, derive_seed, sample_matrix
from ..vsss import CheckString, Share, ss_share, ss_verify
from ..zkp import IntegrityProof, gen_integrity_proof
from ..zkp.vercrt import crt_weights, ver_crt
from .errors import AbortServerMaliciousError
from .pairwise import keygen, open_share, pairwise_key, seal_share

_STAGES = ("idle", "committed", "flagged", "proved", "done")


class Client:
    def __init__(
        self, client_id: int, params: CheckParameters, gens: GeneratorSet, rng: Rng
    ) -> None:
        if not 1 <= client_id <= params.n:
            raise ValueError("client ids run from 1 to n")
        self.id = client_id
        self.params = params
        self.gens = gens
        self.rng = rng
        self.sk, self.pk = keygen(gens.backend, rng)
        self.peer_keys: dict[int, bytes] = {}
        self.ordered_pks: list[Point] = []
        self.round_no = 0
        self._stage = "idle"
        self._reset_round_state()

    def _reset_round_state(self) -> None:
        self.u: list[int] = []
        self.r = 0
        self.y: list[Point] = []
        self.z: Point | None = None
        self.dealt_shares: dict[int, Share] = {}
        self.received_shares: dict[int, Share] = {}
        self.peer_checks: dict[int, CheckString] = {}
        self.flags: list[int] = []

    def _advance(self, stage: str) -> None:
        if _STAGES.index(stage) <= _STAGES.index(self._stage):
            raise RuntimeError(f"stage {stage} after {self._stage}: rounds only move forward")
        self._stage = stage

    def register_peers(self, pks: Mapping[int, Point]) -> None:
        if sorted(pks) != list(range(1, self.params.n + 1)):
            raise ValueError("registry must list every client exactly once")
        self.ordered_pks = [pks[i] for i in sorted(pks)]
        self.peer_keys = {
            j: pairwise_key(self.sk, pk) for j, pk in pks.items() if j != self.id
        }

    # -- stage 1: commitment ------------------------------------------------

    def commit_round(self, round_no: int, u: Sequence[int]) -> CommitmentBundle:
        limit = 1 << (self.params.b_coord - 1)
        if len(u) != self.params.d:
            raise ValueError("update dimension mismatch")
        if any(abs(int(x)) >= limit for x in u):
            raise ValueError("update coordinate overflows the fixed-point window")
        self._stage = "idle"
        self._reset_round_state()
        self.round_no = round_no
        self.u = [int(x) for x in u]
        self.r = self.rng.scalar()
        shares, check = ss_share(
            self.r, self.params.n, self.params.threshold, self.gens.g, self.rng
        )
        self.dealt_shares = {sh.index: sh for sh in shares}
        self.received_shares = {self.id: self.dealt_shares[self.id]}
        self.y = commit_update(self.u, self.r, self.gens)
        self.z = check.points[0]
        sealed = tuple(
            b""
            if j == self.id
            else seal_share(
                self.peer_keys[j], round_no, self.id, j, self.dealt_shares[j].value
            )
            for j in range(1, self.params.n + 1)
        )
        self._advance("committed")
        return CommitmentBundle(y=tuple(self.y), encrypted_shares=sealed, check_string=check)

    # -- stage 2: share verification and flagging ---------------------------

    def verify_shares(self, bundles: Mapping[int, CommitmentBundle]) -> list[int]:
        """Decrypt each peer's share for me; flag senders whose bundle is
        malformed or whose share fails authentication or Feldman
        verification.

        A peer that sent no bundle is skipped, not flagged: the server
        already excludes it as ``no_commitment``, and flagging more than
        m silent peers would make this client an over-flagger."""
        p = self.params
        unknown = sorted(j for j in bundles if not 1 <= j <= p.n)
        if unknown:
            raise ValueError(f"bundles from unknown clients {unknown}")
        flags = []
        for j, bundle in bundles.items():
            if j == self.id:
                continue
            if not bundle.well_formed(p.d, p.n, p.threshold):
                flags.append(j)
                continue
            self.peer_checks[j] = bundle.check_string
            value = open_share(
                self.peer_keys[j],
                self.round_no,
                j,
                self.id,
                bundle.encrypted_shares[self.id - 1],
            )
            if value is None or not ss_verify(share := Share(self.id, value), bundle.check_string):
                flags.append(j)
            else:
                self.received_shares[j] = share
        self.flags = flags
        self._advance("flagged")
        return list(flags)

    def respond_clear_shares(self, flagger_ids: Sequence[int]) -> list[Share]:
        """Reveal the shares dealt to my accusers; abort if the server
        asks for more than m of them (it could otherwise collect enough
        to recover r) or names a client that does not exist."""
        if len(set(flagger_ids)) > self.params.m:
            raise AbortServerMaliciousError(
                f"server requested {len(set(flagger_ids))} clear shares, limit {self.params.m}"
            )
        unknown = sorted(j for j in set(flagger_ids) if not 1 <= j <= self.params.n)
        if unknown:
            raise AbortServerMaliciousError(
                f"server requested clear shares for unknown clients {unknown}"
            )
        return [self.dealt_shares[j] for j in flagger_ids]

    def accept_clear_share(self, sender: int, share: Share) -> None:
        """A formerly-flagged peer's share, re-delivered in clear after
        the server verified it."""
        check = self.peer_checks.get(sender)
        if check is None or share.index != self.id or not ss_verify(share, check):
            return
        self.received_shares[sender] = share
        if sender in self.flags:
            self.flags.remove(sender)

    # -- stage 3: integrity proof -------------------------------------------

    def proof_round(self, server_nonce: bytes, h: Sequence[Point]) -> IntegrityProof:
        """Recompute the projection matrix from the shared seed, insist
        the server's h matches it, then prove the norm check."""
        seed = derive_seed(server_nonce, self.ordered_pks)
        matrix = sample_matrix(seed, self.params.k, self.params.d, self.params.M)
        if not ver_crt(self.gens.w, h, *crt_weights(matrix, self.rng)):
            raise AbortServerMaliciousError("server h vector inconsistent with seed")
        proof = self._prove(matrix, h)
        self._advance("proved")
        return proof

    def _prove(self, matrix: SampleMatrix, h: Sequence[Point]) -> IntegrityProof:
        """The proof this client sends once h has checked out."""
        return gen_integrity_proof(
            self.params, self.gens, matrix, h, self.z, self.y, self.r, self.u,
            self.round_no, self.id, self.rng,
        )

    # -- stage 4: aggregation -----------------------------------------------

    def aggregate_round(self, honest_ids: Sequence[int]) -> int:
        """Sum my received shares over the announced honest set."""
        missing = [j for j in honest_ids if j not in self.received_shares]
        if missing:
            raise AbortServerMaliciousError(
                f"server kept clients {missing} whose shares never verified here"
            )
        total = sum(self.received_shares[j].value for j in honest_ids)
        self._advance("done")
        return total % GROUP_ORDER
