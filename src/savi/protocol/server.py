"""Server-side state machine: collect, flag-resolve, verify, aggregate.

The server never learns an individual update: it checks structure and
proofs, then opens only the sum of the surviving clients' commitments,
recovering the aggregate blind from the homomorphically-combined Shamir
shares and peeling each coordinate with a bounded discrete log.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..commit import CommitmentBundle, aggregate_commitments
from ..group.base import GROUP_ORDER, Point
from ..group.dlog import BabyStepTable, DlogNotFoundError, dlog_bounded
from ..group.generators import GeneratorSet
from ..group.multiexp import bucket_multiexp, multiexp
from ..group.pool import map_chunks
from ..rng import Rng
from ..sampling import CheckParameters, SampleMatrix, derive_seed, sample_matrix
from ..vsss import (
    InsufficientSharesError,
    Share,
    combine_check_strings,
    ss_recover,
    ss_verify,
)
from ..zkp import IntegrityProof, ver_integrity_proofs
from .errors import DlogOutOfRangeError, ShareVerifyFailedError

_Q = GROUP_ORDER


def compute_h(matrix: SampleMatrix, gens: GeneratorSet) -> list[Point]:
    """h = A w, the points the server publishes in stage 3.

    a_0's full-width scalars go through ``multiexp``.  The k rounded
    Gaussian rows are small public ints, so they go through
    ``bucket_multiexp`` over the once-decoded ``gens.lifted_w``.
    """
    rows = [bucket_multiexp(gens.lifted_w, row, gens.backend) for row in matrix.rows.tolist()]
    return [multiexp(gens.w, matrix.a0)] + rows


class Server:
    def __init__(self, params: CheckParameters, gens: GeneratorSet, rng: Rng) -> None:
        self.params = params
        self.gens = gens
        self.rng = rng
        self.client_pks: dict[int, Point] = {}
        self.round_no = 0
        self._reset_round_state()

    def _reset_round_state(self) -> None:
        self.bundles: dict[int, CommitmentBundle] = {}
        self.malicious: dict[int, str] = {}
        self.exposure: dict[int, int] = {}
        self.honest: list[int] = []
        self.proof_reasons: dict[int, str] = {}
        self.bad_blind_shares: list[int] = []
        self.seed: bytes = b""
        self.matrix: Optional[SampleMatrix] = None
        self.h: list[Point] = []

    def register_clients(self, pks: Mapping[int, Point]) -> None:
        if sorted(pks) != list(range(1, self.params.n + 1)):
            raise ValueError("registry must list clients 1..n")
        self.client_pks = dict(pks)

    def begin_round(self, round_no: int) -> None:
        self.round_no = round_no
        self._reset_round_state()

    def _mark(self, client_id: int, reason: str) -> None:
        self.malicious.setdefault(client_id, reason)

    @property
    def surviving(self) -> list[int]:
        return [
            i for i in range(1, self.params.n + 1) if i not in self.malicious
        ]

    # -- stage 1 -------------------------------------------------------------

    def receive_bundles(
        self, bundles: Mapping[int, Optional[CommitmentBundle]]
    ) -> None:
        """Structural validation; silence or malformed shape is flagged."""
        p = self.params
        for i in range(1, p.n + 1):
            bundle = bundles.get(i)
            if bundle is None:
                self._mark(i, "no_commitment")
                continue
            if not bundle.well_formed(p.d, p.n, p.threshold):
                self._mark(i, "malformed_bundle")
                continue
            self.bundles[i] = bundle

    # -- stage 2 -------------------------------------------------------------

    def resolve_flags(
        self, flags: Mapping[int, Optional[Sequence[int]]]
    ) -> dict[int, list[int]]:
        """Apply the two flag rules; returns clear-share requests
        (target -> flaggers) for clients flagged by 1..m peers."""
        m = self.params.m
        live = set(self.surviving)
        reports: dict[int, set[int]] = {}
        for i in live:
            report = flags.get(i)
            if report is None:
                self._mark(i, "no_flag_report")
                continue
            reports[i] = {j for j in report if j != i}

        # Rule 1a: flagging more than m peers is self-incriminating.
        for i, flagged in reports.items():
            if len(flagged) > m:
                self._mark(i, "over_flagging")
        live = set(self.surviving)

        # Rule 1b: flagged by more than m (credible) peers.
        counts: dict[int, set[int]] = {}
        for i, flagged in reports.items():
            if i not in live:
                continue  # discard flags from rule-1a offenders
            for j in flagged:
                if j in live:
                    counts.setdefault(j, set()).add(i)
        for j, flaggers in counts.items():
            if len(flaggers) > m:
                self._mark(j, "flagged_by_majority")

        # Rule 2: the rest must prove their dealt shares were genuine.
        requests: dict[int, list[int]] = {}
        live = set(self.surviving)
        for j, flaggers in counts.items():
            if j not in live:
                continue
            active = sorted(f for f in flaggers if f in live)
            if active:
                requests[j] = active
                self.exposure[j] = len(active)
        return requests

    def receive_clear_shares(
        self,
        requests: Mapping[int, Sequence[int]],
        responses: Mapping[int, Optional[Sequence[Share]]],
    ) -> dict[int, list[Share]]:
        """Verify revealed shares against the dealer's check string.

        Returns verified shares to forward back to the flaggers, so an
        honest flagger regains the share a lying accusation claimed was
        bad (or that a glitchy ciphertext lost)."""
        forward: dict[int, list[Share]] = {}
        for target, flaggers in requests.items():
            response = responses.get(target)
            if response is None:
                self._mark(target, "no_clear_shares")
                continue
            check = self.bundles[target].check_string
            by_index = {sh.index: sh for sh in response}
            if sorted(by_index) != sorted(flaggers) or not all(
                ss_verify(by_index[f], check) for f in flaggers
            ):
                self._mark(target, "bad_clear_share")
                continue
            forward[target] = [by_index[f] for f in flaggers]
        return forward

    # -- stage 3 -------------------------------------------------------------

    def proof_round(self) -> tuple[bytes, list[Point]]:
        """Pick the round nonce, derive the matrix, publish h."""
        nonce = self.rng.take(32)
        ordered = [self.client_pks[i] for i in sorted(self.client_pks)]
        self.seed = derive_seed(nonce, ordered)
        p = self.params
        self.matrix = sample_matrix(self.seed, p.k, p.d, p.M)
        self.h = compute_h(self.matrix, self.gens)
        return nonce, list(self.h)

    def receive_proofs(
        self, proofs: Mapping[int, Optional[IntegrityProof]]
    ) -> list[int]:
        """Verify every surviving client's proof; build the honest set.

        The proofs are verified as one batch (``ver_integrity_proofs``):
        the range proofs of every client that passes its per-client
        checks share one multiexp, bisected on failure to name the
        clients whose range proofs fail."""
        assert self.matrix is not None, "proof_round must run first"
        submitted = {
            i: (self.bundles[i].z, self.bundles[i].y, proofs[i])
            for i in self.surviving
            if proofs.get(i) is not None
        }
        verdicts = ver_integrity_proofs(
            self.params, self.gens, self.matrix, self.h, submitted, self.round_no, self.rng
        )
        honest = []
        for i in self.surviving:
            if i not in verdicts:
                self._mark(i, "no_proof")
            elif verdicts[i] is not None:
                self.proof_reasons[i] = verdicts[i]
                self._mark(i, f"proof_{verdicts[i]}")
            else:
                honest.append(i)
        self.honest = honest
        return list(honest)

    # -- stage 4 -------------------------------------------------------------

    def aggregate(self, r_primes: Mapping[int, Optional[int]]) -> list[int]:
        """Open the sum of honest commitments.

        Each responding client i supplies r'_i = sum of its received
        shares over H, i.e. a share (at index i) of the combined blind;
        t of them recover it.  Shares from ids outside 1..n or failing
        the combined check string are dropped and their senders listed
        in ``bad_blind_shares``; recovery aborts only when fewer than t
        valid shares remain.

        Coordinates come back through a bounded discrete log whose bound
        allows |H| full-width updates: each coordinate is below
        2^(b_coord-1) in magnitude, as ``Client.commit_round`` enforces.
        One table of about sqrt(2*bound) baby steps serves every
        coordinate, and each search starts at 0.  Giant steps stay few
        because every accepted update passed the norm check, so its L2
        norm is about ``b_enc`` at most: the |e_l| of the aggregate sum
        to at most |H| * sqrt(d) * b_enc, and the d solves together take
        about 2 * |H| * sqrt(d) * b_enc / size giant steps (some 2,400
        at n=100, d=10^4)."""
        p = self.params
        if not self.honest:
            return [0] * p.d
        combined = combine_check_strings(
            [self.bundles[i].check_string for i in self.honest]
        )
        valid: list[Share] = []
        bad: list[int] = []
        for i, value in r_primes.items():
            if value is None:
                continue
            if 1 <= i <= p.n and ss_verify(share := Share(i, value % _Q), combined):
                valid.append(share)
            else:
                bad.append(i)
        self.bad_blind_shares = bad
        if len(valid) < p.threshold:
            if bad:
                raise ShareVerifyFailedError(bad, len(valid), p.threshold)
            raise InsufficientSharesError(
                f"{len(valid)} aggregated shares, need {p.threshold}"
            )
        blind = ss_recover(valid, p.threshold)

        totals = aggregate_commitments(
            [self.bundles[i].y for i in self.honest], self.gens
        )
        bound = len(self.honest) * ((1 << (p.b_coord - 1)) - 1)
        table = BabyStepTable.for_bound(self.gens.g, bound)
        targets = map_chunks(
            lambda pairs: [y_l - blind * w_l for y_l, w_l in pairs],
            list(zip(totals, self.gens.w)),
            self.gens.backend,
        )
        out = []
        for l, target in enumerate(targets):
            try:
                out.append(dlog_bounded(target, self.gens.g, bound, table=table))
            except DlogNotFoundError:
                raise DlogOutOfRangeError(l) from None
        return out
