"""Round orchestration: drives Client/Server objects through the four
protocol stages and records what an observer of the wire would see
(bytes, timings, group-operation counts, verdicts).  Attacked updates go
to the malicious clients, which are ``ForgingClient``s: they send a
forged proof where an honest client would drop out.

Everything except wall-clock timings is deterministic in the seed.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..group import make_backend
from ..group.encoding import quantize_vector
from ..group.generators import GeneratorSet
from ..protocol import Client, Server
from ..rng import DeterministicRng
from ..sampling import CheckParameters
from ..serial import U32, encode
from ..vsss import Share
from ..zkp import BoundExceededError
from .attacks import ForgingClient, apply_attack, generate_updates
from .config import SimulationConfig


@dataclass
class RoundReport:
    round_no: int
    honest: tuple[int, ...]
    excluded: dict[int, str]  # client id -> reason
    proof_reasons: dict[int, str]
    clear_share_requests: dict[int, tuple[int, ...]]
    honest_dropouts: tuple[int, ...]  # honest clients whose update failed the bound
    aggregate: tuple[int, ...]
    expected: tuple[int, ...]
    aggregate_ok: bool
    # honest-set clients whose aggregated blind share failed verification
    # and was left out of the recovery
    bad_blind_shares: tuple[int, ...] = ()
    timings_s: dict[str, float] = field(default_factory=dict)
    group_ops: dict[str, dict[str, int]] = field(default_factory=dict)
    # (message type, sender, payload) triples in send order, for replay
    messages: list[tuple[int, int, bytes]] = field(default_factory=list, repr=False)

    @property
    def bytes_sent(self) -> dict[int, int]:
        """Each sender's uplink bytes: the summed lengths of its payloads."""
        sent: dict[int, int] = {}
        for _, sender, payload in self.messages:
            sent[sender] = sent.get(sender, 0) + len(payload)
        return sent


MSG_BUNDLE = 1
MSG_FLAG_REPORT = 2
MSG_CLEAR_SHARES = 3
MSG_PROOF = 4
MSG_BLIND_SHARE = 5


class _StageMeter:
    """Accumulates wall time and group-op deltas per protocol stage."""

    def __init__(self, backend) -> None:
        self.backend = backend
        self.timings: dict[str, float] = {}
        self.ops: dict[str, dict[str, int]] = {}

    def run(self, stage: str, fn):
        before = self.backend.counter.snapshot()
        start = time.perf_counter()
        result = fn()
        self.timings[stage] = self.timings.get(stage, 0.0) + time.perf_counter() - start
        after = self.backend.counter.snapshot()
        delta = {k: after[k] - before[k] for k in after}
        acc = self.ops.setdefault(stage, dict.fromkeys(delta, 0))
        for k, v in delta.items():
            acc[k] += v
        return result


class Simulation:
    """One deployment: fixed parameters, persistent client keys."""

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self.params: CheckParameters = config.check_parameters()
        backend = make_backend(config.backend)
        self.gens = GeneratorSet.derive(backend, config.d, self.params.range_slots)
        root = DeterministicRng(config.seed).child("simulation")
        self.server = Server(self.params, self.gens, root.child("server"))
        self.clients = {
            i: (ForgingClient if i in config.attack.malicious_ids else Client)(
                i, self.params, self.gens, root.child(f"client/{i}")
            )
            for i in range(1, config.n + 1)
        }
        pks = {i: c.pk for i, c in self.clients.items()}
        self.server.register_clients(pks)
        for c in self.clients.values():
            c.register_peers(pks)

    def _client_map(self, ids, fn) -> dict:
        """Apply fn over clients, ``workers`` of them at once.

        These threads model parties working concurrently, and results are
        keyed so ordering never depends on scheduling.  Whatever
        ``workers`` is, each party's own long loops of group operations
        run on the process-wide pool of ``group.pool``, and the op
        counter counts per thread, so stage counts stay exact.
        """
        ids = list(ids)
        if self.config.workers <= 1 or len(ids) <= 1:
            return {i: fn(i) for i in ids}
        with ThreadPoolExecutor(max_workers=self.config.workers) as pool:
            return dict(zip(ids, pool.map(fn, ids)))

    def run_round(self, round_no: int) -> RoundReport:
        cfg = self.config
        meter = _StageMeter(self.gens.backend)
        messages: list[tuple[int, int, bytes]] = []

        def record(kind: int, sender: int, payload: bytes) -> None:
            messages.append((kind, sender, payload))

        floats = generate_updates(
            cfg.seed * 1_000_003 + round_no, cfg.n, cfg.d, cfg.B
        )
        floats = apply_attack(cfg.attack, floats, cfg.B, cfg.seed + round_no)
        updates = {
            i: quantize_vector(floats[i - 1], cfg.frac_bits, cfg.b_coord)
            for i in self.clients
        }

        self.server.begin_round(round_no)

        # Stage 1: commitments and encrypted shares.
        bundles = meter.run(
            "commit",
            lambda: self._client_map(
                self.clients, lambda i: self.clients[i].commit_round(round_no, updates[i])
            ),
        )
        for i, bundle in bundles.items():
            record(MSG_BUNDLE, i, bundle.to_bytes())
        self.server.receive_bundles(bundles)

        # Stage 2: every client checks the shares addressed to it.
        def verify_one(i: int) -> list[int]:
            peers = {j: b for j, b in bundles.items() if j != i}
            return self.clients[i].verify_shares(peers)

        flags = meter.run(
            "share_verify", lambda: self._client_map(self.clients, verify_one)
        )
        for i, report in flags.items():
            record(MSG_FLAG_REPORT, i, encode(tuple[U32, ...], report))

        def settle_flags() -> dict[int, tuple[int, ...]]:
            requests = self.server.resolve_flags(flags)
            responses = {
                t: self.clients[t].respond_clear_shares(fl)
                for t, fl in requests.items()
            }
            for t, resp in responses.items():
                record(MSG_CLEAR_SHARES, t, encode(tuple[Share, ...], resp))
            forward = self.server.receive_clear_shares(requests, responses)
            for target, shares in forward.items():
                for share in shares:
                    self.clients[share.index].accept_clear_share(target, share)
            return {t: tuple(fl) for t, fl in requests.items()}

        requests = meter.run("flag_resolution", settle_flags)

        # Stage 3: server publishes h, clients prove, server verifies.
        nonce, h = meter.run("server_prep", self.server.proof_round)

        dropouts: list[int] = []

        def prove_one(i: int):
            try:
                return self.clients[i].proof_round(nonce, h)
            except BoundExceededError:
                dropouts.append(i)  # tail event: sit the round out
                return None

        proofs = meter.run(
            "proof_gen", lambda: self._client_map(self.server.surviving, prove_one)
        )
        for i, proof in proofs.items():
            if proof is not None:
                record(MSG_PROOF, i, proof.to_bytes())
        honest = meter.run("proof_ver", lambda: self.server.receive_proofs(proofs))

        # Stage 4: aggregated blind shares, recovery, bounded dlogs.
        def open_sum():
            r_primes = {i: self.clients[i].aggregate_round(honest) for i in honest}
            for i, value in r_primes.items():
                record(MSG_BLIND_SHARE, i, encode(int, value))
            return self.server.aggregate(r_primes)

        aggregate = meter.run("aggregate", open_sum)

        expected = [0] * cfg.d
        for i in honest:
            for l, x in enumerate(updates[i]):
                expected[l] += x

        return RoundReport(
            round_no=round_no,
            honest=tuple(honest),
            excluded=dict(self.server.malicious),
            proof_reasons=dict(self.server.proof_reasons),
            clear_share_requests=requests,
            honest_dropouts=tuple(sorted(dropouts)),
            aggregate=tuple(aggregate),
            expected=tuple(expected),
            aggregate_ok=list(aggregate) == expected,
            bad_blind_shares=tuple(self.server.bad_blind_shares),
            timings_s=meter.timings,
            group_ops=meter.ops,
            messages=messages,
        )


def run_simulation(config: SimulationConfig) -> list[RoundReport]:
    sim = Simulation(config)
    return [sim.run_round(r) for r in range(1, config.rounds + 1)]
