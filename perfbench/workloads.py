"""Workload shapes, the correctness oracle and the party timers.

Every workload runs the real ristretto255 backend with ``workers=1``: the
group-op counter is not synchronized, so per-method counts are exact only
when one thread drives all parties.  The shapes are chosen so that each
workload loads a different layer (see README.md in this directory).
"""

from __future__ import annotations

import time

from savi.harness import SimulationConfig, apply_attack, generate_updates
from savi.group import quantize_vector

_COMMON = {"backend": "ristretto255", "workers": 1, "rounds": 1}

SHAPES: dict[str, dict] = {
    # Range-proof prove and verify dominate: 64 x 32 = 2048 bit slots per
    # client proof, while commit, h and the dlogs stay small.
    "proof_heavy": {"n": 3, "m": 1, "d": 256, "k": 32},
    # The d-linear layers dominate: commit, server h, ver_crt, the
    # baby-step table and d dlogs.  Bypass workload for range-proof work.
    "wide_update": {"n": 3, "m": 1, "d": 4096, "k": 4},
    # Many parties, three cheaters: per-client server verification, the
    # verifier's early-exit path, and the only n^2 share traffic.
    "crowd_attack": {
        "n": 12,
        "m": 3,
        "d": 64,
        "k": 8,
        "attack": {"kind": "oversized_norm", "scale": 40.0, "malicious_ids": (4, 9, 11)},
    },
}

# A tiny round through the same code paths (including a forged proof), run
# once before anything is timed so that lazy set-up is not in any sample.
WARMUP_SHAPE = {
    "n": 3,
    "m": 1,
    "d": 4,
    "k": 1,
    "M": 1,
    "b_ip": 16,
    "b_max": 32,
    "attack": {"kind": "oversized_norm", "scale": 40.0, "malicious_ids": (3,)},
}


def make_config(shape: dict, seed: int) -> SimulationConfig:
    return SimulationConfig.from_dict({**_COMMON, **shape, "seed": seed})


def oracle_failures(cfg: SimulationConfig, round_no: int, report) -> list[str]:
    """Why a round's outcome is wrong, recomputed from the public inputs.

    The updates are regenerated with the same seed derivation the harness
    uses, attacked, quantized and summed over the clients the server
    kept.  An empty list means the round is correct.
    """
    floats = generate_updates(cfg.seed * 1_000_003 + round_no, cfg.n, cfg.d, cfg.B)
    floats = apply_attack(cfg.attack, floats, cfg.B, cfg.seed + round_no)
    kept = set(report.honest)
    expected = [0] * cfg.d
    for i in sorted(kept):
        for l, x in enumerate(quantize_vector(floats[i - 1], cfg.frac_bits, cfg.b_coord)):
            expected[l] += x

    problems = []
    if list(report.aggregate) != expected:
        problems.append("aggregate differs from the oracle")
    malicious = set(cfg.attack.malicious_ids) if cfg.attack.kind != "none" else set()
    accepted = sorted(kept & malicious)
    if accepted:
        problems.append(f"malicious clients accepted: {accepted}")
    honest = set(range(1, cfg.n + 1)) - malicious
    excluded = sorted(honest - kept - set(report.honest_dropouts))
    if excluded:
        problems.append(f"honest clients excluded: {excluded}")
    return problems


CLIENT_METHODS = (
    "commit_round",
    "verify_shares",
    "respond_clear_shares",
    "accept_clear_share",
    "proof_round",
    "aggregate_round",
)
SERVER_METHODS = (
    "receive_bundles",
    "resolve_flags",
    "receive_clear_shares",
    "proof_round",
    "receive_proofs",
    "aggregate",
)


class PartyMeter:
    """One perf_counter pair (and a group-op counter snapshot) around each
    party method call.

    Records are ``(round, role, party, method, seconds, mul, add,
    from_hash)``.  Clients run one after another here, so the critical
    path of a deployment where they run at once is, per stage, the slowest
    client.
    """

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self.round_no = 0

    def attach(self, sim, wrap=None) -> None:
        """Time the round methods of every party of ``sim``.

        ``wrap(name, fn, tag=party)`` may wrap each timed method once more
        (the tracer uses it to open a protocol span around it).
        """
        counter = sim.gens.backend.counter
        parties = [("client", cid, c, CLIENT_METHODS) for cid, c in sim.clients.items()]
        parties.append(("server", 0, sim.server, SERVER_METHODS))
        for role, party, obj, methods in parties:
            for method in methods:
                fn = self._timed(counter, role, party, method, getattr(obj, method))
                if wrap is not None:
                    fn = wrap(f"protocol.{role}.{method}", fn, tag=party)
                setattr(obj, method, fn)

    def _timed(self, counter, role: str, party: int, method: str, fn):
        records = self.records

        def timed(*args, **kwargs):
            mul, add, fh = counter.mul, counter.add, counter.from_hash
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                records.append(
                    (
                        self.round_no,
                        role,
                        party,
                        method,
                        elapsed,
                        counter.mul - mul,
                        counter.add - add,
                        counter.from_hash - fh,
                    )
                )

        return timed

    def round_summary(self, round_no: int) -> dict[str, float]:
        """server_s, client_cp_s and party_s (all party time) of one round."""
        server = 0.0
        party = 0.0
        stages: dict[str, dict[int, float]] = {}
        for rnd, role, pid, method, secs, *_ in self.records:
            if rnd != round_no:
                continue
            party += secs
            if role == "server":
                server += secs
            else:
                per_client = stages.setdefault(method, {})
                per_client[pid] = per_client.get(pid, 0.0) + secs
        client_cp = sum(max(per_client.values()) for per_client in stages.values())
        return {"server_s": server, "client_cp_s": client_cp, "party_s": party}

    def op_counts(self, round_no: int) -> dict[tuple, tuple[int, int, int]]:
        """Exact group-op counts per (role, party, method) in one round."""
        out: dict[tuple, tuple[int, int, int]] = {}
        for rnd, role, pid, method, _, mul, add, fh in self.records:
            if rnd == round_no:
                prev = out.get((role, pid, method), (0, 0, 0))
                out[(role, pid, method)] = (prev[0] + mul, prev[1] + add, prev[2] + fh)
        return out
