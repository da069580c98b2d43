"""Cost probes: group-operation counts per protocol stage and exact
per-client wire bytes.

Counts come from running the real primitives against an instrumented
backend, not from formulas.  The communication probe measures the
messages a real client sends: the bundle a client commits at full
dimension, and the flag report, proof and blind share a client sends in
a simulated round.  It exploits one structural fact (asserted, not
assumed): those three depend on k and the proofs' widths but not on d,
so that round runs at a small d.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, replace

from ..commit import commit_update
from ..group import make_backend
from ..group.generators import LAMBDA, GeneratorSet
from ..protocol import Client
from ..protocol.server import compute_h
from ..rng import DeterministicRng
from ..sampling import sample_matrix
from ..serial import encode
from ..zkp import IntegrityProof, gen_integrity_proof, ver_integrity_proof
from ..zkp.vercrt import crt_weights, ver_crt
from .config import deployment_preset
from .simulate import MSG_BUNDLE, MSG_PROOF, Simulation, _StageMeter

PROBE_STAGES = ("commit", "server_prep", "client_check_h", "client_proof", "server_verify")


@dataclass(frozen=True)
class CostRow:
    d: int
    k: int
    ops: dict[str, dict[str, int]]  # stage -> {mul, add, from_hash}
    # tries of the proof of smallness in "client_proof", each LAMBDA + 1
    # muls whatever the shape: the count varies with the seed
    tries: int

    def stage_total(self, stage: str) -> int:
        return sum(self.ops[stage].values())


class _MaskCounter(DeterministicRng):
    """The probe's rng: it counts ``below`` draws, LAMBDA a try of the
    proof of smallness (its masks), and nothing else the probe runs draws
    with it."""

    draws = 0

    def below(self, n: int) -> int:
        self.draws += 1
        return super().below(n)


def probe_costs(d: int, k: int, backend_name: str = "mock", seed: int = 7) -> CostRow:
    """Run one client's commit/prove cycle and the server's prep/verify
    against an op-counted backend, at the deployment preset's check
    parameters (with its derived widths) for dimension d and k
    projections.

    The cycle is built by hand rather than run through ``Simulation``: a
    round's matrix is derived from the parties' public keys, which differ
    between backends, and the op counts must come from identical data on
    mock and ristretto255 (``test_mock_op_counts_equal_ristretto``).

    The "commit" row is one round's commitment, so it leaves out the
    levels of g's table (``GeneratorSet.g_multiples``) that the update
    needs.  A deployment builds those once, in its first round, and they
    cost about 510 additions whatever d is; counted here, they would
    swamp the d-linear cost at small d.  The probe builds them first,
    outside the metered stages.

    A client checks the server's h (``ver_crt``) before it proves; that
    check is its own row, "client_check_h", since it costs one mul and
    one addition per coordinate whatever the proof costs, so
    "client_proof" is the proof alone.  Its proof of smallness takes a
    number of tries that varies with the seed, which ``CostRow.tries``
    reports."""
    params = deployment_preset(n=2, m=0, d=d, k=k).check_parameters()
    backend = make_backend(backend_name)
    gens = GeneratorSet.derive(backend, d, params.range_slots)
    rng = _MaskCounter(seed).child("bench")
    meter = _StageMeter(backend)

    u = [0] * d
    u[0] = 1 << params.frac_bits
    r = rng.scalar()
    gens.g_multiples.digits(max(map(abs, u)))  # the table levels, unmetered: see above
    # y and z = r g, which a client sends as its check string's first point
    y, z = meter.run("commit", lambda: (commit_update(u, r, gens), r * gens.g))
    matrix = sample_matrix(rng.take(32), k, d, params.M)
    h = meter.run("server_prep", lambda: compute_h(matrix, gens))

    if not meter.run("client_check_h", lambda: ver_crt(gens.w, h, *crt_weights(matrix, rng))):
        raise AssertionError("h inconsistent in bench probe")
    proof = meter.run(
        "client_proof",
        lambda: gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng),
    )
    ok, reason = meter.run(
        "server_verify",
        lambda: ver_integrity_proof(params, gens, matrix, h, z, y, proof, 1, 1, rng),
    )
    if not ok:
        raise AssertionError(f"bench probe proof rejected: {reason}")
    tries, rest = divmod(rng.draws, LAMBDA)
    if rest:
        raise AssertionError(f"{rng.draws} mask draws are not whole tries")
    return CostRow(d=d, k=k, ops=meter.ops, tries=tries)


@dataclass(frozen=True)
class CommReport:
    d: int
    k: int
    n: int
    bundle_bytes: int
    proof_bytes: int
    other_bytes: int  # the flag report and the blind share
    # the bytes of each of the proof's fields, by name, in wire order;
    # they sum to proof_bytes
    proof_parts: dict[str, int]

    @property
    def total_bytes(self) -> int:
        return self.bundle_bytes + self.proof_bytes + self.other_bytes

    @property
    def baseline_bytes(self) -> int:
        """d point encodings: the cost of shipping the commitment alone."""
        return self.d * 32

    @property
    def overhead_ratio(self) -> float:
        return self.total_bytes / self.baseline_bytes


def measure_communication(d: int, k: int, n: int = 8, m: int = 1, seed: int = 11) -> CommReport:
    """Exact upload bytes for one client in an honest round at dimension d.

    The bundle is the one client 1 of an n-client deployment sends at
    full dimension.  The other payloads (flag report, proof, blind share)
    are the ones a client sends in a one-client round at d'=16 and at
    d'=32, with M and b_max fixed to the values derived at (d, k), since
    the proofs' widths would otherwise follow d'.  The window T of the
    proof of smallness follows B0, which follows d, so each proof's
    answers are replaced by as many bytes as a proof made at d packs
    them in (they depend on T's bit width alone); the probe
    asserts both rounds send equal lengths before trusting them for
    dimension d.
    """
    backend = make_backend("mock")
    rng = DeterministicRng(seed).child("comm-probe")

    params = deployment_preset(n=n, m=m, d=d, k=k).check_parameters()
    gens = GeneratorSet.derive(backend, d, params.b_max)
    clients = [Client(i, params, gens, rng.child(f"client/{i}")) for i in range(1, n + 1)]
    clients[0].register_peers({c.id: c.pk for c in clients})
    u = [0] * d
    u[0] = 1 << params.frac_bits
    bundle_bytes = len(clients[0].commit_round(1, u).to_bytes())

    sizes = []
    for d_small in (16, 32):
        config = deployment_preset(
            n=1, m=0, d=d_small, k=k, backend="mock", seed=seed,
            M=params.M, b_max=params.b_max,
        )
        messages = Simulation(config).run_round(1).messages
        (payload,) = [payload for kind, _, payload in messages if kind == MSG_PROOF]
        proof = IntegrityProof.from_bytes(payload, backend)
        proof = replace(proof, z=bytes(LAMBDA * params.z_width // 8))  # T follows B0, so d
        other = sum(
            len(payload) for kind, _, payload in messages if kind not in (MSG_BUNDLE, MSG_PROOF)
        )
        sizes.append((len(proof.to_bytes()), other, _proof_parts(proof)))
    if sizes[0] != sizes[1]:
        raise AssertionError(
            f"(proof, other) bytes vary with d ({sizes}); cannot extrapolate"
        )
    proof_bytes, other_bytes, proof_parts = sizes[0]

    return CommReport(
        d=d,
        k=k,
        n=n,
        bundle_bytes=bundle_bytes,
        proof_bytes=proof_bytes,
        other_bytes=other_bytes,
        proof_parts=proof_parts,
    )


def _proof_parts(proof: IntegrityProof) -> dict[str, int]:
    return {
        name: len(encode(tp, getattr(proof, name)))
        for name, tp in typing.get_type_hints(IntegrityProof).items()
    }
