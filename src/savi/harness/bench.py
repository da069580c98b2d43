"""Cost probes: group-operation counts per protocol stage and exact
per-client wire bytes.

Counts come from running the real primitives against an instrumented
backend, not from formulas.  The communication probe exploits one
structural fact (asserted, not assumed): proof size depends on k and
the range widths but not on d, so the proof can be generated against a
small matrix while the commitment vector is built at full dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..commit import CommitmentBundle, commit_update
from ..group import make_backend
from ..group.generators import GeneratorSet
from ..group.multiexp import multiexp
from ..rng import DeterministicRng
from ..sampling import CheckParameters, sample_matrix
from ..protocol.pairwise import keygen, pairwise_key, seal_share
from ..vsss import Share, ss_share
from ..zkp import gen_integrity_proof, ver_integrity_proof
from ..zkp.vercrt import ver_crt
from .simulate import _StageMeter

PROBE_STAGES = ("commit", "server_prep", "client_proof", "server_verify")


@dataclass(frozen=True)
class CostRow:
    d: int
    k: int
    ops: dict[str, dict[str, int]]  # stage -> {mul, add, from_hash}

    def stage_total(self, stage: str) -> int:
        return sum(self.ops[stage].values())


def _probe_params(d: int, k: int) -> CheckParameters:
    return CheckParameters(
        n=2,
        m=0,
        d=d,
        k=k,
        epsilon=2.0**-16,
        M=16,
        B=1.0,
        b_ip=32,
        b_max=64,
        frac_bits=2,
        b_coord=16,
    )


def probe_costs(d: int, k: int, backend_name: str = "mock", seed: int = 7) -> CostRow:
    """Run one client's commit/prove cycle and the server's prep/verify
    against an op-counted backend."""
    params = _probe_params(d, k)
    backend = make_backend(backend_name)
    gens = GeneratorSet.derive(backend, d, params.range_slots)
    rng = DeterministicRng(seed).child("bench")
    meter = _StageMeter(backend)

    u = [0] * d
    u[0] = 1 << params.frac_bits
    r = rng.scalar()
    y, z = meter.run("commit", lambda: commit_update(u, r, gens))
    matrix = sample_matrix(rng.take(32), k, d, params.M)
    h = meter.run(
        "server_prep", lambda: [multiexp(gens.w, row) for row in matrix.scalar_rows()]
    )

    def prove():
        if not ver_crt(gens.w, h, matrix, rng):
            raise AssertionError("h inconsistent in bench probe")
        return gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)

    proof = meter.run("client_proof", prove)
    ok, reason = meter.run(
        "server_verify",
        lambda: ver_integrity_proof(params, gens, matrix, h, z, y, proof, 1, 1, rng),
    )
    if not ok:
        raise AssertionError(f"bench probe proof rejected: {reason}")
    return CostRow(d=d, k=k, ops=meter.ops)


def sweep_d(d_values: Sequence[int], k: int, backend_name: str = "mock") -> list[CostRow]:
    return [probe_costs(d, k, backend_name) for d in d_values]


@dataclass(frozen=True)
class CommReport:
    d: int
    k: int
    n: int
    bundle_bytes: int
    proof_bytes: int
    blind_share_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.bundle_bytes + self.proof_bytes + self.blind_share_bytes

    @property
    def baseline_bytes(self) -> int:
        """d point encodings: the cost of shipping the commitment alone."""
        return self.d * 32

    @property
    def overhead_ratio(self) -> float:
        return self.total_bytes / self.baseline_bytes


def _deployment_params(d: int, k: int, n: int, m: int) -> CheckParameters:
    return CheckParameters(
        n=n,
        m=m,
        d=d,
        k=k,
        epsilon=2.0**-128,
        M=1 << 24,
        B=1.0,
        b_ip=64,
        b_max=128,
        frac_bits=8,
        b_coord=16,
    )


def _sealed_share_blobs(backend, rng, shares: Sequence[Share], round_no: int) -> tuple[bytes, ...]:
    """Encrypt shares exactly as client 1 would for its peers (its own
    slot travels empty)."""
    sk, _ = keygen(backend, rng)
    _, pk_peer = keygen(backend, rng)
    key = pairwise_key(sk, pk_peer)
    return tuple(
        b"" if share.index == 1 else seal_share(key, round_no, 1, share.index, share)
        for share in shares
    )


def measure_communication(d: int, k: int, n: int = 8, m: int = 1, seed: int = 11) -> CommReport:
    """Exact upload bytes for one client in a round at dimension d.

    The commitment bundle is built at full dimension.  The integrity
    proof is generated against small matrices (d'=16 and d'=32); the
    probe asserts both serializations have equal length before trusting
    that size for dimension d.
    """
    backend = make_backend("mock")
    rng = DeterministicRng(seed).child("comm-probe")

    params_big = _deployment_params(d, k, n, m)
    gens_commit = GeneratorSet.derive(backend, d, params_big.b_max)
    u = [0] * d
    u[0] = 1 << params_big.frac_bits
    r = rng.scalar()
    y, z = commit_update(u, r, gens_commit)
    shares, check = ss_share(r, n, params_big.threshold, gens_commit.g, rng)
    sealed = _sealed_share_blobs(backend, rng, shares, round_no=1)
    bundle = CommitmentBundle(
        y=tuple(y), z=z, encrypted_shares=sealed, check_string=check
    )
    bundle_bytes = len(bundle.to_bytes())

    proof_sizes = []
    for d_small in (16, 32):
        params = _deployment_params(d_small, k, n, m)
        gens = GeneratorSet.derive(backend, d_small, params.range_slots)
        matrix = sample_matrix(rng.take(32), k, d_small, params.M)
        h = [multiexp(gens.w, row) for row in matrix.scalar_rows()]
        u_small = [0] * d_small
        u_small[0] = 1 << params.frac_bits
        r_small = rng.scalar()
        y_small, z_small = commit_update(u_small, r_small, gens)
        proof = gen_integrity_proof(
            params, gens, matrix, h, z_small, y_small, r_small, u_small, 1, 1, rng
        )
        proof_sizes.append(len(proof.to_bytes()))
    if proof_sizes[0] != proof_sizes[1]:
        raise AssertionError(
            f"proof size varies with d ({proof_sizes}); cannot extrapolate"
        )

    return CommReport(
        d=d,
        k=k,
        n=n,
        bundle_bytes=bundle_bytes,
        proof_bytes=proof_sizes[0],
        blind_share_bytes=32,
    )
