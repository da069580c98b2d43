"""Synthetic update generation and attack injection for the simulator.

Honest updates are uniform directions with norms uniform on (0, B].
Attacks transform a victim's honest update; a malicious client whose
update can no longer satisfy the norm check still participates by
sending a best-effort forged proof (consistent commitments, fabricated
projection openings), which the verifier rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..group.generators import GeneratorSet
from ..protocol import Client
from ..rng import Rng
from ..sampling import CheckParameters, SampleMatrix
from ..zkp import BoundExceededError, IntegrityProof
from ..zkp.integrity import _prove

ATTACK_KINDS = ("none", "sign_flip", "scaling", "additive_noise", "oversized_norm")


@dataclass(frozen=True)
class AttackSpec:
    kind: str = "none"
    scale: float = 1.0  # c for sign_flip / scaling / oversized_norm
    noise: float = 0.0  # sigma for additive_noise
    malicious_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.kind != "none" and not self.malicious_ids:
            raise ValueError("attack needs at least one malicious id")

    def norm_ratio(self, B: float, d: int) -> float:
        """Worst-case norm of an attacked update, in units of B."""
        if self.kind in ("sign_flip", "scaling"):
            return self.scale
        if self.kind == "oversized_norm":
            return self.scale
        if self.kind == "additive_noise":
            # honest norm <= B plus a ~sigma*sqrt(d) noise ball (6 sigma slack)
            return 1.0 + (self.noise * (d**0.5) * 6.0) / B
        return 1.0


def generate_updates(seed: int, n: int, d: int, B: float) -> list[np.ndarray]:
    """Honest float updates: uniform direction, norm uniform on (0, B]."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, d]))
    out = []
    for _ in range(n):
        direction = rng.normal(size=d)
        norm = np.linalg.norm(direction)
        while norm == 0.0:
            direction = rng.normal(size=d)
            norm = np.linalg.norm(direction)
        radius = B * (1.0 - rng.random())  # uniform on (0, B]
        out.append(direction / norm * radius)
    return out


def apply_attack(
    spec: AttackSpec, updates: Sequence[np.ndarray], B: float, seed: int
) -> list[np.ndarray]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA77AC4]))
    out = [np.array(u, copy=True) for u in updates]
    for cid in spec.malicious_ids:
        u = out[cid - 1]
        if spec.kind == "none":
            continue
        if spec.kind == "sign_flip":
            out[cid - 1] = -spec.scale * u
        elif spec.kind == "scaling":
            out[cid - 1] = spec.scale * u
        elif spec.kind == "additive_noise":
            out[cid - 1] = u + rng.normal(scale=spec.noise, size=u.shape)
        elif spec.kind == "oversized_norm":
            norm = np.linalg.norm(u)
            if norm == 0.0:
                u = np.ones_like(u)
                norm = np.linalg.norm(u)
            out[cid - 1] = u / norm * (spec.scale * B)
    return out


def forge_integrity_proof(
    params: CheckParameters,
    gens: GeneratorSet,
    matrix: SampleMatrix,
    h: Sequence,
    z,
    y: Sequence,
    r: int,
    u: Sequence[int],
    round_no: int,
    client_id: int,
    rng: Rng,
    projections: list[int] | None = None,
) -> IntegrityProof:
    """What a rational cheater sends when the bound check would fail.

    The e_star vector must stay consistent with the published
    commitments (the batch check would catch anything else), so the lie
    goes into o_prime: it commits to the squares of zero projections, a
    sum that passes B0, and the proof of smallness answers for zero
    projections too.  The well-formedness proof's challenge and the
    slack range proof then hold.  The square proof, which ties o_prime
    to e_star's openings, is the first check that fails: the link,
    which ties the answers to them, fails too, but is checked in the
    batch after it.  ``projections`` is ``matrix.row_inner(u)`` when
    the caller already has it from a failed bound check.
    """
    v = matrix.row_inner(u) if projections is None else projections
    claims = [0] * params.k
    return _prove(params, gens, matrix, h, z, y, r, v, claims, round_no, client_id, rng)


class ForgingClient(Client):
    """A malicious client: honest until its update fails the bound check,
    then it sends ``forge_integrity_proof`` instead of dropping out."""

    def _prove(self, matrix: SampleMatrix, h: Sequence) -> IntegrityProof:
        try:
            return super()._prove(matrix, h)
        except BoundExceededError as err:
            return forge_integrity_proof(
                self.params, self.gens, matrix, h, self.z, self.y, self.r, self.u,
                self.round_no, self.id, self.rng, projections=err.projections,
            )
