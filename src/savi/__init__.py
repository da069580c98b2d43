"""Secure aggregation with verified inputs.

Clients commit to model updates under Pedersen vector commitments,
share their blinds verifiably, and prove in zero knowledge that a
random-projection statistic of the update stays under an L2-derived
bound; the server aggregates exactly the updates that check out.
"""

from .commit import CommitmentBundle, aggregate_commitments, commit_update
from .group import GROUP_ORDER, GeneratorSet, make_backend
from .rng import DeterministicRng
from .sampling import (
    CheckParameters,
    SampleMatrix,
    chi_square_quantile,
    compute_b0,
    derive_seed,
    max_expected_damage,
    pass_rate_F,
    plaintext_check,
    sample_matrix,
)
from .vsss import (
    CheckString,
    Share,
    combine_check_strings,
    ss_recover,
    ss_share,
    ss_verify,
)
from .zkp import (
    BoundExceededError,
    IntegrityProof,
    gen_integrity_proof,
    gen_prf_sq,
    gen_prf_wf,
    gen_range_proof,
    crt_weights,
    range_terms,
    ver_crt,
    ver_integrity_proof,
    ver_integrity_set,
    ver_prf_sq,
    ver_prf_wf,
    ver_range_proof,
)

__version__ = "0.1.0"

__all__ = [
    "GROUP_ORDER",
    "BoundExceededError",
    "CheckParameters",
    "CheckString",
    "CommitmentBundle",
    "DeterministicRng",
    "GeneratorSet",
    "IntegrityProof",
    "SampleMatrix",
    "Share",
    "aggregate_commitments",
    "chi_square_quantile",
    "combine_check_strings",
    "commit_update",
    "compute_b0",
    "crt_weights",
    "derive_seed",
    "gen_integrity_proof",
    "gen_prf_sq",
    "gen_prf_wf",
    "gen_range_proof",
    "make_backend",
    "max_expected_damage",
    "pass_rate_F",
    "plaintext_check",
    "range_terms",
    "sample_matrix",
    "ss_recover",
    "ss_share",
    "ss_verify",
    "ver_crt",
    "ver_integrity_proof",
    "ver_integrity_set",
    "ver_prf_sq",
    "ver_prf_wf",
    "ver_range_proof",
    "__version__",
]
