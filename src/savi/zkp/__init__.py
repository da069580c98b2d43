from .integrity import (
    BoundExceededError,
    IntegrityProof,
    gen_integrity_proof,
    ver_integrity_proof,
    ver_integrity_set,
)
from .rangeproof import RangeProof, gen_range_proof, range_terms, ver_range_proof
from .sigma import (
    SquareProof,
    WellFormedProof,
    gen_prf_sq,
    gen_prf_wf,
    ver_prf_sq,
    ver_prf_wf,
)
from .transcript import Transcript
from .vercrt import ExponentMatrix, crt_weights, ver_crt

__all__ = [
    "BoundExceededError",
    "ExponentMatrix",
    "IntegrityProof",
    "RangeProof",
    "SquareProof",
    "Transcript",
    "WellFormedProof",
    "crt_weights",
    "gen_integrity_proof",
    "gen_prf_sq",
    "gen_prf_wf",
    "gen_range_proof",
    "range_terms",
    "ver_crt",
    "ver_integrity_proof",
    "ver_integrity_set",
    "ver_prf_sq",
    "ver_prf_wf",
    "ver_range_proof",
]
