"""The norm check in the clear: the verdict the zero-knowledge path must
agree with, computed from the update itself."""

from savi.sampling import SampleMatrix


def plaintext_check(u, matrix: SampleMatrix, b0=None, B=None, M=None, gamma=None) -> bool:
    """Whether the projected squares of ``u`` sum to at most the bound.

    Pass b0 for the rounded integer check (exact arithmetic), or
    (B, M, gamma) for the idealized unrounded threshold B^2 M^2 gamma.
    """
    total = sum(v * v for v in matrix.row_inner(u)[1:])
    if b0 is not None:
        return total <= b0
    if B is None or M is None or gamma is None:
        raise ValueError("provide b0, or all of (B, M, gamma)")
    return total <= B * B * M * M * gamma
