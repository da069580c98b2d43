"""Batch check that claimed multi-exponentiations match a matrix.

Given bases w (length d), claimed points h_t (length k+1) and a public
exponent matrix A ((k+1) x d), verify h_t == sum_l A[t,l] * w_l for all
t at the cost of two multiexps: draw random weights b, form the
combined exponent row c = b·A (``crt_weights``), and test

    sum_t b_t * h_t  ==  sum_l c_l * w_l.

Any single wrong h_t escapes detection with probability 1/p.  The same
check also validates projection commitments e_t against coordinate
commitments y_l, since both sides then equal the projected commitment of
the same update.  The test is linear, so it holds for sums: the server
runs it once on the column sums of a whole set's e_star and y
(``zkp.integrity``), not once per client.  One pair (b, c) may serve many
checks against one matrix, if it is drawn after all of their claims are
fixed.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from ..group.base import Point
from ..group.multiexp import multiexps
from ..rng import Rng


class ExponentMatrix(Protocol):
    """What ver_crt needs from a matrix: k+1 rows combinable mod p."""

    @property
    def k(self) -> int:
        """k; the matrix has k+1 rows (one uniform row plus k sampled)."""
        ...

    def weighted_combination(self, weights: Sequence[int]) -> list[int]:
        """Return (weights · A) mod p as a length-d list."""
        ...


def crt_weights(matrix: ExponentMatrix, rng: Rng) -> tuple[list[int], list[int]]:
    """k+1 nonzero weights b drawn from ``rng``, and their combination b·A."""
    weights = [rng.nonzero_scalar() for _ in range(matrix.k + 1)]
    return weights, matrix.weighted_combination(weights)


def ver_crt(
    bases: Sequence[Point],
    claimed: Sequence[Point],
    weights: Sequence[int],
    combined: Sequence[int],
) -> bool:
    """Test sum_t b_t claimed_t == sum_l c_l bases_l for the weights b
    and their combination c = b·A (``crt_weights``)."""
    if len(claimed) != len(weights) or len(combined) != len(bases):
        return False
    lhs, rhs = multiexps([zip(claimed, weights), zip(bases, combined)], claimed[0].backend)
    return lhs == rhs
