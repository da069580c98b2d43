"""Fixed-point encoding of real update coordinates.

A real x carries ``frac_bits`` fractional bits: it maps to the signed
integer round(x * 2^frac_bits), which must stay below 2^(bits-1) in
magnitude.  The integers are not reduced mod p here; ``multiexp``
reduces them when they become exponents.

Rounding is floor(x + 1/2), i.e. n + alpha -> n for -1/2 <= alpha < 1/2:
ties go up.  The projection matrix instead rounds half away from zero;
the two differ only on ties, and the error bound |rounded - exact| <= 1/2
holds for both.
"""

from __future__ import annotations

import math
from typing import Sequence


def round_half_up(x: float) -> int:
    """floor(x + 1/2); ties go up (2.5 -> 3, -2.5 -> -2)."""
    return math.floor(x + 0.5)


def quantize_vector(xs: Sequence[float], frac_bits: int, bits: int) -> list[int]:
    """Quantize a real vector to signed integers (not reduced mod p)."""
    scale = 1 << frac_bits
    limit = 1 << (bits - 1)
    out = []
    for x in xs:
        v = round_half_up(x * scale)
        if abs(v) >= limit:
            raise ValueError(f"coordinate {x} overflows {bits}-bit fixed point")
        out.append(v)
    return out
