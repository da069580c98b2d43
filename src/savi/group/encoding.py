"""Fixed-point encoding of real values into exponents.

Signed integers v with |v| < 2^(bits-1) embed into scalars as v mod p,
occupying the low range {0 .. 2^(bits-1)-1} for nonnegative values and
the top range {p-2^(bits-1)+1 .. p-1} for negative ones.  Reals carry
``frac_bits`` fractional bits: x maps to round(x * 2^frac_bits).

Rounding is floor(x + 1/2), i.e. n + alpha -> n for -1/2 <= alpha < 1/2:
ties go up.  The projection matrix instead rounds half away from zero;
the two differ only on ties, and the error bound |rounded - exact| <= 1/2
holds for both.
"""

from __future__ import annotations

import math
from typing import Sequence

from .base import GROUP_ORDER


def round_half_up(x: float) -> int:
    """floor(x + 1/2); ties go up (2.5 -> 3, -2.5 -> -2)."""
    return math.floor(x + 0.5)


def signed_to_scalar(v: int) -> int:
    return v % GROUP_ORDER


def scalar_to_signed(s: int, bits: int) -> int:
    """Invert the signed embedding for |v| < 2^(bits-1)."""
    half = 1 << (bits - 1)
    if 2 * half >= GROUP_ORDER:
        raise ValueError("signed window too wide for the group order")
    if s < half:
        return s
    if s > GROUP_ORDER - half:
        return s - GROUP_ORDER
    raise ValueError(f"scalar outside the +-2^{bits - 1} signed window")


def encode_fixed(x: float, frac_bits: int, bits: int) -> int:
    """Map a real to a scalar with ``frac_bits`` fractional bits.

    Raises ValueError if the quantized value leaves the signed
    ``bits``-wide window.
    """
    v = round_half_up(x * (1 << frac_bits))
    if abs(v) >= 1 << (bits - 1):
        raise ValueError(f"{x} does not fit in {bits} bits with {frac_bits} fractional bits")
    return signed_to_scalar(v)


def decode_fixed(s: int, frac_bits: int, bits: int) -> float:
    return scalar_to_signed(s, bits) / (1 << frac_bits)


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


def dequantize_vector(vs: Sequence[int], frac_bits: int) -> list[float]:
    scale = float(1 << frac_bits)
    return [v / scale for v in vs]
