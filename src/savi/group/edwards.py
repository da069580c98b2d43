"""ristretto255 points in extended Edwards coordinates, in pure Python.

libsodium decodes both operands and encodes the result of every
addition, which costs more than the addition itself.  A public point
that is added many times (the bases ``w`` in the server's ``h``) is
cheaper to decode once into extended coordinates (X : Y : Z : T) on
edwards25519, with x = X/Z, y = Y/Z and xy = T/Z, to add there, and to
encode only the result.

* ``decode`` and ``encode`` follow RFC 9496, section 4.3.
* ``add`` is the extended addition of Hisil, Wong, Carter and Dawson
  (Asiacrypt 2008) for a = -1, 9 multiplications.  With a square and d a
  non-square it is complete, so it also doubles and adds the identity.
* ``niels`` is the affine Niels form (y + x, y - x, 2d·xy) of a point
  with Z = 1, which ``decode`` returns, so it needs no inversion.
  ``add_niels`` adds such a point to an extended one in 7
  multiplications (the mixed addition of the same paper): Z2 = 1 drops
  one and the precomputed 2d·xy another.  Negating a Niels point swaps
  its first two coordinates and negates the third, so ``add_niels``
  also subtracts at the same cost.

Nothing here runs in constant time: it is for public points only.
"""

from __future__ import annotations

P = 2**255 - 19
D = -121665 * pow(121666, -1, P) % P
D2 = 2 * D % P
SQRT_M1 = 19681161376707505956807079304988542015446066515923890162744021073123829784752
INVSQRT_A_MINUS_D = 54469307008909316920995813868745141605393597292927456921205312896311721017578


def _sqrt_ratio_m1(u: int, v: int) -> tuple[bool, int]:
    """(was_square, r): r is the nonnegative sqrt of u/v, or of i*u/v
    when u/v is not a square."""
    v3 = v * v % P * v % P
    r = u * v3 % P * pow(u * v3 % P * v3 % P * v % P, (P - 5) // 8, P) % P
    check = v * r % P * r % P
    correct = check == u % P
    flipped = check == -u % P
    if flipped or check == -u * SQRT_M1 % P:
        r = r * SQRT_M1 % P
    if r & 1:
        r = P - r
    return correct or flipped, r


def decode(raw: bytes) -> tuple[int, int, int, int]:
    """Extended coordinates of a canonical encoding; ValueError if invalid."""
    if len(raw) != 32:
        raise ValueError("ristretto255 points encode to exactly 32 bytes")
    s = int.from_bytes(raw, "little")
    if s >= P or s & 1:
        raise ValueError("non-canonical ristretto255 encoding")
    ss = s * s % P
    u1 = (1 - ss) % P
    u2 = (1 + ss) % P
    u2_sqr = u2 * u2 % P
    v = (-D * u1 % P * u1 - u2_sqr) % P
    was_square, invsqrt = _sqrt_ratio_m1(1, v * u2_sqr % P)
    den_x = invsqrt * u2 % P
    den_y = invsqrt * den_x % P * v % P
    x = 2 * s * den_x % P
    if x & 1:
        x = P - x
    y = u1 * den_y % P
    t = x * y % P
    if not was_square or t & 1 or y == 0:
        raise ValueError("invalid ristretto255 point encoding")
    return (x, y, 1, t)


def encode(point: tuple[int, int, int, int]) -> bytes:
    """The canonical 32-byte encoding of a point."""
    x0, y0, z0, t0 = point
    u1 = (z0 + y0) * (z0 - y0) % P
    u2 = x0 * y0 % P
    _, invsqrt = _sqrt_ratio_m1(1, u1 * u2 % P * u2 % P)
    den1 = invsqrt * u1 % P
    den2 = invsqrt * u2 % P
    z_inv = den1 * den2 % P * t0 % P
    if t0 * z_inv % P & 1:
        x, y = y0 * SQRT_M1 % P, x0 * SQRT_M1 % P
        den_inv = den1 * INVSQRT_A_MINUS_D % P
    else:
        x, y, den_inv = x0, y0, den2
    if x * z_inv % P & 1:
        y = -y
    s = den_inv * (z0 - y) % P
    if s & 1:
        s = P - s
    return s.to_bytes(32, "little")


def add(p: tuple[int, int, int, int], q: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """p + q (HWCD extended addition, a = -1)."""
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = t1 * t2 % P * D2 % P
    d = 2 * z1 * z2 % P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def niels(p: tuple[int, int, int, int]) -> tuple[int, int, int]:
    """The affine Niels form of a point with Z = 1."""
    x, y, z, t = p
    assert z == 1, "the Niels form here is affine"
    return ((y + x) % P, (y - x) % P, t * D2 % P)


def add_niels(
    p: tuple[int, int, int, int], q: tuple[int, int, int], negate: bool = False
) -> tuple[int, int, int, int]:
    """p + q, or p - q if ``negate``, for q in affine Niels form."""
    if negate:
        y_minus_x, y_plus_x, xy2d = q
        xy2d = -xy2d
    else:
        y_plus_x, y_minus_x, xy2d = q
    x1, y1, z1, t1 = p
    a = (y1 - x1) * y_minus_x % P
    b = (y1 + x1) * y_plus_x % P
    c = t1 * xy2d % P
    d = 2 * z1
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def neg(p: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    x, y, z, t = p
    return (-x % P, y, z, -t % P)
