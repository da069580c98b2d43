"""Verifiable Shamir secret sharing with Feldman-style check strings.

A degree-(t-1) polynomial f with f(0) = secret is evaluated at indices
1..n.  The check string publishes g*f_j for every coefficient, letting
anyone verify a share against it:

    value * g  ==  sum_j (index^j) * check.points[j]

The check string is one batch of one-term ``multiexps`` rows, and
``ss_verify`` computes both sides of that equation as one two-row batch.

Check strings and shares are both additively homomorphic, which is what
lets the server verify sums of shares against products of check strings
during aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .group.base import GROUP_ORDER, Point
from .group.multiexp import multiexps
from .rng import Rng
from .serial import U32


class InsufficientSharesError(Exception):
    """Fewer distinct shares than the recovery threshold."""


@dataclass(frozen=True)
class Share:
    index: U32
    value: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("share indices start at 1")


@dataclass(frozen=True)
class CheckString:
    points: tuple[Point, ...]


def share_with_polynomial(
    coeffs: Sequence[int], n: int, g: Point
) -> tuple[list[Share], CheckString]:
    """Share using explicit polynomial coefficients [f0, f1, ...]."""
    if not coeffs:
        raise ValueError("polynomial needs at least the constant coefficient")
    if n < 1:
        raise ValueError("need at least one share")
    coeffs = [c % GROUP_ORDER for c in coeffs]
    shares = []
    for x in range(1, n + 1):
        acc = 0
        for c in reversed(coeffs):  # Horner
            acc = (acc * x + c) % GROUP_ORDER
        shares.append(Share(index=x, value=acc))
    check = CheckString(points=tuple(multiexps([[(g, c)] for c in coeffs], g.backend)))
    return shares, check


def ss_share(
    secret: int, n: int, threshold: int, g: Point, rng: Rng
) -> tuple[list[Share], CheckString]:
    """Split ``secret`` into n shares, any ``threshold`` of which recover it."""
    if not 1 <= threshold <= n:
        raise ValueError("threshold must be in [1, n]")
    coeffs = [secret % GROUP_ORDER] + [rng.scalar() for _ in range(threshold - 1)]
    return share_with_polynomial(coeffs, n, g)


def ss_verify(share: Share, check: CheckString) -> bool:
    """Authenticate one share against a check string."""
    g = check.points[0].backend.base()
    powers = [pow(share.index, j, GROUP_ORDER) for j in range(len(check.points))]
    lhs, rhs = multiexps([[(g, share.value)], zip(check.points, powers)], g.backend)
    return lhs == rhs


def lagrange_at_zero(indices: Sequence[int]) -> list[int]:
    """Lagrange coefficients evaluating the interpolation at x = 0."""
    coeffs = []
    for xi in indices:
        num, den = 1, 1
        for xj in indices:
            if xj == xi:
                continue
            num = num * xj % GROUP_ORDER
            den = den * (xj - xi) % GROUP_ORDER
        coeffs.append(num * pow(den, -1, GROUP_ORDER) % GROUP_ORDER)
    return coeffs


def ss_recover(shares: Sequence[Share], threshold: int) -> int:
    """Interpolate the secret from any ``threshold`` distinct shares."""
    seen: dict[int, int] = {}
    for s in shares:
        if s.index not in seen:
            seen[s.index] = s.value
    if len(seen) < threshold:
        raise InsufficientSharesError(
            f"need {threshold} distinct shares, have {len(seen)}"
        )
    picked = list(seen.items())[:threshold]
    indices = [x for x, _ in picked]
    lam = lagrange_at_zero(indices)
    return sum(l * v for l, (_, v) in zip(lam, picked)) % GROUP_ORDER


def combine_check_strings(checks: Sequence[CheckString]) -> CheckString:
    """Check string of the summed sharings (pointwise group sum)."""
    if not checks:
        raise ValueError("nothing to combine")
    t = len(checks[0].points)
    if any(len(c.points) != t for c in checks):
        raise ValueError("check strings have different thresholds")
    columns = zip(*(c.points for c in checks))
    points = multiexps([[(p, 1) for p in col] for col in columns], checks[0].points[0].backend)
    return CheckString(points=tuple(points))
