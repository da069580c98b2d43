"""Multi-scalar multiplication.

One naive per-term loop serves both backends.  On libsodium a point
addition costs almost as much as a scalar multiplication (both pay the
ristretto decode/encode), so bucketing methods cannot amortize; running
the same loop on the mock backend keeps its op counts equal to the work
ristretto255 does.
"""

from __future__ import annotations

from typing import Sequence

from .base import GROUP_ORDER, GroupBackend, Point


def sum_points(points: Sequence[Point], backend: GroupBackend | None = None) -> Point:
    """Sum of a sequence of points (identity if empty)."""
    if not points:
        if backend is None:
            raise ValueError("sum_points of empty sequence needs an explicit backend")
        return backend.identity()
    acc = points[0]
    for p in points[1:]:
        acc = acc + p
    return acc


def multiexp(
    points: Sequence[Point],
    scalars: Sequence[int],
    backend: GroupBackend | None = None,
) -> Point:
    """Compute sum_i scalars[i] * points[i].

    Zero scalars and identity points contribute nothing and are skipped.
    """
    if len(points) != len(scalars):
        raise ValueError("multiexp needs equally many points and scalars")
    if backend is None:
        if not points:
            raise ValueError("multiexp of empty sequence needs an explicit backend")
        backend = points[0].backend

    ident = backend.identity_data()
    acc = None
    for p, s in zip(points, scalars):
        s %= GROUP_ORDER
        if s == 0 or p.data == ident:
            continue
        term = backend.mul_data(p.data, s)
        acc = term if acc is None else backend.add_data(acc, term)
    return backend.identity() if acc is None else Point(backend, acc)
