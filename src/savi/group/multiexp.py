"""Multi-scalar multiplication.

One naive per-term loop serves both backends.  On libsodium a point
addition costs almost as much as a scalar multiplication (both pay the
ristretto decode/encode), so bucketing methods cannot amortize.

A term whose scalar is 1 is added and one whose scalar is order - 1 is
subtracted, with no scalar multiplication: a range proof's bit commitment
A and a Feldman check's constant term are made of such terms.  The mock
backend runs the same loop, so its op counts stay equal to the work
ristretto255 does.
"""

from __future__ import annotations

from typing import Sequence

from .base import GROUP_ORDER, GroupBackend, Point

_MINUS_ONE = GROUP_ORDER - 1


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

    Zero scalars and identity points contribute nothing and are skipped;
    a scalar of 1 or -1 costs at most one addition and no multiplication.
    """
    if len(points) != len(scalars):
        raise ValueError("multiexp needs equally many points and scalars")
    if backend is None:
        if not points:
            raise ValueError("multiexp of empty sequence needs an explicit backend")
        backend = points[0].backend

    ident = backend.identity_data()
    acc = None
    negated = []  # subtracted last, so a leading -1 finds a point to subtract from
    for p, s in zip(points, scalars):
        s %= GROUP_ORDER
        if s == 0 or p.data == ident:
            continue
        if s == _MINUS_ONE:
            negated.append(p.data)
            continue
        term = p.data if s == 1 else backend.mul_data(p.data, s)
        acc = term if acc is None else backend.add_data(acc, term)
    for data in negated:
        acc = backend.sub_data(ident if acc is None else acc, data)
    return backend.identity() if acc is None else Point(backend, acc)
