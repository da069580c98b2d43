"""Bounded discrete logarithm by baby-step giant-step."""

from __future__ import annotations

import math

from .base import GroupBackend, Point


class DlogNotFoundError(Exception):
    """No exponent within the stated bound maps base to target."""


class BabyStepTable:
    """Precomputed baby steps ``{j * base : j}`` for ``0 <= j < size``.

    Building costs ``size`` additions; afterwards any number of lookups
    can share it.  When many discrete logs over the same base are
    needed (one per coordinate of an aggregate), build one table sized
    for the amortized optimum and reuse it.
    """

    def __init__(self, base: Point, size: int) -> None:
        if size < 1:
            raise ValueError("table size must be positive")
        self.base = base
        self.size = size
        self._giant = (-size) * base
        table: dict[object, int] = {}
        backend = base.backend
        cur = backend.identity_data()
        table[cur] = 0
        for j in range(1, size):
            cur = backend.add_data(cur, base.data)
            table[cur] = j
        self._table = table
        self._shifts: dict[int, Point] = {}  # lo -> lo * base

    def solve(self, target: Point, lo: int, hi: int) -> int:
        """Return e in [lo, hi] with e * base == target, else raise."""
        if lo > hi:
            raise ValueError("empty search interval")
        y = target
        if lo:
            if lo not in self._shifts:
                self._shifts[lo] = lo * self.base
            y = target - self._shifts[lo]
        span = hi - lo + 1
        for i in range(-(-span // self.size)):
            j = self._table.get(y.data)
            if j is not None:
                e = lo + i * self.size + j
                if e <= hi:
                    return e
                break
            y = y + self._giant
        raise DlogNotFoundError(f"no discrete log in [{lo}, {hi}]")


def dlog_bounded(
    target: Point,
    base: Point,
    bound: int,
    table: BabyStepTable | None = None,
) -> int:
    """Recover e with |e| <= bound and e * base == target.

    Without a caller-provided table this runs classic BSGS with a baby
    table of about sqrt(2*bound) entries, i.e. O(sqrt(bound)) group
    operations per call.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if table is None:
        table = BabyStepTable(base, max(1, math.isqrt(2 * bound + 1) + 1))
    elif table.base != base:
        raise ValueError("table was built for a different base")
    return table.solve(target, -bound, bound)


def amortized_table(base: Point, bound: int, n_solves: int) -> BabyStepTable:
    """Baby table sized to minimize total work over ``n_solves`` lookups.

    Total additions ~ size + n_solves * span / (2 * size), minimized at
    size = sqrt(n_solves * span / 2) where span = 2*bound + 1.
    """
    span = 2 * bound + 1
    size = math.isqrt(max(1, n_solves * span // 2)) + 1
    # Never build beyond what a full unamortized search would need.
    size = min(size, span)
    return BabyStepTable(base, max(1, size))
