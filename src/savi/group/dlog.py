"""Bounded discrete logarithm by baby-step giant-step."""

from __future__ import annotations

import itertools
import math

from .base import GroupBackend, Point


class DlogNotFoundError(Exception):
    """No exponent within the stated bound maps base to target."""


class BabyStepTable:
    """Precomputed baby steps ``{j * base : j}`` for j in a window of
    ``size`` integers centered on 0: -(size // 2) <= j < size - size // 2.

    Building costs ``size - 1`` additions; afterwards any number of
    lookups can share it.  When many discrete logs over the same base
    are needed (one per coordinate of an aggregate), build one table
    sized for the amortized optimum and reuse it.
    """

    def __init__(self, base: Point, size: int) -> None:
        if size < 1:
            raise ValueError("table size must be positive")
        self.base = base
        self.size = size
        self._low = -(size // 2)
        backend = base.backend
        ident = backend.identity_data()
        table: dict[object, int] = {ident: 0}
        cur = ident
        for j in range(1, size + self._low):
            cur = backend.add_data(cur, base.data)
            table[cur] = j
        cur = ident
        for j in range(-1, self._low - 1, -1):
            cur = backend.sub_data(cur, base.data)
            table[cur] = j
        self._table = table
        self._multiples: dict[int, Point] = {}  # e -> e * base

    def _multiple(self, e: int) -> Point:
        if e not in self._multiples:
            self._multiples[e] = e * self.base
        return self._multiples[e]

    def solve(self, target: Point, lo: int, hi: int) -> int:
        """Return e in [lo, hi] with e * base == target, else raise.

        The search starts at the point c of [lo, hi] nearest 0 and steps
        outward one giant step at a time, alternating up and down, so a
        small |e| costs one lookup and no addition.
        """
        if lo > hi:
            raise ValueError("empty search interval")
        c = min(max(lo, 0), hi)
        y = target - self._multiple(c) if c else target
        for i, point in self._steps(y, c, lo, hi):
            j = self._table.get(point.data)
            if j is not None:
                e = c + i * self.size + j
                if lo <= e <= hi:
                    return e
                break  # the only small discrete log lies outside [lo, hi]
        raise DlogNotFoundError(f"no discrete log in [{lo}, {hi}]")

    def _steps(self, y: Point, c: int, lo: int, hi: int):
        """Yield (i, y - i * size * base) for the steps i = 0, 1, -1, 2, -2,
        ... whose windows c + i * size + [low, low + size) meet [lo, hi]."""
        size, low = self.size, self._low
        giant = self._multiple(size)
        yield 0, y
        up = down = y
        for n in itertools.count(1):
            step_up = c + n * size + low <= hi
            step_down = c - n * size + low + size > lo
            if not (step_up or step_down):
                return
            if step_up:
                up = up - giant
                yield n, up
            if step_down:
                down = down + giant
                yield -n, down


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
