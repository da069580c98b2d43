"""Bounded discrete logarithm by baby-step giant-step."""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from .base import Point


class DlogNotFoundError(Exception):
    """No exponent within the stated bound maps base to target."""


class BabyStepTable:
    """Precomputed baby steps ``{j * base : j}`` for j in a window of
    ``size`` integers centered on 0: -(size // 2) <= j < size - size // 2.

    Building costs ``size - 1`` additions; afterwards any number of
    lookups can share it.  When many discrete logs over the same base
    are needed (one per coordinate of an aggregate), build one table
    with ``for_bound`` and reuse it.
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

    @classmethod
    def for_bound(cls, base: Point, bound: int) -> BabyStepTable:
        """The table for exponents |e| <= bound: floor(sqrt(2*bound + 1)) + 1
        entries, so a search over the whole bound takes about as many
        giant steps as the table has entries."""
        return cls(base, math.isqrt(2 * bound + 1) + 1)

    @cached_property
    def _giant(self) -> Point:
        return self.size * self.base

    def solve(self, target: Point, bound: int) -> int:
        """Return e with |e| <= bound and e * base == target, else raise.

        The search starts at 0 and steps outward one giant step at a
        time, alternating up and down, so a small |e| costs one lookup
        and no group operation.
        """
        for i, point in self._steps(target, bound):
            j = self._table.get(point.data)
            if j is not None:
                e = i * self.size + j
                if abs(e) <= bound:
                    return e
                break  # the only small discrete log lies outside the bound
        raise DlogNotFoundError(f"no discrete log with |e| <= {bound}")

    def _steps(self, y: Point, bound: int):
        """Yield (i, y - i * size * base) for the steps i = 0, 1, -1, 2, -2,
        ... whose windows i * size + [low, low + size) meet [-bound, bound]."""
        size, low = self.size, self._low
        yield 0, y
        up = down = y
        for n in itertools.count(1):
            step_up = n * size + low <= bound
            step_down = -n * size + low + size > -bound
            if not (step_up or step_down):
                return
            if step_up:
                up = up - self._giant
                yield n, up
            if step_down:
                down = down + self._giant
                yield -n, down


def dlog_bounded(
    target: Point,
    base: Point,
    bound: int,
    table: BabyStepTable | None = None,
) -> int:
    """Recover e with |e| <= bound and e * base == target.

    One rule sizes the table, ``BabyStepTable.for_bound``: floor(sqrt(2*bound
    + 1)) + 1 baby steps, built here unless the caller passes a table to
    share between solves.  A solve at |e| costs about 2|e| / size giant
    steps: one lookup for |e| near 0, about sqrt(2*bound) additions at
    worst.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if table is None:
        table = BabyStepTable.for_bound(base, bound)
    elif table.base != base:
        raise ValueError("table was built for a different base")
    return table.solve(target, bound)
