"""Multi-scalar multiplication.

One naive per-term loop serves both backends, and one path runs it:
every sum of scalar·point terms in a round is a row of ``multiexps``,
which cuts the terms of a batch of rows, each a linear combination
sum_j s_j P_j, into consecutive slices of one run, runs them at once on
the thread pool of ``group.pool`` and adds up each row's partial sums;
``multiexp`` and ``sum_points`` are batches of one row.  The terms
whose scalar is -1 are summed in their slice and the sums subtracted
last however the run was cut (in the slice, when it holds the whole
row), so a row costs the same muls and additions on one core as on
many, and in a batch as alone.  On libsodium a point addition costs
almost as much as a scalar multiplication (both pay the ristretto
decode/encode), so bucketing methods cannot amortize.

The one exception is ``bucket_multiexp``: small public scalars on fixed
bases that are decoded once (the server's ``h``, see
``GeneratorSet.lifted_w``).  There a Python addition over decoded
coordinates costs about a twentieth of a libsodium mul, and a 24-bit
scalar needs a few additions per base instead of one 253-bit mul.

A term whose scalar is 1 is added and one whose scalar is order - 1 is
subtracted, with no scalar multiplication: a range proof's bit commitment
A, a commitment's table entries and a Feldman check's constant term are
made of such terms.  The mock backend runs the same loop, so its op
counts stay equal to the work ristretto255 does.

``RadixTable`` is the fixed-base case: a table of a base's small
multiples (Lim and Lee, "More flexible exponentiation with
precomputation", CRYPTO 1994).  ``RadixTable.digits`` lists the entries
that make up a multiple of g, which a row takes as terms of scalar 1
(or -1), so a multiple whose radix-256 digits are few costs one
addition per nonzero digit instead of a 253-bit mul.
"""

from __future__ import annotations

import functools
import threading
from typing import Iterable, Sequence

from .base import GROUP_ORDER, GroupBackend, Point
from .pool import map_chunks

_MINUS_ONE = GROUP_ORDER - 1


def sum_points(points: Sequence[Point], backend: GroupBackend | None = None) -> Point:
    """Sum of a sequence of points (identity if empty): ``multiexps`` of
    one row whose scalars are all 1."""
    if backend is None:
        if not points:
            raise ValueError("sum_points of empty sequence needs an explicit backend")
        backend = points[0].backend
    return multiexps([[(p, 1) for p in points]], backend)[0]


def multiexp(
    points: Sequence[Point],
    scalars: Sequence[int],
    backend: GroupBackend | None = None,
) -> Point:
    """Compute sum_i scalars[i] * points[i]: ``multiexps`` of one row."""
    if len(points) != len(scalars):
        raise ValueError("multiexp needs equally many points and scalars")
    if backend is None:
        if not points:
            raise ValueError("multiexp of empty sequence needs an explicit backend")
        backend = points[0].backend
    return multiexps([zip(points, scalars)], backend)[0]


def multiexps(rows: Iterable[Iterable[tuple[Point, int]]], backend: GroupBackend) -> list[Point]:
    """For each row of (point, scalar) terms, the sum of scalar·point;
    zero scalars and identity points are skipped."""
    terms: list = []
    for row in rows:
        terms += row
        terms.append(None)  # ends the row
    if not terms:
        return []
    terms.pop()  # the run's end ends the last row
    pieces = map_chunks(functools.partial(_partial_sum, backend), terms, backend)
    ident = backend.identity_data()
    out = []
    acc, negated = None, []  # subtracted last, so a leading -1 finds a point to subtract from
    for part, part_negated, ends_row in pieces + [(None, None, True)]:
        if part is not None:
            acc = part if acc is None else backend.add_data(acc, part)
        if part_negated is not None:
            negated.append(part_negated)
        if ends_row:
            for data in negated:
                acc = backend.sub_data(ident if acc is None else acc, data)
            out.append(backend.identity() if acc is None else Point(backend, acc))
            acc, negated = None, []
    return out


def _partial_sum(backend: GroupBackend, terms) -> list[tuple]:
    """[(sum of the terms whose scalar is not -1; sum of the points whose
    scalar is -1; whether a None term ended it)] for each piece of a row
    in one slice of a ``multiexps`` run, each sum None if it is empty.
    A piece between two None terms is a whole row, so its -1 sum is
    subtracted here, as the caller would, and comes back None."""
    ident = backend.identity_data()
    out = []
    acc = negated = None
    whole = False  # the first piece may continue a row of the slice before
    for term in terms:
        if term is None:
            if whole and negated is not None:
                acc = backend.sub_data(ident if acc is None else acc, negated)
                negated = None
            out.append((acc, negated, True))
            acc = negated = None
            whole = True
            continue
        p, s = term
        s %= GROUP_ORDER
        if s == 0 or p.data == ident:
            continue
        if s == _MINUS_ONE:
            # summed here, then subtracted once: as many additions, on this core
            negated = p.data if negated is None else backend.add_data(negated, p.data)
            continue
        term = p.data if s == 1 else backend.mul_data(p.data, s)
        acc = term if acc is None else backend.add_data(acc, term)
    out.append((acc, negated, False))
    return out


class RadixTable:
    """Level i holds j * 256^i * base for 1 <= j <= 255.

    Each level is 255 points built by additions (254 for level 0), the
    first time a multiple needs a digit at that level, and is kept: a
    table serves every later call, whoever makes it.  Building is
    locked, so clients on a thread pool never build a level twice.
    """

    def __init__(self, base: Point) -> None:
        self.base = base
        self._levels: list[list[Point]] = []
        self._lock = threading.Lock()

    def _level(self, i: int) -> list[Point]:
        if i >= len(self._levels):
            with self._lock:
                while i >= len(self._levels):
                    # 256^i * base = 255 * 256^(i-1) * base + 256^(i-1) * base
                    below = self._levels[-1] if self._levels else None
                    step = self.base if below is None else below[-1] + below[0]
                    level = [step]
                    for _ in range(254):
                        level.append(level[-1] + step)
                    self._levels.append(level)  # whole, so readers never see a partial level
        return self._levels[i]

    def digits(self, m: int) -> list[Point]:
        """The table entries that sum to m * base for m >= 0: one per
        nonzero radix-256 digit of m, as a ``multiexps`` row takes them
        with scalar 1 (or -1 for -m * base)."""
        raw = m.to_bytes((m.bit_length() + 7) // 8, "little")  # OverflowError if m < 0
        return [self._level(i)[digit - 1] for i, digit in enumerate(raw) if digit]


def _window_bits(terms: int, bits: int) -> int:
    """Signed-digit window c for ``terms`` scalars of at most ``bits`` bits.

    Each of the ceil(bits / c) windows costs up to one addition per term
    and 2^c to sum its 2^(c-1) buckets; c minimizes their product.  (A
    signed digit can carry into one window more, which few terms reach.)
    """
    return min(range(1, bits + 1), key=lambda c: -(-bits // c) * (terms + (1 << c)))


def bucket_multiexp(bases: Sequence, scalars: Sequence[int], backend: GroupBackend) -> Point:
    """Compute sum_i scalars[i] * bases[i] for small signed int scalars.

    ``bases`` are in the backend's lifted form (``GroupBackend.lift_data``),
    and every addition runs on lifted points: Pippenger's bucket method
    with signed digits in (-2^(c-1), 2^(c-1)].  Each addition counts as
    one ``add`` on both backends, so mock counts stay equal to
    ristretto255's.  The scalars must be exact ints, not reduced mod the
    order: a reduced negative scalar is 253 bits wide.
    """
    if len(bases) != len(scalars):
        raise ValueError("bucket_multiexp needs equally many bases and scalars")
    bits = max(map(abs, scalars), default=0).bit_length()
    if not bits:
        return backend.identity()
    add, neg = backend.lifted_add, backend.lifted_neg
    adds = 0

    def plus(a, b):  # None is the empty sum
        nonlocal adds
        if a is None or b is None:
            return b if a is None else a
        adds += 1
        return add(a, b)

    c = _window_bits(len(bases), bits)
    half, full = 1 << (c - 1), 1 << c
    buckets = [[None] * (half + 1) for _ in range(bits // c + 1)]
    for base, s in zip(bases, scalars):
        m = abs(s)
        negated = None
        j = 0
        while m:
            v = m & (full - 1)
            m >>= c
            if v > half:
                v, m = v - full, m + 1
            if v:
                if (v < 0) != (s < 0):
                    if negated is None:
                        negated = neg(base)
                    term = negated
                else:
                    term = base
                row = buckets[j]
                row[abs(v)] = plus(row[abs(v)], term)
            j += 1
    acc = None
    for row in reversed(buckets):
        for _ in range(c):
            acc = plus(acc, acc)
        running = total = None
        for b in row[:0:-1]:  # buckets half .. 1
            running = plus(running, b)
            total = plus(total, running)
        acc = plus(acc, total)
    backend.counter.local.cell.add += adds
    return Point(backend, backend.lower_data(acc))
