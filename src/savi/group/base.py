"""Prime-order group abstraction.

Two interchangeable backends implement the same interface: the real one
(ristretto255 via libsodium) and a non-cryptographic mock used for fast
logic and cost-model tests.  Both groups have the same prime order, so
scalar arithmetic is shared and plain Python integers reduced mod
``GROUP_ORDER`` serve as scalars throughout.

Points are written additively: ``P + Q`` is the group operation and
``k * P`` is scalar multiplication.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod

# Order of the ristretto255 group (and of the mock group).
GROUP_ORDER = 2**252 + 27742317777372353535851937790883648493

POINT_BYTES = 32
SCALAR_BYTES = 32


class OpCounts:
    """One thread's cell of an ``OpCounter``: increment its fields."""

    __slots__ = ("mul", "add", "from_hash")

    def __init__(self) -> None:
        self.mul = 0
        self.add = 0
        self.from_hash = 0


class _ThreadCell(threading.local):
    """``cell`` is the calling thread's cell, fetched by ``__init__`` at
    the thread's first access, so reading it costs no Python call."""

    def __init__(self, cells: dict[int, OpCounts], lock: threading.Lock) -> None:
        # keyed by thread id: a thread that reuses a finished thread's id
        # carries on its cell, so there is one cell per id, not per thread
        with lock:
            self.cell = cells.setdefault(threading.get_ident(), OpCounts())


class OpCounter:
    """Counts group operations performed through a backend.

    Used by the bench harness to measure asymptotic cost without
    wall-clock noise.  Each thread counts in its own cell
    (``local.cell``), so counting needs no lock; reading ``mul``, ``add``,
    ``from_hash`` or ``snapshot()`` sums every cell, which is exact once
    the threads that did the work have finished it.
    """

    def __init__(self) -> None:
        self._cells: dict[int, OpCounts] = {}
        self._lock = threading.Lock()
        self.local = _ThreadCell(self._cells, self._lock)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            cells = list(self._cells.values())
        return {
            "mul": sum(c.mul for c in cells),
            "add": sum(c.add for c in cells),
            "from_hash": sum(c.from_hash for c in cells),
        }

    @property
    def mul(self) -> int:
        return self.snapshot()["mul"]

    @property
    def add(self) -> int:
        return self.snapshot()["add"]

    @property
    def from_hash(self) -> int:
        return self.snapshot()["from_hash"]


class GroupBackend(ABC):
    """Operations on opaque point representations.

    ``data`` values are canonical per backend (32-byte encodings for
    ristretto255, reduced ints for the mock group), so equality of
    representations is equality of points.
    """

    name: str
    # Whether operations run outside the interpreter lock, so that
    # threads overlap them; ``group.pool`` splits runs for such a backend
    # only, since splitting Python arithmetic just adds hand-offs.
    releases_gil = False

    def __init__(self) -> None:
        self.counter = OpCounter()

    @abstractmethod
    def identity_data(self):
        ...

    @abstractmethod
    def base_data(self):
        """Canonical generator of the group."""

    @abstractmethod
    def add_data(self, a, b):
        ...

    @abstractmethod
    def sub_data(self, a, b):
        ...

    @abstractmethod
    def mul_data(self, p, e: int):
        """e * P for an integer e (reduced internally mod the order)."""

    @abstractmethod
    def encode_data(self, p) -> bytes:
        ...

    @abstractmethod
    def decode_data(self, raw: bytes):
        """Parse a canonical 32-byte encoding; raise ValueError if invalid."""

    @abstractmethod
    def from_uniform_data(self, raw64: bytes):
        """Map 64 uniform bytes onto the group (hash-to-group)."""

    # -- Lifted form: what ``bucket_multiexp`` adds ---------------------
    #
    # A point decoded once into a form that Python adds cheaply, and a
    # fixed base also into an addend form that adds to a lifted point
    # more cheaply still.  These operations are pure Python and are not
    # counted here; ``bucket_multiexp`` counts its additions on both
    # backends alike.

    @abstractmethod
    def lift_data(self, p):
        """A fixed base as the pair (lifted point, addend form)."""

    @abstractmethod
    def lower_data(self, lifted):
        """The canonical representation of a lifted point."""

    @staticmethod
    @abstractmethod
    def lifted_add(a, b):
        """a + b on lifted points; also doubles (a is b)."""

    @staticmethod
    @abstractmethod
    def lifted_add_base(a, addend, negate: bool):
        """a + base, or a - base if ``negate``, for a lifted point a and
        a base's addend form."""

    @staticmethod
    @abstractmethod
    def lifted_neg(a):
        """-a on a lifted point."""

    # -- Point-level conveniences -------------------------------------

    def identity(self) -> "Point":
        return Point(self, self.identity_data())

    def base(self) -> "Point":
        return Point(self, self.base_data())

    def decode(self, raw: bytes) -> "Point":
        return Point(self, self.decode_data(raw))

    def from_uniform(self, raw64: bytes) -> "Point":
        return Point(self, self.from_uniform_data(raw64))


class Point:
    """A group element bound to its backend."""

    __slots__ = ("backend", "data")

    def __init__(self, backend: GroupBackend, data) -> None:
        self.backend = backend
        self.data = data

    def __add__(self, other: "Point") -> "Point":
        return Point(self.backend, self.backend.add_data(self.data, other.data))

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.backend, self.backend.sub_data(self.data, other.data))

    def __mul__(self, e: int) -> "Point":
        return Point(self.backend, self.backend.mul_data(self.data, e))

    __rmul__ = __mul__

    def __neg__(self) -> "Point":
        return Point(self.backend, self.backend.sub_data(self.backend.identity_data(), self.data))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Point) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        return f"Point({self.backend.name}, {self.encode().hex()[:16]}…)"

    def encode(self) -> bytes:
        return self.backend.encode_data(self.data)

    def is_identity(self) -> bool:
        return self.data == self.backend.identity_data()
