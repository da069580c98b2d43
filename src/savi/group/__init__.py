"""Prime-order group layer: backends, multiexp, bounded dlog, encodings."""

from .base import GROUP_ORDER, POINT_BYTES, SCALAR_BYTES, GroupBackend, OpCounter, Point
from .dlog import BabyStepTable, DlogNotFoundError, dlog_bounded
from .encoding import quantize_vector, round_half_up
from .generators import GeneratorSet, RangeGenerators, derive_generators
from .mock import MockBackend
from .multiexp import multiexp, multiexps, sum_points
from .scalars import inv, reduce_wide, scalar_from_bytes, scalar_to_bytes
from .sodium import RistrettoBackend

_BACKENDS = {"ristretto255": RistrettoBackend, "mock": MockBackend}


def make_backend(name: str) -> GroupBackend:
    """Instantiate a backend by name ("ristretto255" or "mock")."""
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise ValueError(f"unknown group backend {name!r}") from None


__all__ = [
    "GROUP_ORDER",
    "POINT_BYTES",
    "SCALAR_BYTES",
    "GroupBackend",
    "OpCounter",
    "Point",
    "BabyStepTable",
    "DlogNotFoundError",
    "dlog_bounded",
    "quantize_vector",
    "round_half_up",
    "GeneratorSet",
    "RangeGenerators",
    "derive_generators",
    "MockBackend",
    "multiexp",
    "multiexps",
    "sum_points",
    "inv",
    "reduce_wide",
    "scalar_from_bytes",
    "scalar_to_bytes",
    "RistrettoBackend",
    "make_backend",
]
