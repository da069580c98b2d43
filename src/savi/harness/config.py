"""Simulation configuration: dataclass, YAML loader, defaults."""

from __future__ import annotations

import numbers
import sys
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import yaml

from ..sampling import CheckParameters, fits_fixed_point
from .attacks import AttackSpec

@dataclass(frozen=True)
class SimulationConfig:
    n: int = 10
    m: int = 1
    d: int = 256
    k: int = 256
    epsilon_log2: int = -40
    M: int | None = None  # None: derived from its rounding slack (see CheckParameters)
    B: float = 1.0
    # Accepted and ignored until the benchmark's warm-up shape stops
    # setting it: it sized the projections' range proof, which the proof
    # of smallness (zkp/integrity.py) replaced.
    b_ip: int | None = None
    b_max: int | None = None  # None: derived from B0 (see CheckParameters)
    frac_bits: int = 8
    b_coord: int = 16
    seed: int = 1
    rounds: int = 1
    backend: str = "mock"
    workers: int = 1  # thread pool width for the party loops
    attack: AttackSpec = field(default_factory=AttackSpec)
    out_dir: str = "out"

    def __post_init__(self) -> None:
        _check_types(self, "")
        _check_types(self.attack, "attack.")
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if not 0 <= self.seed < 1 << 128:
            raise ValueError("seed must be in [0, 2^128)")
        if self.backend not in ("mock", "ristretto255"):
            raise ValueError(f"unknown backend {self.backend!r}")
        ids = self.attack.malicious_ids
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate malicious ids")
        if any(not 1 <= i <= self.n for i in ids):
            raise ValueError("malicious ids must be client ids in 1..n")
        if len(ids) > self.m:
            raise ValueError(f"at most m={self.m} malicious clients allowed")
        if self.attack.noise < 0:
            raise ValueError(f"attack.noise must be non-negative, got {self.attack.noise!r}")
        self.check_parameters()  # validate derived widths eagerly
        # Attacked coordinates still need to fit the fixed-point window,
        # otherwise the malicious client could not even encode its update.
        worst = self.attack.norm_ratio(self.B, self.d) * self.B
        if not fits_fixed_point(worst, self.frac_bits, self.b_coord, 1):
            raise ValueError(
                "attack pushes coordinates outside the b_coord window; "
                "raise b_coord or lower the attack scale"
            )

    def check_parameters(self) -> CheckParameters:
        return CheckParameters.from_epsilon_log2(
            self.epsilon_log2,
            n=self.n,
            m=self.m,
            d=self.d,
            k=self.k,
            M=self.M,
            B=self.B,
            b_max=self.b_max,
            frac_bits=self.frac_bits,
            b_coord=self.b_coord,
        )

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "SimulationConfig":
        data = dict(raw)
        attack_raw = data.pop("attack", None)
        if attack_raw is not None:
            if not isinstance(attack_raw, dict):
                raise ValueError("attack must be a mapping")
            _reject_unknown_keys(attack_raw, AttackSpec, "attack")
            attack_raw = dict(attack_raw)
            ids = attack_raw.pop("malicious_ids", ())
            if not isinstance(ids, (list, tuple)):
                raise ValueError(f"attack.malicious_ids must be a list, got {ids!r}")
            data["attack"] = AttackSpec(malicious_ids=tuple(ids), **attack_raw)
        _reject_unknown_keys(data, cls, "config")
        return cls(**data)

    @classmethod
    def from_yaml(cls, path: str | Path) -> "SimulationConfig":
        with open(path) as fh:
            raw = yaml.safe_load(fh)
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: expected a mapping at top level")
        return cls.from_dict(raw)


def _fits(tp: Any, value: Any) -> bool:
    """Whether ``value`` has the declared type ``tp``: an int field takes
    no bool, float or str, and a float field takes a finite float or an
    int that converts to one, but no bool."""
    if isinstance(value, bool):
        return tp is bool
    if tp is int:
        return isinstance(value, numbers.Integral)
    if tp is float:
        return isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        return isinstance(value, tuple) and all(_fits(args[0], x) for x in value)
    if args:  # a union such as int | None
        return any(_fits(arg, value) for arg in args)
    return value is None if tp is type(None) else isinstance(value, tp)


def _check_types(obj: Any, prefix: str) -> None:
    """Raise ValueError naming the first field of ``obj`` whose value does
    not have its declared type."""
    for name, tp in typing.get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if not _fits(tp, value):
            expected = tp.__name__ if isinstance(tp, type) else tp
            if tp is float:
                expected = "a finite float"
            raise ValueError(f"{prefix}{name} must be {expected}, got {value!r}")


def _reject_unknown_keys(raw: dict[Any, Any], cls: type, what: str) -> None:
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown, key=str)}")


def desk_preset(**overrides: Any) -> SimulationConfig:
    """Defaults sized for a desk: one mock round's stages take 0.33-0.39 s
    on a shared 2-vCPU VM, most of it proof generation (0.18-0.21 s) and
    verification (0.07-0.08 s).  M is derived (2^10: b_max = 48)."""
    return replace(SimulationConfig(), **overrides) if overrides else SimulationConfig()


def deployment_preset(**overrides: Any) -> SimulationConfig:
    """Deployment-scale parameters; expect long runtimes on one core.

    M is derived from its rounding slack, as in every preset: 2^10 here,
    so b_max = 48."""
    base = SimulationConfig(
        n=100,
        m=1,
        d=10_000,
        k=1_000,
        epsilon_log2=-128,
        backend="ristretto255",
    )
    return replace(base, **overrides) if overrides else base
