"""The benchmark's tracer and party timers name savi functions and
methods by string; these tests fail when a rename or deletion in the
package would break ``perfbench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

import pytest

from savi.harness import SimulationConfig
from savi.protocol import Client, Server

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    targets = _load("spans")._targets()
    assert targets
    for name, owner, attr, _ in targets:
        assert callable(getattr(owner, attr)), name


@pytest.mark.parametrize("cls,attr", [(Client, "CLIENT_METHODS"), (Server, "SERVER_METHODS")])
def test_every_timed_party_method_exists(cls, attr):
    for method in getattr(_load("workloads"), attr):
        assert callable(getattr(cls, method)), method


def test_every_workload_builds_a_valid_config():
    workloads = _load("workloads")
    for shape in [*workloads.SHAPES.values(), workloads.WARMUP_SHAPE]:
        assert isinstance(workloads.make_config(shape, 1), SimulationConfig)
