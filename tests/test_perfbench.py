"""The benchmark's tracer and party timers name savi functions and
methods by string; these tests fail when a rename or deletion in the
package would break ``perfbench/run.py --trace 1``."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from savi.harness import SimulationConfig
from savi.protocol import Client, Server
from savi.zkp import gen_range_proof

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


def test_range_prover_leads_with_what_the_slot_note_reads():
    # the ``zkp.gen_range_proof.slots`` note reads args[1] * len(args[2]),
    # so a reordering would corrupt the metric without an error
    params = list(inspect.signature(gen_range_proof).parameters)
    assert params[:3] == ["gens", "n_bits", "values"]
