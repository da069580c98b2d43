from .attacks import AttackSpec, apply_attack, generate_updates
from .bench import CommReport, CostRow, measure_communication, probe_costs
from .config import SimulationConfig, desk_preset, deployment_preset
from .report import emit_report
from .simulate import RoundReport, Simulation, run_simulation

__all__ = [
    "AttackSpec",
    "CommReport",
    "CostRow",
    "RoundReport",
    "Simulation",
    "SimulationConfig",
    "apply_attack",
    "desk_preset",
    "emit_report",
    "generate_updates",
    "measure_communication",
    "deployment_preset",
    "probe_costs",
    "run_simulation",
]
