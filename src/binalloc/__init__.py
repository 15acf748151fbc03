"""Binary resource allocation via Newton-like Hopfield network flows."""

from .baselines import SetSolution, brute_force, greedy, round_relaxed
from .dynamics import (
    AnnealSchedule,
    FlowState,
    RunResult,
    SolverConfig,
    anneal,
    init_state,
    run,
    terminal_diagnostics,
)
from .energy import Thermo, eval_p2, pt_inverse, pt_inverse_scalar
from .graphs import Graph, random_connected_graph, y_star
from .instances import (
    Instance,
    eval_p1,
    fit_coefficients,
    load_instance,
    random_instance,
    round_to_binary,
    save_instance,
)

__all__ = [
    "AnnealSchedule",
    "FlowState",
    "Graph",
    "Instance",
    "RunResult",
    "SetSolution",
    "SolverConfig",
    "Thermo",
    "anneal",
    "brute_force",
    "eval_p1",
    "eval_p2",
    "fit_coefficients",
    "greedy",
    "init_state",
    "load_instance",
    "pt_inverse",
    "pt_inverse_scalar",
    "random_connected_graph",
    "random_instance",
    "round_relaxed",
    "round_to_binary",
    "run",
    "save_instance",
    "terminal_diagnostics",
    "y_star",
]

__version__ = "0.1.0"
