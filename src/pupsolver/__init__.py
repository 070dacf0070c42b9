"""Partner Units Problem toolkit.

Parsing and validation of PUP instances, a deterministic heuristic
backtracking solver with unit minimization, an independent solution
verifier, exhaustive oracles for desk-scale cross-checks, and hardness
reductions from bin packing.
"""

from .core import (
    BinPackingInstance,
    Instance,
    ParseError,
    SolutionGraph,
    SolveConfig,
    component_precheck,
    degree_precheck,
    emit_instance,
    emit_solution,
    instance_to_dot,
    parse_instance,
    parse_solution,
    solution_to_dot,
)
from .oracle import SizeGuardError, binpack_decide, oracle_decide, oracle_min_units
from .reductions import (
    binpack_to_pup_iucap2,
    double_binpack,
    emit_binpack_line,
    lift_iucap0_to_1,
    parse_binpack_line,
)
from .solver import (
    ElementOrder,
    Outcome,
    PartialModel,
    SearchStats,
    SolveOutcome,
    Ternary,
    assign,
    breadth_first_order,
    minimize,
    solve,
)
from .verify import Violation, ViolationKind, count_units, induce_input_graph, verify_solution

__version__ = "0.1.0"

__all__ = [
    "BinPackingInstance",
    "ElementOrder",
    "Instance",
    "Outcome",
    "ParseError",
    "PartialModel",
    "SearchStats",
    "SizeGuardError",
    "SolutionGraph",
    "SolveConfig",
    "SolveOutcome",
    "Ternary",
    "Violation",
    "ViolationKind",
    "assign",
    "binpack_decide",
    "binpack_to_pup_iucap2",
    "breadth_first_order",
    "component_precheck",
    "count_units",
    "degree_precheck",
    "double_binpack",
    "emit_binpack_line",
    "emit_instance",
    "emit_solution",
    "induce_input_graph",
    "instance_to_dot",
    "lift_iucap0_to_1",
    "minimize",
    "oracle_decide",
    "oracle_min_units",
    "parse_binpack_line",
    "parse_instance",
    "parse_solution",
    "solution_to_dot",
    "solve",
    "verify_solution",
]
