"""glbopt: solvers for lattice-structured programs.

The problem class is ``max f(x) subject to a <= x <= g(x)`` with
component-wise monotone ``g``; the optimum is the top of the feasible
lattice and a fixed point of ``g``, independent of the objective.  The
package covers the generic class, the linear greatest-lower-bound subclass
with preconditioning, priority-queue selective-update solvers with four
orderings, instance generators for random-graph / speed-planning /
dynamic-programming families, reference oracles, and a benchmark harness.
"""

from .lattice import (
    InvalidMapError,
    MonotoneMap,
    NonConvergenceError,
    OpCounter,
    SolveReport,
    StartPointError,
    build_dependency_graph,
    error_bound,
    fixed_point_solve,
    residual,
    selective_update_solve,
)
from .linear import (
    LinearGlbProblem,
    LpForm,
    ProblemDataError,
    RedundantRowWarning,
    contraction_rates,
    dominant_diagonal_gap,
    fixed_point_linear,
    precondition,
    dominance_gap_limit,
    selective_update_linear,
    selective_update_preconditioned,
    to_lp_form,
    write_lp,
)
from .queues import (
    POLICIES,
    FifoQueue,
    HeapQueue,
    LifoQueue,
    QueueUnderflow,
    make_queue,
)
from .instances import (
    HjbGridSpec,
    InstanceFormatError,
    RandomGraph,
    SpeedPlanSpec,
    dominant_diagonal_problem,
    gen_graph,
    hjb_grid_problem,
    load_curvature_csv,
    load_instance,
    maneuver_time,
    manipulator_problem,
    random_linear_problem,
    rescale_to_gamma,
    save_instance,
    speed_plan_spec_from_csv,
    speed_planning_problem,
)
from .oracle import (
    ORACLE_TOL,
    OracleResult,
    brute_force_max,
    reference_solve,
    sample_feasible_points,
    verify_epsilon_solution,
)

__version__ = "0.1.0"

__all__ = [
    "InvalidMapError", "MonotoneMap", "NonConvergenceError", "OpCounter",
    "SolveReport", "StartPointError", "build_dependency_graph", "error_bound",
    "fixed_point_solve", "residual", "selective_update_solve",
    "LinearGlbProblem", "LpForm",
    "ProblemDataError", "RedundantRowWarning", "contraction_rates",
    "dominant_diagonal_gap", "fixed_point_linear", "precondition",
    "dominance_gap_limit", "selective_update_linear", "selective_update_preconditioned",
    "to_lp_form", "write_lp",
    "POLICIES", "FifoQueue", "HeapQueue", "LifoQueue", "QueueUnderflow", "make_queue",
    "HjbGridSpec", "InstanceFormatError", "RandomGraph", "SpeedPlanSpec",
    "dominant_diagonal_problem", "gen_graph", "hjb_grid_problem",
    "load_curvature_csv", "load_instance", "maneuver_time", "manipulator_problem",
    "random_linear_problem", "rescale_to_gamma", "save_instance",
    "speed_plan_spec_from_csv", "speed_planning_problem",
    "ORACLE_TOL", "OracleResult", "brute_force_max", "reference_solve",
    "sample_feasible_points", "verify_epsilon_solution",
]
