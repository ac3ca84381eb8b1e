"""Charge-tour scheduling for sector chargers under asymmetric travel costs."""

from .errors import (
    InfeasibleError,
    MalformedScheduleError,
    MalformedTourError,
    PivotLimitError,
    SchedulingError,
    ValidationError,
)
from .model import (
    AsymmetryField,
    DmcParams,
    NetworkInstance,
    RoutingMatrices,
    build_routing_matrices,
)
from .positions import (
    ChargingPositionSet,
    min_enclosing_circle,
    select_charging_positions,
)
from .directions import (
    CoefficientMatrix,
    PosDirPair,
    build_coefficient_matrix,
)
from .timing import LpProblem, LpSolution, build_time_lp, solve_lp
from .routing import (
    DirectedCostGraph,
    SymmetricReformulation,
    Tour,
    cost_graph,
    expand_tour,
    greedy_tour,
    held_karp,
    lk_tour,
    metric_closure,
    to_symmetric,
    tour_cost,
)
from .pipeline import (
    MOVE,
    TRANSMIT,
    OperationSchedule,
    ScheduleItem,
    ScheduleMetrics,
    execute_schedule,
    one_to_one_schedule,
    plan_schedule,
)

__version__ = "0.1.0"
