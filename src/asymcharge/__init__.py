"""Charge-tour scheduling for sector chargers under asymmetric travel costs.

The root exports the plan-and-replay workflow; each stage's types live in its module.
"""

from .errors import (
    InfeasibleError,
    MalformedScheduleError,
    MalformedTourError,
    PivotLimitError,
    SchedulingError,
    ValidationError,
)
from .model import AsymmetryField, DmcParams, NetworkInstance
from .pipeline import (
    MOVE,
    TRANSMIT,
    OperationSchedule,
    ScheduleMetrics,
    execute_schedule,
    one_to_one_schedule,
    plan_schedule,
)

__version__ = "0.1.0"
