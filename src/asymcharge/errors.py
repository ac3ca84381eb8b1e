"""Exception types shared across the package.

The CLI maps these onto process exit codes, so every error raised at a
library boundary should be (a subclass of) one of the classes below.
"""


class SchedulingError(Exception):
    """Base class for all library errors."""

    exit_code = 2
    code = "error"


class ValidationError(SchedulingError):
    """Invalid input data or parameters (bad instance, bad shapes, bad tours)."""

    code = "validation"


class MalformedTourError(ValidationError):
    code = "malformed-tour"


class MalformedScheduleError(ValidationError):
    code = "malformed-schedule"


class PivotLimitError(SchedulingError):
    """The simplex hit its pivot limit before reaching an optimal basis."""

    code = "pivot-limit"


class InfeasibleError(SchedulingError):
    """A demand cannot be met (uncoverable node, infeasible program)."""

    exit_code = 3
    code = "infeasible"
