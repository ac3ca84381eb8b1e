"""Plan, write both files, read them back and replay: nothing may change.

The gate over n, field size and seed that every schedule a scheduler returns
passes ``evaluate`` after the text round trip, feasible and with the
in-memory metrics.
"""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from asymcharge import ScheduleMetrics, execute_schedule, one_to_one_schedule, plan_schedule
from asymcharge.cli import (
    generate_instance,
    instance_from_text,
    instance_to_text,
    schedule_from_text,
    schedule_to_text,
)

MATCHED = [
    f.name
    for f in dataclasses.fields(ScheduleMetrics)
    if f.name not in ("algorithm_runtime", "feasible")
]


# About 1 plan in 20 of this mix came out infeasible while the LP ran at the
# unsnapped positions; 50 examples catch that with about 93% probability.
@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    area=st.sampled_from([50.0, 200.0, 2000.0, 5000.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_schedules_survive_file_round_trip(n, area, seed):
    instance = generate_instance(n, seed=seed, area=area)
    parsed = instance_from_text(instance_to_text(instance))
    for schedule, metrics in (plan_schedule(instance, seed=seed), one_to_one_schedule(instance)):
        replayed = execute_schedule(parsed, schedule_from_text(schedule_to_text(schedule)))
        assert metrics.feasible and replayed.feasible
        for name in MATCHED:
            a, b = getattr(metrics, name), getattr(replayed, name)
            assert math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-6), (name, a, b)
