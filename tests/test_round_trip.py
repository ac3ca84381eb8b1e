"""Plan, write both files, read them back and replay: nothing may change.

The gate over n, field size, seed, charger and asymmetry field that every
schedule a scheduler returns passes ``evaluate`` after the text round trip,
with the in-memory metrics and feasible unless the battery runs out, and
that both sets of metrics keep the energy ledger; and a literal instance file and schedule file that must read and write
back byte for byte, which pins the file layout.
"""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from asymcharge import (
    AsymmetryField,
    DmcParams,
    NetworkInstance,
    ScheduleMetrics,
    execute_schedule,
    one_to_one_schedule,
    plan_schedule,
)
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


@st.composite
def chargers(draw):
    """A charger whose parameters are rarely 9-digit values."""
    return DmcParams(
        p0=draw(st.floats(1.0, 10.0)),
        w0=draw(st.floats(1.0, 8.0)),
        v_bar=draw(st.floats(0.3, 3.0)),
        d_max=draw(st.floats(8.0, 40.0)),
        phi=draw(st.floats(0.3, 3.0)),
    )


@st.composite
def coefficient_ranges(draw, lo_min):
    lo = draw(st.floats(lo_min, 1.0))
    return (lo, lo + draw(st.floats(0.0, 1.0)))


# About 1 plan in 20 of this mix came out infeasible while the LP ran at the
# unsnapped positions; 50 examples catch that with about 93% probability.
@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    area=st.sampled_from([50.0, 200.0, 2000.0, 5000.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dmc=chargers(),
    k_dis=coefficient_ranges(0.3),
    k_egy=coefficient_ranges(0.5),
    grid=st.sampled_from([0.01, 0.1, 1.0]),
)
def test_schedules_survive_file_round_trip(n, area, seed, dmc, k_dis, k_egy, grid):
    g = generate_instance(n, seed=seed, area=area)
    asym = AsymmetryField(seed, k_dis, k_egy, grid)
    instance = NetworkInstance(g.x, g.y, g.e_b, g.e_d, g.e_c, g.bs_pos, dmc, asym)
    parsed = instance_from_text(instance_to_text(instance))
    headroom = float((instance.e_c - instance.e_b).sum())
    for schedule, metrics in (plan_schedule(instance, seed=seed), one_to_one_schedule(instance)):
        replayed = execute_schedule(parsed, schedule_from_text(schedule_to_text(schedule)))
        # every demand is met; a costly field may drain the battery, and then only that fails
        battery_ok = dmc.e_b0 >= metrics.movement_energy + dmc.p0 * metrics.charging_time
        assert metrics.feasible == replayed.feasible == battery_ok
        for name in MATCHED:
            a, b = getattr(metrics, name), getattr(replayed, name)
            assert math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-6), (name, a, b)
        # the ledger: every value a plain float or bool, losses that add up,
        # no more banked than the batteries hold, and a battery that covers
        # what is spent.  The banked energy is not bounded by what is sent:
        # a sector charges every node it covers at up to the apex
        # coefficient, so crowded nodes bank more than that.
        for m in (metrics, replayed):
            assert {type(v) for v in dataclasses.astuple(m)} == {float, bool}
            parts = m.charging_energy_loss + m.movement_energy
            assert math.isclose(m.total_energy_loss, parts, rel_tol=1e-9, abs_tol=1e-9)
            assert m.time_span == m.charging_time + m.moving_time
            assert 0.0 <= m.received_total <= headroom * (1.0 + 1e-9) + 1e-9
            if m.feasible:
                assert dmc.e_b0 >= m.movement_energy + dmc.p0 * m.charging_time


# Written by the readers' and writers' layout as it stands: two-space
# indents, keys in this order, integral values without a decimal point and
# every other float at 9 significant digits.
INSTANCE_TEXT = """{
  "nodes": [
    {
      "x": 47.1528053,
      "y": 25.5663776,
      "e_b": 17.2945975,
      "e_d": 60.9260775,
      "e_c": 78.220675
    },
    {
      "x": 48.8121853,
      "y": 4.04180119,
      "e_b": 32.1490582,
      "e_d": 33.0867762,
      "e_c": 65.2358345
    }
  ],
  "bs": {
    "x": 25,
    "y": 25
  },
  "dmc": {
    "p0": 4,
    "e_b0": 500000,
    "d": 20,
    "phi": 0.785398163,
    "v": 1,
    "w0": 4,
    "delta": 4000,
    "alpha": 100,
    "beta": 2
  },
  "asym": {
    "seed": 4,
    "k_dis_lo": 0.5,
    "k_dis_hi": 1.5,
    "k_egy_lo": 1,
    "k_egy_hi": 1,
    "grid": 0.01
  }
}
"""

SCHEDULE_TEXT = """{
  "items": [
    {
      "state": 0,
      "x": 47.9824953,
      "y": 14.8040894,
      "psi": 0,
      "t": 29.5737708
    },
    {
      "state": 1,
      "x": 47.9824953,
      "y": 14.8040894,
      "psi": 1.64773649,
      "t": 46.7430947
    },
    {
      "state": 1,
      "x": 47.9824953,
      "y": 14.8040894,
      "psi": 4.78932914,
      "t": 25.3845049
    },
    {
      "state": 0,
      "x": 25,
      "y": 25,
      "psi": 0,
      "t": 15.077032
    }
  ]
}
"""


def test_file_layout_is_pinned():
    assert instance_to_text(instance_from_text(INSTANCE_TEXT)) == INSTANCE_TEXT
    assert schedule_to_text(schedule_from_text(SCHEDULE_TEXT)) == SCHEDULE_TEXT
    empty = '{\n  "items": []\n}\n'
    assert schedule_to_text(schedule_from_text(empty)) == empty
    replayed = execute_schedule(instance_from_text(INSTANCE_TEXT), schedule_from_text(SCHEDULE_TEXT))
    assert replayed.feasible
