import dataclasses
import math
import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from asymcharge import model, pipeline
from asymcharge import MOVE, TRANSMIT, execute_schedule, one_to_one_schedule, plan_schedule
from asymcharge.pipeline import ScheduleItem
from asymcharge.errors import MalformedScheduleError, ValidationError

from conftest import make_instance
from support import (
    columns,
    node_rows,
    ra_coefficients,
    ra_distance,
    reach_pairs,
    schedule_of,
    segment_move_energy_time,
)

APEX = 4000.0 / 100.0**2

# a power of ten, or the double one ulp either side of it, of either sign
near_ten = st.builds(
    lambda k, step, sign: sign * math.nextafter(10.0**k, step) if step else sign * 10.0**k,
    st.integers(-3, 4),
    st.sampled_from([0.0, -math.inf, math.inf]),
    st.sampled_from([1.0, -1.0]),
)


def node_at(pos, e_b=10.0, e_d=20.0, e_c=60.0):
    return (pos, e_b, e_d, e_c)


class TestExecuteSchedule:
    def test_empty_schedule(self):
        instance = make_instance([node_at((5.0, 0.0), e_d=0.0)])
        metrics = execute_schedule(instance, schedule_of(()))
        assert metrics.total_energy_loss == 0.0
        assert metrics.time_span == 0.0
        assert metrics.feasible

    def test_caller_arrays_stay_the_callers(self):
        # the schedule freezes copies: the caller's arrays stay writable,
        # and writing to them leaves the schedule's columns as they were
        state = np.array([MOVE, TRANSMIT])
        x, y, psi, t = np.array([3.0, 3.0]), np.array([4.0, 4.0]), np.zeros(2), np.array([5.0, 1.0])
        schedule = pipeline.OperationSchedule(state, x, y, psi, t)
        for column in (state, x, y, psi, t):
            column[0] = 7
        assert schedule.state.tolist() == [MOVE, TRANSMIT]
        assert schedule.x.tolist() == [3.0, 3.0]
        assert schedule.t.tolist() == [5.0, 1.0]

    def test_columns_of_one_length(self):
        # a column of another length would replay into a bare numpy error or go unread
        schedule = pipeline.OperationSchedule
        with pytest.raises(ValidationError, match="^schedule columns must be vectors of one length$"):
            schedule([0, 0], [100.0, 100.0, 7.0], [100.0, 100.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValidationError, match="^schedule columns must be vectors of one length$"):
            schedule([0, 0], [1.0, 2.0], [1.0, 2.0], [0.0, 0.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValidationError, match="^schedule columns must be vectors of one length$"):
            schedule([[0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])

    def test_columns_hold_the_file_digits(self):
        # what a schedule file stores, so a schedule in memory replays as its file
        schedule = pipeline.OperationSchedule([MOVE], [1 / 3], [2 / 3], [1 / 7], [0.1 + 0.2])
        assert schedule.items == ((MOVE, (0.333333333, 0.666666667), 0.142857143, 0.3),)

    def test_empty_schedule_infeasible_with_demand(self):
        instance = make_instance([node_at((5.0, 0.0), e_d=20.0)])
        metrics = execute_schedule(instance, schedule_of(()))
        assert not metrics.feasible

    def test_two_item_hand_schedule(self):
        # move 10 m east, then charge the node sitting at the new position
        instance = make_instance([node_at((10.0, 0.0), e_b=10.0, e_d=16.0, e_c=60.0)])
        items = (
            ScheduleItem(MOVE, (10.0, 0.0), 0.0, 10.0),
            ScheduleItem(TRANSMIT, (10.0, 0.0), 0.0, 10.0),
        )
        metrics = execute_schedule(instance, schedule_of(items))
        assert metrics.movement_energy == pytest.approx(40.0, rel=1e-12)
        assert metrics.received_total == pytest.approx(16.0, rel=1e-12)  # 4 W * 0.4 * 10 s
        assert metrics.charging_energy_loss == pytest.approx(24.0, rel=1e-12)
        assert metrics.total_energy_loss == pytest.approx(64.0, rel=1e-12)
        assert metrics.tour_distance == pytest.approx(10.0, rel=1e-12)
        assert metrics.feasible

    def test_time_span_identity(self):
        instance = make_instance([node_at((10.0, 0.0))])
        items = (
            ScheduleItem(MOVE, (10.0, 0.0), 0.0, 10.0),
            ScheduleItem(TRANSMIT, (10.0, 0.0), 0.0, 3.5),
            ScheduleItem(MOVE, (0.0, 0.0), 0.0, 10.0),
        )
        metrics = execute_schedule(instance, schedule_of(items))
        assert metrics.time_span == pytest.approx(sum(i.t for i in items), rel=1e-12)
        assert metrics.time_span == pytest.approx(
            metrics.charging_time + metrics.moving_time, rel=1e-12
        )

    def test_wrong_move_duration_rejected(self):
        instance = make_instance([node_at((10.0, 0.0))])
        items = (ScheduleItem(MOVE, (10.0, 0.0), 0.0, 9.0),)
        with pytest.raises(MalformedScheduleError):
            execute_schedule(instance, schedule_of(items))

    def test_duration_checked_at_nine_significant_digits(self):
        # a 98765.43214 m move at 1 m/s is held as 98765.4321 s, and its end
        # as 98765.4321 m; a 10 m move between round points has next to no
        # rounding to absorb, so half a microsecond off is wrong
        instance = make_instance([node_at((10.0, 0.0))])
        cases = (
            (98765.43214, 98765.43214, True),
            (98765.43214, 98765.4321, True),
            (98765.43214, 98765.4323, False),
            (10.0, 10.0, True),
            (10.0, 10.0000005, False),
        )
        # a 10.00004 m move between ends 98765.4321 m out, priced before its
        # far end 98775.43214 m is held as 98775.4321 m: 4e-5 s off the held
        # move, which rounding both ends can change by 1e-4 s, but not 1.4e-4 s
        far = make_instance([node_at((10.0, 0.0))], bs=(98765.4321, 0.0))
        cases += ((98775.43214, 10.00004, True), (98775.43214, 10.00014, False))
        for x, t, ok in cases:
            at = far if x > 98770.0 else instance
            items = (ScheduleItem(MOVE, (x, 0.0), 0.0, t),)
            if ok:
                assert execute_schedule(at, schedule_of(items)).moving_time == model.snap9(t)
            else:
                with pytest.raises(MalformedScheduleError):
                    execute_schedule(at, schedule_of(items))

    def test_file_round_trip_evaluates_at_area_5000(self):
        from asymcharge.cli import (
            generate_instance,
            instance_from_text,
            instance_to_text,
            schedule_from_text,
            schedule_to_text,
        )

        for seed in range(3):
            instance = generate_instance(8, seed=seed, area=5000.0)
            schedule, metrics = plan_schedule(instance, seed=seed)
            assert max(i.t for i in schedule.items if i.state == MOVE) > 1000.0
            back = execute_schedule(
                instance_from_text(instance_to_text(instance)),
                schedule_from_text(schedule_to_text(schedule)),
            )
            assert back.time_span == pytest.approx(metrics.time_span, rel=1e-8)
            assert back.total_energy_loss == pytest.approx(metrics.total_energy_loss, rel=1e-8)

    def test_plan_replays_with_unsnapped_base_station(self):
        # the planner and the replay both start at the 9-digit base station
        specs = [node_at((10.0, 20.0)), node_at((150.0, 160.0)), node_at((60.0, 170.0))]
        instance = make_instance(specs, bs=(100.123456789123, 50.98765432198))
        _, metrics = plan_schedule(instance, seed=1)
        assert metrics.feasible

    @pytest.mark.parametrize("bs", [(100.00500000004, 50.0), (12.3450000004, 50.0)])
    def test_base_station_snap_crossing_a_grid_cell(self, bs):
        # the exact and the 9-digit base station lie in different 0.01 m cells,
        # so a first move planned from one and replayed from the other has
        # another travel coefficient
        from asymcharge import AsymmetryField
        from asymcharge.cli import (
            instance_from_text,
            instance_to_text,
            schedule_from_text,
            schedule_to_text,
        )

        specs = [node_at((10.0, 20.0)), node_at((150.0, 160.0)), node_at((60.0, 170.0))]
        instance = make_instance(specs, bs=bs, asym=AsymmetryField(seed=1))
        parsed = instance_from_text(instance_to_text(instance))
        for schedule, metrics in (plan_schedule(instance, seed=1), one_to_one_schedule(instance)):
            back = execute_schedule(parsed, schedule_from_text(schedule_to_text(schedule)))
            assert metrics.feasible and back.feasible
            assert back.time_span == pytest.approx(metrics.time_span, rel=1e-8)
            assert back.total_energy_loss == pytest.approx(metrics.total_energy_loss, rel=1e-8)

    def test_transmit_away_from_charger_rejected(self):
        # the charger is still at the base station (0, 0)
        instance = make_instance([node_at((10.0, 0.0))])
        items = (ScheduleItem(TRANSMIT, (10.0, 0.0), 0.0, 5.0),)
        with pytest.raises(MalformedScheduleError):
            execute_schedule(instance, schedule_of(items))

    def test_transmit_after_moving_elsewhere_rejected(self):
        instance = make_instance([node_at((10.0, 0.0)), node_at((0.0, 10.0))])
        items = (
            ScheduleItem(MOVE, (10.0, 0.0), 0.0, 10.0),
            ScheduleItem(TRANSMIT, (0.0, 10.0), 0.0, 5.0),
        )
        with pytest.raises(MalformedScheduleError):
            execute_schedule(instance, schedule_of(items))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_item_rejected(self, bad):
        instance = make_instance([node_at((10.0, 0.0))])
        for item in (
            ScheduleItem(MOVE, (bad, 0.0), 0.0, 1.0),
            ScheduleItem(MOVE, (10.0, 0.0), 0.0, bad),
            ScheduleItem(TRANSMIT, (0.0, 0.0), bad, 1.0),
        ):
            with pytest.raises(MalformedScheduleError):
                execute_schedule(instance, schedule_of((item,)))

    def test_negative_duration_rejected(self):
        instance = make_instance([node_at((10.0, 0.0))])
        items = (ScheduleItem(TRANSMIT, (0.0, 0.0), 0.0, -1.0),)
        with pytest.raises(MalformedScheduleError):
            execute_schedule(instance, schedule_of(items))

    def test_unknown_state_rejected(self):
        instance = make_instance([node_at((10.0, 0.0))])
        items = (ScheduleItem(7, (0.0, 0.0), 0.0, 1.0),)
        with pytest.raises(MalformedScheduleError):
            execute_schedule(instance, schedule_of(items))

    def test_one_kernel_call_prices_every_move(self, monkeypatch):
        from asymcharge.cli import generate_instance

        instance = generate_instance(40, seed=3)
        schedule, _ = one_to_one_schedule(instance)
        calls = []
        row = model.TravelArcs.row

        def counting_row(arcs, i, js):
            calls.append(len(js))
            return row(arcs, i, js)

        monkeypatch.setattr(model.TravelArcs, "row", counting_row)
        execute_schedule(instance, schedule)
        assert calls == [sum(item.state == MOVE for item in schedule.items)]

    def test_lowest_index_fault_wins(self):
        # the 10 m move out takes 10 s and the move back 10 s
        instance = make_instance([node_at((10.0, 0.0))])
        out = ScheduleItem(MOVE, (10.0, 0.0), 0.0, 10.0)
        back = ScheduleItem(MOVE, (0.0, 0.0), 0.0, 10.0)
        late = ScheduleItem(MOVE, (0.0, 0.0), 0.0, 9.0)
        nan = ScheduleItem(TRANSMIT, (10.0, 0.0), math.nan, 1.0)
        for items, first in (
            ((out, late, nan), r"item 1: duration 9 s does not match travel time 10 s"),
            ((out, nan, late), r"item 1: non-finite position, direction or duration"),
            ((out, back, out, nan, late), r"item 3: non-finite"),
        ):
            with pytest.raises(MalformedScheduleError, match=f"^{first}"):
                execute_schedule(instance, schedule_of(items))

    def test_point_off_the_hash_grid_faults_its_move(self):
        # a cell beyond 64 bits is a validation fault at the move into it,
        # behind any fault before that move and ahead of any after it
        from asymcharge.errors import ValidationError

        instance = make_instance([node_at((10.0, 0.0))])
        out = ScheduleItem(MOVE, (10.0, 0.0), 0.0, 10.0)
        late = ScheduleItem(MOVE, (0.0, 0.0), 0.0, 9.0)
        far = ScheduleItem(MOVE, (1e17, 0.0), 0.0, 1e17)
        nan = ScheduleItem(TRANSMIT, (10.0, 0.0), math.nan, 1.0)
        for items, error, first in (
            ((out, far, nan), ValidationError, r"point \(1e\+17, 0.0\) lies outside"),
            ((far, late), ValidationError, r"point \(1e\+17, 0.0\) lies outside"),
            ((out, late, far), MalformedScheduleError, r"item 1: duration"),
            ((out, nan, far), MalformedScheduleError, r"item 1: non-finite"),
        ):
            with pytest.raises(error, match=f"^{first}"):
                execute_schedule(instance, schedule_of(items))

    def test_base_station_off_the_hash_grid_faults_the_first_move(self):
        # the charger starts at a 9-digit base station beyond 64-bit cells:
        # the first move faults and names it, behind any fault before that
        # move, and a schedule that never moves replays
        from asymcharge.errors import ValidationError

        instance = make_instance([node_at((10.0, 0.0))], bs=(1e17, 0.0))
        here = ScheduleItem(TRANSMIT, (1e17, 0.0), 0.0, 1.0)
        out = ScheduleItem(MOVE, (10.0, 0.0), 0.0, 1e17)
        far = ScheduleItem(MOVE, (3e17, 0.0), 0.0, 2e17)
        negative = ScheduleItem(TRANSMIT, (1e17, 0.0), 0.0, -1.0)
        for items, error, first in (
            ((here, out), ValidationError, r"point \(1e\+17, 0.0\) lies outside"),
            ((far, here), ValidationError, r"point \(1e\+17, 0.0\) lies outside"),
            ((negative, out), MalformedScheduleError, r"item 0: negative duration$"),
        ):
            with pytest.raises(error, match=f"^{first}"):
                execute_schedule(instance, schedule_of(items))
        metrics = execute_schedule(instance, schedule_of((here,)))
        assert metrics.charging_time == 1.0 and metrics.tour_distance == 0.0
        assert not metrics.feasible

    def test_lowest_index_non_finite_value_wins(self):
        # a transmission whose credit overflows faults ahead of a later move
        # whose energy does, although the moves are checked first
        from asymcharge import DmcParams

        instance = make_instance([node_at((10.0, 0.0))], dmc=DmcParams(p0=1e308, w0=1e308))
        # the node 10 m off takes a coefficient of 4000 / 110**2, about 0.33
        tiny = ScheduleItem(TRANSMIT, (0.0, 0.0), 0.0, 1e-300)
        one = ScheduleItem(TRANSMIT, (0.0, 0.0), 0.0, 1.0)
        ten = ScheduleItem(TRANSMIT, (0.0, 0.0), 0.0, 10.0)
        out = ScheduleItem(MOVE, (10.0, 0.0), 0.0, 10.0)
        there = ScheduleItem(TRANSMIT, (10.0, 0.0), 0.0, 25.0)
        for items, first in (
            ((tiny, ten, out), r"item 1: credited energy is not finite"),
            ((tiny, out, there), r"item 1: move energy is not finite"),
            # each credit is finite, but the energy the two transmit is not
            ((one, one), r"the schedule's energy or time totals are not finite"),
        ):
            with pytest.raises(MalformedScheduleError, match=f"^{first}$"):
                execute_schedule(instance, schedule_of(items))

    def test_moving_time_beyond_a_float_is_a_fault_without_a_warning(self):
        # each 1e8 m move takes about 1e308 s, so the moving time overflows
        from asymcharge import DmcParams

        instance = make_instance([node_at((10.0, 0.0))], dmc=DmcParams(v_bar=1e-300))
        t = 1e8 / 1e-300
        items = (ScheduleItem(MOVE, (1e8, 0.0), 0.0, t), ScheduleItem(MOVE, (0.0, 0.0), 0.0, t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedScheduleError, match="totals are not finite$"):
                execute_schedule(instance, schedule_of(items))

    def test_offset_beyond_a_float_is_out_of_range(self):
        # 2e308 m apart: the offset overflows, quietly, and credits nothing
        instance = make_instance([node_at((1e308, 0.0))], bs=(-1e308, 0.0))
        items = (ScheduleItem(TRANSMIT, (-1e308, 0.0), 0.0, 1.0),)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert execute_schedule(instance, schedule_of(items)).received_total == 0.0

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(near_ten, near_ten), min_size=2, max_size=5),
        st.integers(0, 3),
        st.sampled_from([-1.0, 1.0]),
        st.integers(-2, 2),
        st.integers(0, 2**32 - 1),
    )
    def test_move_tolerance_equal_to_four_roundings_per_move(self, ends, which, sign, steps, s):
        # a producer prices each move from its ends before the schedule holds
        # their 9 digits; a duration off by the tolerance of four roundings
        # per move, or a few ulps either side of it, is held at 9 digits
        # too, and must be accepted or rejected as that formula says of the
        # ends and duration the schedule holds
        from asymcharge import AsymmetryField, DmcParams

        dmc = DmcParams(v_bar=0.7)
        asym = AsymmetryField(seed=s)
        instance = make_instance([node_at((1.0, 1.0))], bs=ends[0], dmc=dmc, asym=asym)
        ends[0] = instance.bs_pos  # where the replay starts the charger
        which %= len(ends) - 1

        def tolerance(a, b, t):
            shift = sum(map(pipeline._rounding, (a[0], a[1], b[0], b[1])))
            k = ra_coefficients(asym, a, b)[0]
            return pipeline._rounding(t) + k * shift / dmc.v_bar + math.ulp(t)

        items = []
        for j, (a, b) in enumerate(zip(ends, ends[1:])):
            t = ra_distance(a, b, asym) / dmc.v_bar
            stated = t
            if j == which:
                stated = t + sign * tolerance(a, b, t)
                for _ in range(abs(steps)):
                    stated = math.nextafter(stated, math.copysign(math.inf, steps))
            items.append(ScheduleItem(MOVE, b, 0.0, stated))
        schedule = schedule_of(tuple(items))
        held = [ends[0]] + [item.pos for item in schedule.items]
        a, b, stated = held[which], held[which + 1], schedule.t[which].item()
        t = ra_distance(a, b, asym) / dmc.v_bar
        ok = stated >= 0 and abs(t - stated) <= tolerance(a, b, t)
        if ok:
            execute_schedule(instance, schedule)
        else:
            with pytest.raises(MalformedScheduleError, match=f"^item {which}: "):
                execute_schedule(instance, schedule)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _rounding_edges() -> list[float]:
    """Powers of ten with the doubles one ulp either side, 9-digit neighbours of
    them, subnormals, the ends of the normal range and both zeros."""
    values = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308]
    for k in range(-323, 309):
        for digits in ("1", "9.99999999", "1.00000001"):
            x = float(f"{digits}e{k}")
            values += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    values += [math.nextafter(v, math.inf) for v in values[:3]]
    return [v for v in values + [-v for v in values] if math.isfinite(v)]


class TestRoundingArray:
    def test_edges_equal_to_rounding_bit_for_bit(self):
        edges = _rounding_edges()
        got = pipeline._rounding_array(np.array(edges))
        assert _bits(got) == _bits([pipeline._rounding(v) for v in edges])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_equal_to_rounding_bit_for_bit(self, values):
        got = pipeline._rounding_array(np.array(values, dtype=float))
        assert _bits(got) == _bits([pipeline._rounding(v) for v in values])

    def test_non_finite_values_give_zero(self):
        got = pipeline._rounding_array(np.array([math.nan, math.inf, -math.inf]))
        assert got.tolist() == [0.0, 0.0, 0.0]


class TestPlanSchedule:
    def test_zero_demand_stays_home(self):
        instance = make_instance(
            [node_at((5.0, 0.0), e_d=0.0), node_at((8.0, 3.0), e_d=0.0)], bs=(0.0, 0.0)
        )
        schedule, metrics = plan_schedule(instance, seed=1)
        assert schedule.items == ()
        assert metrics.total_energy_loss == 0.0
        assert metrics.feasible

    def test_two_node_cluster_closed_form(self):
        # nodes 10 m apart; circle center sits 5 m from each; only node 0 demands
        instance = make_instance(
            [((0.0, 0.0), 10.0, 16.0, 60.0), ((10.0, 0.0), 10.0, 0.0, 60.0)],
            bs=(5.0, 30.0),
        )
        schedule, metrics = plan_schedule(instance, seed=1)
        transmit = [i for i in schedule.items if i.state == TRANSMIT]
        assert len(transmit) == 1
        c = 4000.0 / 105.0**2
        assert transmit[0].t == pytest.approx(16.0 / (4.0 * c), rel=1e-9)
        assert transmit[0].t == pytest.approx(11.025, abs=1e-9)
        assert metrics.feasible

    def test_demands_met_on_random_instances(self):
        from asymcharge.cli import generate_instance

        for seed in range(4):
            instance = generate_instance(25, seed=seed)
            _, metrics = plan_schedule(instance, seed=seed)
            assert metrics.feasible

    def test_lp_runs_at_the_written_positions(self):
        # each node is its own cluster; the center 40.123456789 is written as
        # 40.1234568, 1.1e-8 m east of its node, which an apex charge planned
        # at the exact center (direction 0) does not reach
        instance = make_instance([node_at((0.123456789, 0.0)), node_at((40.123456789, 0.0))])
        schedule, metrics = plan_schedule(instance, seed=1)
        assert (40.1234568, 0.0) in {i.pos for i in schedule.items if i.state == TRANSMIT}
        assert metrics.feasible

    def test_large_field_plan_feasible(self):
        # infeasible by about 1e-6 J while the LP ran at the unsnapped centers
        from asymcharge.cli import generate_instance

        instance = generate_instance(15, seed=0, area=2000.0)
        _, metrics = plan_schedule(instance, seed=0)
        assert metrics.feasible

    def test_transmissions_contiguous_and_sorted(self):
        from asymcharge.cli import generate_instance

        instance = generate_instance(40, seed=5)
        schedule, _ = plan_schedule(instance, seed=5)
        seen_done = set()
        current = None
        angles = []
        for item in schedule.items:
            if item.state == TRANSMIT:
                if item.pos != current:
                    assert item.pos not in seen_done
                    if current is not None:
                        seen_done.add(current)
                    current = item.pos
                    angles = []
                assert not angles or item.psi >= angles[-1]
                angles.append(item.psi)
            elif current is not None:
                seen_done.add(current)
                current = None

    def test_metrics_match_independent_accounting(self):
        from asymcharge.cli import generate_instance

        instance = generate_instance(20, seed=8)
        schedule, metrics = plan_schedule(instance, seed=8)
        # recompute from raw quantities with the closed-form ledger
        move_energy = 0.0
        tran_time = 0.0
        here = instance.bs_pos
        raw = np.zeros(instance.n)
        from scalar_reference import normalize_angle, reference_ledger, transfer_coefficient

        for item in schedule.items:
            if item.state == MOVE:
                e, _ = segment_move_energy_time(here, item.pos, instance.asym, instance.dmc)
                move_energy += e
                here = item.pos
            else:
                tran_time += item.t
                for u in node_rows(instance):
                    d = math.dist(u.pos, item.pos)
                    if d > instance.dmc.d_max:
                        continue
                    th = normalize_angle(math.atan2(u.pos[1] - item.pos[1], u.pos[0] - item.pos[0])) if d else 0.0
                    c = transfer_coefficient(item.psi, instance.dmc.phi, th, d, instance.dmc)
                    raw[u.id] += instance.dmc.p0 * c * item.t
        ledger = reference_ledger(instance, raw, tran_time, move_energy, 0.0, 0.0)
        assert metrics.total_energy_loss == pytest.approx(ledger.total_energy_loss, rel=1e-9)
        assert metrics.charging_energy_loss == pytest.approx(ledger.charging_energy_loss, rel=1e-9)
        assert metrics.movement_energy == pytest.approx(ledger.movement_energy, rel=1e-9)

    def test_battery_deficit_infeasible(self):
        # the demands are met, but the charger runs out of energy on the way
        from asymcharge.cli import generate_instance

        instance = generate_instance(20, seed=8)
        full, full_metrics = plan_schedule(instance, seed=8)
        assert full_metrics.feasible
        spent = full_metrics.movement_energy + instance.dmc.p0 * full_metrics.charging_time
        short = model.NetworkInstance(
            instance.x, instance.y, instance.e_b, instance.e_d, instance.e_c, instance.bs_pos,
            dataclasses.replace(instance.dmc, e_b0=0.5 * spent), instance.asym,
        )
        schedule, metrics = plan_schedule(short, seed=8)
        assert schedule == full
        assert metrics.feasible is False
        # the battery changes the feasibility flag and nothing else
        assert dataclasses.replace(metrics, feasible=True, algorithm_runtime=0.0) == (
            dataclasses.replace(full_metrics, algorithm_runtime=0.0)
        )

    def test_deterministic(self):
        from asymcharge.cli import generate_instance

        instance = generate_instance(30, seed=12)
        s1, _ = plan_schedule(instance, seed=3)
        s2, _ = plan_schedule(instance, seed=3)
        assert s1.items == s2.items


class TestOneToOne:
    def test_single_node_closed_form(self):
        instance = make_instance([node_at((10.0, 0.0), e_b=10.0, e_d=8.0, e_c=60.0)])
        schedule, metrics = one_to_one_schedule(instance)
        transmit = [i for i in schedule.items if i.state == TRANSMIT]
        assert len(transmit) == 1
        assert transmit[0].t == pytest.approx(8.0 / (4.0 * APEX), rel=1e-12)
        assert transmit[0].t == pytest.approx(5.0, rel=1e-12)
        assert metrics.feasible

    def test_zero_demand_visits_nothing(self):
        instance = make_instance([node_at((10.0, 0.0), e_d=0.0)])
        schedule, metrics = one_to_one_schedule(instance)
        assert schedule.items == ()
        assert metrics.feasible

    def test_one_transmission_per_demanding_node(self):
        from asymcharge.cli import generate_instance

        instance = generate_instance(15, seed=2)
        schedule, metrics = one_to_one_schedule(instance)
        transmit = [i for i in schedule.items if i.state == TRANSMIT]
        assert len(transmit) == 15
        assert metrics.feasible

    def test_tour_hashes_few_pairs(self, monkeypatch):
        from asymcharge.cli import generate_instance

        # the nearest-neighbor tour reads few arcs of each row; all of them
        # pass through the one hashing kernel, and no full matrix is built
        instance = generate_instance(450, seed=1)
        hashed = []
        row = model.TravelArcs.row

        def counting_row(arcs, i, js):
            hashed.append(len(js))
            return row(arcs, i, js)

        def no_matrices(*args):
            raise AssertionError("the one-to-one tour built full routing matrices")

        monkeypatch.setattr(model.TravelArcs, "row", counting_row)
        monkeypatch.setattr(model, "build_routing_matrices", no_matrices)
        one_to_one_schedule(instance)
        points = instance.n + 1
        assert 0 < sum(hashed) < 0.05 * points * (points - 1)

    def test_tour_makes_few_kernel_calls(self, monkeypatch):
        from asymcharge.cli import generate_instance

        # one row call per point used to price the steps of the tour: 751
        # calls for this plan, its replay included; the windows settle most
        # steps without a call of their own
        instance = generate_instance(450, seed=1, area=200.0)
        calls = []
        row = model.TravelArcs.row

        def counting_row(arcs, i, js):
            calls.append(i)
            return row(arcs, i, js)

        monkeypatch.setattr(model.TravelArcs, "row", counting_row)
        one_to_one_schedule(instance)
        assert len(calls) <= 751 // 3

    def test_replay_computes_few_pairs_exactly(self, monkeypatch):
        from asymcharge.cli import generate_instance

        # a point-blank transmission's 45 degree sector covers few of the
        # nodes in range of its stop: the bearing prefilter drops the rest
        # before the exact stage
        instance = generate_instance(450, seed=1)
        schedule, _ = one_to_one_schedule(instance)
        stops = list(dict.fromkeys(item.pos for item in schedule.items if item.state == TRANSMIT))
        in_range = len(reach_pairs(*columns(stops), instance).node)
        exact = []
        coverage_math = pipeline.coverage_math

        def counting(dx, dy, dmc):
            exact.append(len(dx))
            return coverage_math(dx, dy, dmc)

        monkeypatch.setattr(pipeline, "coverage_math", counting)
        execute_schedule(instance, schedule)
        assert len(exact) == 1
        assert 0 < exact[0] < in_range / 3
