import math

import numpy as np
import pytest

from asymcharge import (
    MOVE,
    TRANSMIT,
    OperationSchedule,
    ScheduleItem,
    execute_schedule,
    one_to_one_schedule,
    plan_schedule,
)
from asymcharge.errors import MalformedScheduleError
from asymcharge import energy_accounting

from conftest import make_instance
from support import segment_move_energy_time

APEX = 4000.0 / 100.0**2


def node_at(pos, e_b=10.0, e_d=20.0, e_c=60.0):
    return (pos, e_b, e_d, e_c)


class TestExecuteSchedule:
    def test_empty_schedule(self):
        instance = make_instance([node_at((5.0, 0.0), e_d=0.0)])
        metrics = execute_schedule(instance, OperationSchedule(()))
        assert metrics.total_energy_loss == 0.0
        assert metrics.time_span == 0.0
        assert metrics.feasible

    def test_empty_schedule_infeasible_with_demand(self):
        instance = make_instance([node_at((5.0, 0.0), e_d=20.0)])
        metrics = execute_schedule(instance, OperationSchedule(()))
        assert not metrics.feasible

    def test_two_item_hand_schedule(self):
        # move 10 m east, then charge the node sitting at the new position
        instance = make_instance([node_at((10.0, 0.0), e_b=10.0, e_d=16.0, e_c=60.0)])
        items = (
            ScheduleItem(MOVE, (10.0, 0.0), 0.0, 10.0),
            ScheduleItem(TRANSMIT, (10.0, 0.0), 0.0, 10.0),
        )
        metrics = execute_schedule(instance, OperationSchedule(items))
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
        metrics = execute_schedule(instance, OperationSchedule(items))
        assert metrics.time_span == pytest.approx(sum(i.t for i in items), rel=1e-12)
        assert metrics.time_span == pytest.approx(
            metrics.charging_time + metrics.moving_time, rel=1e-12
        )

    def test_wrong_move_duration_rejected(self):
        instance = make_instance([node_at((10.0, 0.0))])
        items = (ScheduleItem(MOVE, (10.0, 0.0), 0.0, 9.0),)
        with pytest.raises(MalformedScheduleError):
            execute_schedule(instance, OperationSchedule(items))

    def test_duration_checked_at_nine_significant_digits(self):
        # a 98765.43214 m move at 1 m/s is stored as 98765.4321 s, and its end
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
        for x, t, ok in cases:
            items = (ScheduleItem(MOVE, (x, 0.0), 0.0, t),)
            if ok:
                assert execute_schedule(instance, OperationSchedule(items)).moving_time == t
            else:
                with pytest.raises(MalformedScheduleError):
                    execute_schedule(instance, OperationSchedule(items))

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
            execute_schedule(instance, OperationSchedule(items))

    def test_transmit_after_moving_elsewhere_rejected(self):
        instance = make_instance([node_at((10.0, 0.0)), node_at((0.0, 10.0))])
        items = (
            ScheduleItem(MOVE, (10.0, 0.0), 0.0, 10.0),
            ScheduleItem(TRANSMIT, (0.0, 10.0), 0.0, 5.0),
        )
        with pytest.raises(MalformedScheduleError):
            execute_schedule(instance, OperationSchedule(items))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_item_rejected(self, bad):
        instance = make_instance([node_at((10.0, 0.0))])
        for item in (
            ScheduleItem(MOVE, (bad, 0.0), 0.0, 1.0),
            ScheduleItem(MOVE, (10.0, 0.0), 0.0, bad),
            ScheduleItem(TRANSMIT, (0.0, 0.0), bad, 1.0),
        ):
            with pytest.raises(MalformedScheduleError):
                execute_schedule(instance, OperationSchedule((item,)))

    def test_negative_duration_rejected(self):
        instance = make_instance([node_at((10.0, 0.0))])
        items = (ScheduleItem(TRANSMIT, (0.0, 0.0), 0.0, -1.0),)
        with pytest.raises(MalformedScheduleError):
            execute_schedule(instance, OperationSchedule(items))

    def test_unknown_state_rejected(self):
        instance = make_instance([node_at((10.0, 0.0))])
        items = (ScheduleItem(7, (0.0, 0.0), 0.0, 1.0),)
        with pytest.raises(MalformedScheduleError):
            execute_schedule(instance, OperationSchedule(items))


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
        from asymcharge import transfer_coefficient
        from asymcharge.model import normalize_angle

        for item in schedule.items:
            if item.state == MOVE:
                e, _ = segment_move_energy_time(here, item.pos, instance.asym, instance.dmc)
                move_energy += e
                here = item.pos
            else:
                tran_time += item.t
                for u in instance.nodes:
                    d = math.dist(u.pos, item.pos)
                    if d > instance.dmc.d_max:
                        continue
                    th = normalize_angle(math.atan2(u.pos[1] - item.pos[1], u.pos[0] - item.pos[0])) if d else 0.0
                    c = transfer_coefficient(item.psi, instance.dmc.phi, th, d, instance.dmc)
                    raw[u.id] += instance.dmc.p0 * c * item.t
        ledger = energy_accounting(
            instance.e_b_vector(), instance.e_c_vector(), raw, tran_time, move_energy, instance.dmc
        )
        assert metrics.total_energy_loss == pytest.approx(ledger.e_total_loss, rel=1e-9)
        assert metrics.charging_energy_loss == pytest.approx(ledger.e_wpt_loss, rel=1e-9)
        assert metrics.movement_energy == pytest.approx(ledger.e_mc_move, rel=1e-9)

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
