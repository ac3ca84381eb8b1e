"""End-to-end schedulers and the schedule evaluator.

``plan_schedule`` chains position selection, direction reduction, time
allocation, and asymmetric tour construction into an operation schedule.
``one_to_one_schedule`` is the baseline that drives to every node and charges
it point-blank.  ``execute_schedule`` replays any schedule against the energy
models and produces the metrics.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, replace

import numpy as np

from .errors import MalformedScheduleError
from . import model
from .model import NetworkInstance, Point
from .directions import build_coefficient_matrix, nodes_in_range
from .positions import select_charging_positions
from .routing import cost_graph, expand_tour, greedy_tour, lk_tour, metric_closure
from .timing import build_time_lp, solve_lp

MOVE = 0
TRANSMIT = 1

_TIME_EPS = 1e-12


@dataclass(frozen=True)
class ScheduleItem:
    state: int  # MOVE or TRANSMIT
    pos: Point  # movement target, or transmission position
    psi: float  # transmission direction; unused for movement items
    t: float  # duration (s)


@dataclass(frozen=True)
class OperationSchedule:
    items: tuple[ScheduleItem, ...]


@dataclass(frozen=True)
class ScheduleMetrics:
    total_energy_loss: float
    charging_energy_loss: float
    movement_energy: float
    tour_distance: float
    time_span: float
    charging_time: float
    moving_time: float
    algorithm_runtime: float
    received_total: float
    feasible: bool


def _rounding(x: float) -> float:
    """Half a unit in the 9th significant digit of ``x``: the most a file's rounding moves it."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 8) if x else 0.0


def execute_schedule(instance: NetworkInstance, schedule: OperationSchedule) -> ScheduleMetrics:
    """Replay a schedule item by item and account for every joule.

    Every number in an item must be finite.  Movement durations must match
    the directed travel time implied by the asymmetry field up to what the
    file format's 9-significant-digit rounding of the duration and of the
    move's two ends can change, and transmissions must happen where the
    charger is.  The charger starts at the 9-digit base station, the point an
    instance file holds.  Each transmission credits the nodes that
    ``nodes_in_range`` finds, in node-id order.  Received energy accumulates
    linearly and is capacity-clipped once at the end.
    """
    dmc = instance.dmc
    here = model.snap9_point(instance.bs_pos)
    received_raw = np.zeros(instance.n)
    move_energy = 0.0
    move_time = 0.0
    tran_time = 0.0
    distance = 0.0
    for idx, item in enumerate(schedule.items):
        if not all(map(math.isfinite, (item.pos[0], item.pos[1], item.psi, item.t))):
            raise MalformedScheduleError(f"item {idx}: non-finite position, direction or duration")
        if item.t < 0:
            raise MalformedScheduleError(f"item {idx}: negative duration")
        if item.state == MOVE:
            k_dis, k_egy = model.ra_coefficients(instance.asym, here, item.pos)
            d = k_dis * model.euclidean(here, item.pos)
            t = d / dmc.v_bar
            # files keep 9 significant digits of the duration and of both ends;
            # math.ulp covers the binary error of the stored decimal
            shift = sum(map(_rounding, (here[0], here[1], item.pos[0], item.pos[1])))
            if abs(t - item.t) > _rounding(t) + k_dis * shift / dmc.v_bar + math.ulp(t):
                raise MalformedScheduleError(
                    f"item {idx}: duration {item.t:.9g} s does not match travel time {t:.9g} s"
                )
            move_energy += d * k_egy * dmc.w0
            move_time += item.t
            distance += d
            here = item.pos
        elif item.state == TRANSMIT:
            if tuple(item.pos) != tuple(here):
                raise MalformedScheduleError(
                    f"item {idx}: transmits from {item.pos} but the charger is at {here}"
                )
            tran_time += item.t
            for k, theta, d in zip(*nodes_in_range(item.pos, instance)):
                c = model.transfer_coefficient(item.psi, dmc.phi, theta, d, dmc)
                received_raw[k] += dmc.p0 * c * item.t
        else:
            raise MalformedScheduleError(f"item {idx}: unknown state {item.state}")

    ledger = model.energy_accounting(
        instance.e_b_vector(), instance.e_c_vector(), received_raw, tran_time, move_energy, dmc
    )
    demand_met = bool(
        np.all(ledger.e_f >= instance.e_b_vector() + instance.e_d_vector() - 1e-6)
    )
    return ScheduleMetrics(
        total_energy_loss=ledger.e_total_loss,
        charging_energy_loss=ledger.e_wpt_loss,
        movement_energy=ledger.e_mc_move,
        tour_distance=distance,
        time_span=move_time + tran_time,
        charging_time=tran_time,
        moving_time=move_time,
        algorithm_runtime=0.0,
        received_total=ledger.e_nodes_rcv,
        feasible=demand_met,
    )


def _movement_items(
    tour_order: list[int], mats: model.RoutingMatrices, v_bar: float
) -> list[tuple[int, ScheduleItem]]:
    """(destination index, movement item) per tour arc, skipping zero hops."""
    out = []
    for a, b in zip(tour_order, tour_order[1:]):
        if a == b:
            continue
        t = float(mats.dist[a, b]) / v_bar
        out.append((b, ScheduleItem(MOVE, mats.positions[b], 0.0, t)))
    return out


def plan_schedule(
    instance: NetworkInstance, seed: int = 0, restart_budget: int = 20
) -> tuple[OperationSchedule, ScheduleMetrics]:
    """Sector-charging schedule: shared positions, few directions, one loop tour.

    Positions come from the clustering cover, directions from the sweep
    reduction, times from the covering program, and the visiting order from
    the local-search tour over the metric closure of the directed
    movement-energy graph.  Positions allocated zero transmission time are
    not visited at all.  The cover's centers are snapped to the 9 digits a
    schedule file stores before the coefficient matrix is built, so the LP,
    the tour and the replay all see the same points.
    """
    started = _time.perf_counter()
    cover = select_charging_positions(instance)
    positions = replace(cover, positions=tuple(map(model.snap9_point, cover.positions)))
    matrix = build_coefficient_matrix(positions, instance)
    solution = solve_lp(build_time_lp(matrix, instance))

    per_position: dict[int, list[tuple[float, float]]] = {}
    for row, t in zip(matrix.rows, solution.t):
        if t > _TIME_EPS:
            per_position.setdefault(row.pos_index, []).append((row.psi, float(t)))

    items: list[ScheduleItem] = []
    if per_position:
        kept = sorted(per_position)
        points = [model.snap9_point(instance.bs_pos)] + [positions.positions[pi] for pi in kept]
        mats = model.build_routing_matrices(points, instance.asym, instance.dmc)
        closed = metric_closure(cost_graph(mats.move_cost()))
        tour = expand_tour(lk_tour(closed, seed=seed, budget=restart_budget), closed)

        transmitted: set[int] = set()
        path = list(tour.order)
        for dest, move_item in _movement_items(path, mats, instance.dmc.v_bar):
            items.append(move_item)
            if dest != 0 and dest not in transmitted:
                transmitted.add(dest)
                pos_index = kept[dest - 1]
                for psi, t in sorted(per_position[pos_index]):
                    items.append(ScheduleItem(TRANSMIT, points[dest], psi, t))

    schedule = OperationSchedule(tuple(items))
    metrics = execute_schedule(instance, schedule)
    runtime = _time.perf_counter() - started
    return schedule, replace(metrics, algorithm_runtime=runtime)


def one_to_one_schedule(instance: NetworkInstance) -> tuple[OperationSchedule, ScheduleMetrics]:
    """Baseline: drive to each demanding node and charge it at zero distance.

    Transmission time per node is exactly demand / (p0 * apex coefficient);
    the visiting order is nearest-neighbor on directed movement energy, with
    no shortest-path closure.
    """
    started = _time.perf_counter()
    targets = [u for u in instance.nodes if u.e_d > 0]
    items: list[ScheduleItem] = []
    if targets:
        points = [model.snap9_point(instance.bs_pos)] + [u.pos for u in targets]
        mats = model.build_routing_matrices(points, instance.asym, instance.dmc)
        tour = greedy_tour(cost_graph(mats.move_cost()))
        apex = instance.dmc.apex_coefficient
        for dest, move_item in _movement_items(list(tour.order), mats, instance.dmc.v_bar):
            items.append(move_item)
            if dest != 0:
                u = targets[dest - 1]
                items.append(
                    ScheduleItem(TRANSMIT, u.pos, 0.0, u.e_d / (instance.dmc.p0 * apex))
                )
    schedule = OperationSchedule(tuple(items))
    metrics = execute_schedule(instance, schedule)
    runtime = _time.perf_counter() - started
    return schedule, replace(metrics, algorithm_runtime=runtime)
