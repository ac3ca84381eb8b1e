"""End-to-end schedulers and the schedule evaluator.

``plan_schedule`` chains position selection, direction reduction, time
allocation, and asymmetric tour construction into an operation schedule.
``one_to_one_schedule`` is the baseline that drives to every node and charges
it point-blank.  ``execute_schedule`` replays any schedule against the energy
models and produces the metrics: it checks the items one by one, then
prices every move from one call of ``model.TravelArcs.row``, the hashing
kernel the tours read, and credits all transmissions from one call of
``directions.reach_pairs``, the coverage kernel the coefficient matrix is
built from.
"""

from __future__ import annotations

import contextlib
import math
import time as _time
from dataclasses import dataclass, replace

import numpy as np

from .errors import MalformedScheduleError, ValidationError
from . import model
from .model import NetworkInstance, Point
from .directions import build_coefficient_matrix, normalize_angles, off_axis, reach_pairs
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


def _received(
    instance: NetworkInstance, stops: list[Point], sends: list[tuple[int, float, float]]
) -> np.ndarray:
    """Energy each node receives from the transmissions, before capacity clipping.

    One ``reach_pairs`` call covers the distinct stops.  Each transmission
    credits ``p0 * coef * t`` to every in-range node its sector covers, and
    ``bincount`` adds each node's credits in transmission order, the order
    a running ``+=`` per transmission takes.
    """
    dmc = instance.dmc
    reach = reach_pairs(stops, instance)
    bounds = np.searchsorted(reach.point, np.arange(len(stops) + 1))
    stop, psi, t = (np.array(column) for column in zip(*sends))
    lo = bounds[stop]
    count = bounds[stop + 1] - lo
    # the pairs of each transmission's stop, transmission after transmission
    pair = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)
    psi = np.repeat(normalize_angles(psi.astype(float)), count)
    covered = (reach.dist[pair] == 0.0) | (off_axis(reach.theta[pair], psi) <= dmc.phi / 2.0)
    pair = pair[covered]
    credit = dmc.p0 * reach.coef[pair] * np.repeat(t.astype(float), count)[covered]
    return np.bincount(reach.node[pair], weights=credit, minlength=instance.n)


def execute_schedule(instance: NetworkInstance, schedule: OperationSchedule) -> ScheduleMetrics:
    """Replay a schedule item by item and account for every joule.

    Every number in an item must be finite, and transmissions must happen
    where the charger is.  The charger starts at the 9-digit base station,
    the point an instance file holds.  The items are checked in order up to
    the first fault.  Then one ``TravelArcs.row`` call prices every move
    before it, and each move's duration must match its directed travel time
    up to what the file format's 9-significant-digit rounding of the
    duration and of the move's two ends can change.  Only then is that
    first fault raised, so the lowest-index fault wins.  ``_received``
    credits every transmission at once.  Received energy accumulates
    linearly and is capacity-clipped once at the end.  The schedule is
    feasible when every demand is met and the charger's battery does not
    run out.
    """
    dmc = instance.dmc
    ends = [model.snap9_point(instance.bs_pos)]  # the charger's start, then each move's end
    moves: list[tuple[int, float]] = []  # (item index, duration) per move
    tran_time = 0.0
    stops: dict[Point, int] = {}  # distinct transmit positions, first seen first
    sends: list[tuple[int, float, float]] = []  # (stop, psi, duration) per transmission
    fault = None
    try:
        for idx, item in enumerate(schedule.items):
            if not all(map(math.isfinite, (item.pos[0], item.pos[1], item.psi, item.t))):
                raise MalformedScheduleError(f"item {idx}: non-finite position, direction or duration")
            if item.t < 0:
                raise MalformedScheduleError(f"item {idx}: negative duration")
            if item.state == MOVE:
                moves.append((idx, item.t))
                ends.append(item.pos)
            elif item.state == TRANSMIT:
                if tuple(item.pos) != tuple(ends[-1]):
                    raise MalformedScheduleError(
                        f"item {idx}: transmits from {item.pos} but the charger is at {ends[-1]}"
                    )
                tran_time += item.t
                sends.append((stops.setdefault(tuple(item.pos), len(stops)), item.psi, item.t))
            else:
                raise MalformedScheduleError(f"item {idx}: unknown state {item.state}")
    except MalformedScheduleError as exc:
        fault = exc

    move_energy = move_time = distance = 0.0
    if moves:
        try:
            arcs = model.TravelArcs(ends, instance.asym, dmc)
        except ValidationError as exc:
            # quantize stops the loop at ends[cut], the first end off the hash
            # grid: the move into it faults, after the moves before it
            fault = exc
            with contextlib.suppress(ValidationError):
                for cut, p in enumerate(ends):
                    instance.asym.quantize(p)
            del ends[cut:], moves[max(cut - 1, 0) :]
            arcs = model.TravelArcs(ends, instance.asym, dmc)
        m = len(moves)
        k_dis, span, k_egy = arcs.row(np.arange(m), np.arange(1, m + 1))
        d = k_dis * span
        energy = d * k_egy * dmc.w0
        for (idx, stated), a, b, k, dk, ek in zip(
            moves, ends, ends[1:], k_dis.tolist(), d.tolist(), energy.tolist()
        ):
            t = dk / dmc.v_bar
            # math.ulp covers the binary error of the stored decimal
            shift = sum(map(_rounding, (a[0], a[1], b[0], b[1])))
            if abs(t - stated) > _rounding(t) + k * shift / dmc.v_bar + math.ulp(t):
                raise MalformedScheduleError(
                    f"item {idx}: duration {stated:.9g} s does not match travel time {t:.9g} s"
                )
            move_energy += ek
            move_time += stated
            distance += dk
    if fault is not None:
        raise fault

    received_raw = _received(instance, list(stops), sends) if sends else np.zeros(instance.n)
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
        feasible=demand_met and ledger.dmc_energy_ok,
    )


def _movement_items(
    tour_order: list[int], mats: model.RoutingMatrices | model.TravelArcs, v_bar: float
) -> list[tuple[int, ScheduleItem]]:
    """(destination index, movement item) per tour arc, skipping zero hops.

    ``mats.dist[a, b]`` is a matrix entry, or the distance ``TravelArcs``
    recorded for an arc the tour computed.
    """
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
    not visited at all.  The cover's positions already carry the 9 digits a
    schedule file stores, so the LP, the tour and the replay all see the
    same points.
    """
    started = _time.perf_counter()
    positions = select_charging_positions(instance)
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
    no shortest-path closure.  The tour hashes only the arcs whose lower
    bound a step cannot rule out, and each move takes the distance of the
    arc the tour computed.
    """
    started = _time.perf_counter()
    targets = [u for u in instance.nodes if u.e_d > 0]
    items: list[ScheduleItem] = []
    if targets:
        points = [model.snap9_point(instance.bs_pos)] + [u.pos for u in targets]
        arcs = model.TravelArcs(points, instance.asym, instance.dmc)
        tour = greedy_tour(arcs)
        apex = instance.dmc.apex_coefficient
        for dest, move_item in _movement_items(list(tour.order), arcs, instance.dmc.v_bar):
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
