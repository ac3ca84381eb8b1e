"""End-to-end schedulers and the schedule evaluator.

``plan_schedule`` chains position selection, direction reduction, time
allocation, and asymmetric tour construction into an operation schedule.
``one_to_one_schedule`` is the baseline that drives to every node and charges
it point-blank.  ``execute_schedule`` replays any schedule against the energy
models and produces the metrics: it checks the items one by one, then
prices every move from one call of ``model.TravelArcs.row``, the hashing
kernel the tours read, and credits all transmissions through the two stages
of the coverage kernel the coefficient matrix is built from, running the
exact stage only on the pairs some transmission's sector may cover.
"""

from __future__ import annotations

import contextlib
import math
import time as _time
from dataclasses import astuple, dataclass, replace

import numpy as np

from .errors import MalformedScheduleError, ValidationError
from . import model
from .model import NetworkInstance, Point
from .directions import (
    build_coefficient_matrix,
    coverage_math,
    near_pairs,
    normalize_angles,
    off_axis,
)
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
    instance: NetworkInstance, stops: list[Point], sends: list[tuple[int, int, float, float]]
) -> tuple[np.ndarray, int | None]:
    """Energy each node receives from the transmissions, before capacity clipping.

    One ``near_pairs`` call searches the distinct stops.  A pair whose numpy
    bearing lies more than ``phi / 2 + 1e-9`` off a transmission's
    direction is dropped for that transmission: ``np.arctan2`` differs from
    ``math.atan2`` by an ulp or so, about 1e-15 rad, far inside the margin,
    so the exact test would drop it too.  The
    exact ``coverage_math`` then runs once on each pair some transmission
    may cover.  Each transmission credits ``p0 * coef * t`` to every
    in-range node its sector covers, and ``bincount`` adds each node's
    credits in transmission order, the order a running ``+=`` per
    transmission takes.  Also returns the position in ``sends`` of the
    first transmission with a credit that is not finite, or None.
    """
    dmc = instance.dmc
    half = dmc.phi / 2.0
    near = near_pairs(stops, instance)
    bounds = np.searchsorted(near.point, np.arange(len(stops) + 1))
    _, stop, psi, t = (np.array(column) for column in zip(*sends))
    lo = bounds[stop]
    count = bounds[stop + 1] - lo
    # the pairs of each transmission's stop, transmission after transmission
    pair = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)
    send = np.repeat(np.arange(len(sends)), count)
    psi = normalize_angles(psi.astype(float))
    apex = (near.dx == 0.0) & (near.dy == 0.0)
    bearing = normalize_angles(np.arctan2(near.dy, near.dx))
    maybe = apex[pair] | (off_axis(bearing[pair], psi[send]) <= half + 1e-9)
    pair, send = pair[maybe], send[maybe]
    wanted = np.zeros(len(apex), dtype=bool)
    wanted[pair] = True
    exact = np.flatnonzero(wanted)
    keep, theta, dist, coef = coverage_math(near.dx[exact], near.dy[exact], dmc)
    # where each near pair's exact values sit, -1 for pairs out of range or not computed
    slot = np.full(len(apex), -1)
    slot[exact[keep]] = np.arange(dist.size)
    at = slot[pair]
    inside = at >= 0
    at, send = at[inside], send[inside]
    covered = (dist[at] == 0.0) | (off_axis(theta[at], psi[send]) <= half)
    at, send = at[covered], send[covered]
    with np.errstate(over="ignore", invalid="ignore"):  # reported as the first bad send
        credit = dmc.p0 * coef[at] * t.astype(float)[send]
    finite = np.isfinite(credit)
    bad = None if finite.all() else int(send[np.argmin(finite)])
    received = np.bincount(near.node[exact[keep]][at], weights=credit, minlength=instance.n)
    return received, bad


def execute_schedule(instance: NetworkInstance, schedule: OperationSchedule) -> ScheduleMetrics:
    """Replay a schedule item by item and account for every joule.

    Every number in an item must be finite, and transmissions must happen
    where the charger is.  The charger starts at the 9-digit base station,
    the point an instance file holds.  The items are checked in order up to
    the first fault.  Then one ``TravelArcs.row`` call prices every move
    before it: each move's travel time and energy must be finite, and its
    duration must match its directed travel time up to what the file
    format's 9-significant-digit rounding of the duration and of the move's
    two ends can change.  ``_received`` credits every transmission at once,
    and every credit must be finite.  Only then is the fault of the lowest
    item index raised.  Received energy accumulates linearly and is
    capacity-clipped once at the end.  The schedule is feasible when every
    demand is met and the charger's battery does not run out.
    """
    dmc = instance.dmc
    ends = [model.snap9_point(instance.bs_pos)]  # the charger's start, then each move's end
    moves: list[tuple[int, float]] = []  # (item index, duration) per move
    tran_time = 0.0
    stops: dict[Point, int] = {}  # distinct transmit positions, first seen first
    sends: list[tuple[int, int, float, float]] = []  # (item index, stop, psi, duration)
    faults: list[tuple[int, ValidationError]] = []  # (item index, fault)
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
                sends.append((idx, stops.setdefault(tuple(item.pos), len(stops)), item.psi, item.t))
            else:
                raise MalformedScheduleError(f"item {idx}: unknown state {item.state}")
    except MalformedScheduleError as exc:
        faults.append((idx, exc))

    move_energy = move_time = distance = 0.0
    if moves:
        try:
            arcs = model.TravelArcs(ends, instance.asym, dmc)
        except ValidationError as exc:
            # quantize stops the loop at ends[cut], the first end off the hash
            # grid: the move into it faults, after the moves before it
            with contextlib.suppress(ValidationError):
                for cut, p in enumerate(ends):
                    instance.asym.quantize(p)
            faults.append((moves[max(cut - 1, 0)][0], exc))
            del ends[cut:], moves[max(cut - 1, 0) :]
            arcs = model.TravelArcs(ends, instance.asym, dmc)
        m = len(moves)
        with np.errstate(over="ignore", invalid="ignore"):  # faults its move below
            k_dis, span, k_egy = arcs.row(np.arange(m), np.arange(1, m + 1))
            d = k_dis * span
            energy = d * k_egy * dmc.w0
        # half a unit in the 9th digit of each end's coordinates, once per end
        shifts = [(_rounding(x), _rounding(y)) for x, y in ends]
        for (idx, stated), (a0, a1), (b0, b1), k, dk, ek in zip(
            moves, shifts, shifts[1:], k_dis.tolist(), d.tolist(), energy.tolist()
        ):
            t = dk / dmc.v_bar
            if not math.isfinite(t):
                problem = "travel time is not finite"
            elif not math.isfinite(ek):
                problem = "move energy is not finite"
            # math.ulp covers the binary error of the stored decimal
            elif abs(t - stated) > _rounding(t) + k * (a0 + a1 + b0 + b1) / dmc.v_bar + math.ulp(t):
                problem = f"duration {stated:.9g} s does not match travel time {t:.9g} s"
            else:
                move_energy += ek
                move_time += stated
                distance += dk
                continue
            faults.append((idx, MalformedScheduleError(f"item {idx}: {problem}")))
            break

    received_raw = np.zeros(instance.n)
    if sends:
        received_raw, bad = _received(instance, list(stops), sends)
        if bad is not None:
            idx = sends[bad][0]
            faults.append((idx, MalformedScheduleError(f"item {idx}: credited energy is not finite")))
    if faults:
        raise min(faults, key=lambda fault: fault[0])[1]

    ledger = model.energy_accounting(
        instance.e_b_vector(), instance.e_c_vector(), received_raw, tran_time, move_energy, dmc
    )
    demand_met = bool(
        np.all(ledger.e_f >= instance.e_b_vector() + instance.e_d_vector() - 1e-6)
    )
    metrics = ScheduleMetrics(
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
    # every item's values are finite, but their sums can still overflow
    if not all(map(math.isfinite, astuple(metrics))):
        raise MalformedScheduleError("the schedule's energy or time totals are not finite")
    return metrics


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
        # lazy bounds and costs overflow to inf silently: an inf bound rules
        # nothing out and the tour rejects an inf cost; one errstate per
        # tour, since one per arcs call costs a few percent of a plan
        with np.errstate(over="ignore"):
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
