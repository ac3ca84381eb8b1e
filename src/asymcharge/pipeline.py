"""End-to-end schedulers and the schedule evaluator.

``plan_schedule`` chains position selection, direction reduction, time
allocation, and asymmetric tour construction into an operation schedule.
``one_to_one_schedule`` is the baseline that drives to every node and charges
it point-blank.  A schedule is five numpy columns (state, x, y, psi, t), which
both schedulers and the file reader fill directly.  ``execute_schedule``
replays any schedule against the energy models and produces the metrics: it
checks the items and the grid range of their moves with one array pass per
check, prices every move from one call of ``model.TravelArcs.row``, the
hashing kernel the tours read, with the 9-digit tolerance of every move in
array passes too, and credits all transmissions through the two stages of
the coverage kernel the coefficient matrix is built from, running the
exact stage only on the pairs some transmission's sector may cover.
"""

from __future__ import annotations

import itertools
import math
import time as _time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import MalformedScheduleError, ValidationError
from . import model
from .model import NetworkInstance, Point
from .directions import (
    build_coefficient_matrix,
    coverage_math,
    covers,
    near_pairs,
    normalize_angles,
    off_axis,
)
from .positions import select_charging_positions
from .routing import _in_order_sum, cost_graph, expand_tour, greedy_tour, lk_tour, metric_closure
from .timing import build_time_lp, solve_lp

MOVE = 0
TRANSMIT = 1

_TIME_EPS = 1e-12


class ScheduleItem(NamedTuple):
    """One item of a schedule, a row of ``OperationSchedule``."""

    state: int  # MOVE or TRANSMIT
    pos: Point  # movement target, or transmission position
    psi: float  # transmission direction; unused for movement items
    t: float  # duration (s)


_COLUMNS = ("state", "x", "y", "psi", "t")


class OperationSchedule:
    """A schedule as five numpy columns with one entry per item.

    ``state`` holds MOVE or TRANSMIT, ``x`` and ``y`` the movement target
    or transmission position, ``psi`` the transmission direction (unused
    for movement items) and ``t`` the duration in seconds.  The constructor
    copies each column it is given and makes the copies read-only, so the
    caller's arrays stay its own.  ``items`` is
    the tuple of ``ScheduleItem`` rows, built once when first read.  Two
    schedules are equal when their columns are.
    """

    __slots__ = (*_COLUMNS, "_items")

    def __init__(self, state, x, y, psi, t):
        values = (np.array(v, dtype=float) for v in (x, y, psi, t))
        for name, column in zip(_COLUMNS, (np.array(state), *values)):
            column.setflags(write=False)
            setattr(self, name, column)
        self._items = None

    @property
    def items(self) -> tuple[ScheduleItem, ...]:
        if self._items is None:
            pos = zip(self.x.tolist(), self.y.tolist())
            rows = zip(self.state.tolist(), pos, self.psi.tolist(), self.t.tolist())
            # tuple.__new__ fills each row in C, without the per-row Python
            # __new__ that calling ScheduleItem runs
            self._items = tuple(map(tuple.__new__, itertools.repeat(ScheduleItem), rows))
        return self._items

    def __eq__(self, other):
        if not isinstance(other, OperationSchedule):
            return NotImplemented
        return all(np.array_equal(getattr(self, c), getattr(other, c)) for c in _COLUMNS)

    def __repr__(self) -> str:
        return f"OperationSchedule({self.items!r})"


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


# 10.0 ** k for k = -315 ... 308, each the double ``_rounding`` computes
_POWERS_FROM = -315
_POWERS = np.array([10.0**k for k in range(_POWERS_FROM, 309)])


def _rounding_array(x: np.ndarray) -> np.ndarray:
    """``_rounding`` of every finite value, bit for bit; 0.0 for the others.

    Take e = floor(log10|x|) from numpy.  Where |x| lies more than a
    relative 1e-12 inside [10**e, 10**(e + 1)), for e in -307..307, the
    exact logarithm is more than 4e-13 from an integer, many ulps more
    than ``math.log10`` or ``np.log10`` can be off, so ``math.floor``
    gives e as well, and the result is ``0.5 * 10.0 ** (e - 8)`` from a
    table of the doubles Python computes.  Zeros give 0.0; every other
    finite value, near a power of ten or below 1e-307, goes through
    ``_rounding``.
    """
    mag = np.abs(x)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(mag))
    sure = (e >= -307.0) & (e <= 307.0)  # also false for zero and non-finite values
    k = np.where(sure, e, 0.0).astype(np.intp) - _POWERS_FROM
    sure &= (mag > _POWERS[k] * (1.0 + 1e-12)) & (mag < _POWERS[k + 1] * (1.0 - 1e-12))
    out = np.where(sure, 0.5 * _POWERS[k - 8], 0.0)
    unsure = ~sure & np.isfinite(x) & (x != 0.0)
    out[unsure] = [_rounding(v) for v in x[unsure].tolist()]
    return out


def _received(
    instance: NetworkInstance,
    stop_x: np.ndarray,
    stop_y: np.ndarray,
    stop: np.ndarray,
    psi: np.ndarray,
    t: np.ndarray,
) -> tuple[np.ndarray, int | None]:
    """Energy each node receives from the transmissions, before capacity clipping.

    Transmission i sends from the stop ``(stop_x[stop[i]], stop_y[stop[i]])``
    in direction ``psi[i]`` for ``t[i]`` seconds; the stops are the
    charger's start and the ends of its moves, and one ``near_pairs`` call
    searches them all.  A pair whose numpy bearing lies more than
    ``phi / 2 + 1e-9`` off a transmission's direction is dropped for that
    transmission: ``np.arctan2`` differs from ``math.atan2`` by an ulp or
    so, about 1e-15 rad, far inside the margin, so the exact test would
    drop it too.
    The exact ``coverage_math`` then runs once on each pair some
    transmission may cover.  Each transmission credits ``p0 * coef * t`` to
    every in-range node its sector ``covers``, and ``bincount`` adds each
    node's credits in transmission order, the order a running ``+=`` per
    transmission takes.  Also returns the index of the first transmission
    with a credit that is not finite, or None.
    """
    dmc = instance.dmc
    half = dmc.phi / 2.0
    near = near_pairs(stop_x, stop_y, instance)
    bounds = np.searchsorted(near.point, np.arange(len(stop_x) + 1))
    lo = bounds[stop]
    count = bounds[stop + 1] - lo
    # the pairs of each transmission's stop, transmission after transmission
    pair = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)
    send = np.repeat(np.arange(len(stop)), count)
    psi = normalize_angles(psi)
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
    covered = covers(theta[at], dist[at], psi[send], half)
    at, send = at[covered], send[covered]
    with np.errstate(over="ignore", invalid="ignore"):  # reported as the first bad send
        credit = dmc.p0 * coef[at] * t[send]
    finite = np.isfinite(credit)
    bad = None if finite.all() else int(send[np.argmin(finite)])
    received = np.bincount(near.node[exact[keep]][at], weights=credit, minlength=instance.n)
    return received, bad


def execute_schedule(instance: NetworkInstance, schedule: OperationSchedule) -> ScheduleMetrics:
    """Replay a schedule and account for every joule.

    Every number in an item must be finite, its duration nonnegative and its
    state known, and transmissions must happen where the charger is.  The
    charger starts at the 9-digit base station, the point an instance file
    holds, and every point it moves through must lie within the hash
    grid's 64-bit range: the move into the first end outside it faults, or
    the first move when that end is the start.  One array pass per check
    finds the first item that fails one, and the same masks word its fault,
    the item checks ahead of the grid's.  Then one ``TravelArcs.row`` call
    prices every move before it: each move's travel time and energy must be
    finite, and its duration must
    match its directed travel time up to what the file format's
    9-significant-digit rounding of the duration and of the move's two ends
    can change.  ``_received`` credits every transmission before it at
    once, and every credit must be finite.  Only then is the fault of the
    lowest item index raised.  Running totals add in item order, as a
    running ``+=`` does.  Each node banks what it receives up to its
    capacity.  The charger sends ``p0`` times the charging time and spends
    that plus the movement energy; the total loss is what it spends less
    what the nodes bank, the charging loss what it sends less that.  The
    schedule is feasible when every demand is met and the battery covers
    what the charger spends.
    """
    dmc = instance.dmc
    start = model.snap9_point(instance.bs_pos)
    state, x, y, psi, t = schedule.state, schedule.x, schedule.y, schedule.psi, schedule.t
    is_move = state == MOVE
    is_send = state == TRANSMIT
    moved = np.flatnonzero(is_move)
    # the charger's start, then each move's end
    end_x = np.append(start[0], x[moved])
    end_y = np.append(start[1], y[moved])
    before = np.cumsum(is_move) - is_move  # the moves before each item
    nonfinite = ~(np.isfinite(x) & np.isfinite(y) & np.isfinite(psi) & np.isfinite(t))
    negative = t < 0.0
    unknown = ~(is_move | is_send)
    misplaced = is_send & ((x != end_x[before]) | (y != end_y[before]))
    fault = nonfinite | negative | unknown | misplaced
    # the move into the first end off the hash grid faults, the first move
    # when that end is the start
    if (off := instance.asym.off_grid(end_x, end_y)) is not None and moved.size:
        fault[moved[max(off - 1, 0)]] = True
    faults: list[tuple[int, ValidationError]] = []  # (item index, fault)
    cut = len(t)  # the first faulty item: neither it nor any item after it is priced
    if fault.any():
        cut = int(fault.argmax())
        problem = None  # none of the item checks: the move into a point off the grid
        if nonfinite[cut]:
            problem = "non-finite position, direction or duration"
        elif negative[cut]:
            problem = "negative duration"
        elif misplaced[cut]:
            at = (x[cut].item(), y[cut].item())
            here = (end_x[before[cut]].item(), end_y[before[cut]].item())
            problem = f"transmits from {at} but the charger is at {here}"
        elif unknown[cut]:
            problem = f"unknown state {state[cut].item()}"
        if problem is None:
            faults.append((cut, instance.asym.off_grid_error((end_x[off].item(), end_y[off].item()))))
        else:
            faults.append((cut, MalformedScheduleError(f"item {cut}: {problem}")))
    moves = moved[: np.searchsorted(moved, cut)]
    sends = np.flatnonzero(is_send[:cut])

    move_energy = move_time = distance = 0.0
    if moves.size:
        m = moves.size
        arcs = model.TravelArcs(end_x[: m + 1], end_y[: m + 1], instance.asym, dmc)
        stated = t[moves]
        with np.errstate(over="ignore", invalid="ignore"):  # faults its move below
            k_dis, span, k_egy = arcs.row(np.arange(m), np.arange(1, m + 1))
            d = k_dis * span
            energy = d * k_egy * dmc.w0
            travel = d / dmc.v_bar
            # half a unit in the 9th digit of each end's coordinates, once
            # per end, and of each travel time, in one pass
            half = _rounding_array(np.concatenate((end_x[: m + 1], end_y[: m + 1], travel)))
            ex, ey = half[: m + 1], half[m + 1 : 2 * m + 2]
            shift = ex[:-1] + ey[:-1] + ex[1:] + ey[1:]
            # math.ulp covers the binary error of the stored decimal; it is
            # np.spacing of the magnitude, which is 2**971 from 2**1023 up
            ulp = np.spacing(np.minimum(np.abs(travel), 2.0**1023))
            tolerance = half[2 * m + 2 :] + k_dis * shift / dmc.v_bar + ulp
            wrong = np.abs(travel - stated) > tolerance
            wrong |= ~(np.isfinite(travel) & np.isfinite(energy))
        priced = int(wrong.argmax()) if wrong.any() else m  # the moves before the first wrong one
        if priced < m:
            idx = int(moves[priced])
            said, took = float(stated[priced]), float(travel[priced])
            if not math.isfinite(took):
                problem = "travel time is not finite"
            elif not math.isfinite(energy[priced]):
                problem = "move energy is not finite"
            else:
                problem = f"duration {said:.9g} s does not match travel time {took:.9g} s"
            faults.append((idx, MalformedScheduleError(f"item {idx}: {problem}")))
        move_energy = _in_order_sum(energy[:priced])
        move_time = _in_order_sum(stated[:priced])
        distance = _in_order_sum(d[:priced])

    received_raw = np.zeros(instance.n)
    if sends.size:
        # the placement check put each send before the cut at the end of the
        # moves before it
        stop_x, stop_y = end_x[: moves.size + 1], end_y[: moves.size + 1]
        received_raw, bad = _received(instance, stop_x, stop_y, before[sends], psi[sends], t[sends])
        if bad is not None:
            idx = int(sends[bad])
            faults.append((idx, MalformedScheduleError(f"item {idx}: credited energy is not finite")))
    if faults:
        raise min(faults, key=lambda fault: fault[0])[1]
    tran_time = _in_order_sum(t[sends])

    e_f = np.minimum(instance.e_b + received_raw, instance.e_c)
    banked = float(np.sum(e_f - instance.e_b))
    sent = dmc.p0 * tran_time
    spent = sent + move_energy
    demand_met = bool(np.all(e_f >= instance.e_b + instance.e_d - 1e-6))
    metrics = ScheduleMetrics(
        total_energy_loss=spent - banked,
        charging_energy_loss=sent - banked,
        movement_energy=move_energy,
        tour_distance=distance,
        time_span=move_time + tran_time,
        charging_time=tran_time,
        moving_time=move_time,
        algorithm_runtime=0.0,
        received_total=banked,
        feasible=demand_met and dmc.e_b0 - spent >= 0.0,
    )
    # every item's values are finite, but their sums can still overflow
    if not all(map(math.isfinite, vars(metrics).values())):
        raise MalformedScheduleError("the schedule's energy or time totals are not finite")
    return metrics


def _from_values(values: list[float]) -> OperationSchedule:
    """The schedule whose items' state, x, y, psi and t follow one another in ``values``."""
    state, x, y, psi, t = np.array(values, dtype=float).reshape(-1, 5).T
    return OperationSchedule(state.astype(np.int64), x, y, psi, t)


def plan_schedule(
    instance: NetworkInstance, seed: int = 0
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

    values: list[float] = []  # state, x, y, psi and t of each item in turn
    if per_position:
        kept = sorted(per_position)
        points = [model.snap9_point(instance.bs_pos)] + [positions.positions[pi] for pi in kept]
        mats = model.build_routing_matrices(points, instance.asym, instance.dmc)
        closed = metric_closure(cost_graph(mats.cost))
        tour = expand_tour(lk_tour(closed, seed=seed), closed)

        transmitted: set[int] = set()
        order = np.array(tour.order)
        with np.errstate(over="ignore"):  # a duration beyond a float is inf; the replay faults it
            durations = (mats.dist[order[:-1], order[1:]] / instance.dmc.v_bar).tolist()
        for dest, t_move in zip(tour.order[1:], durations):
            x, y = points[dest]
            values += (MOVE, x, y, 0.0, t_move)
            if dest != 0 and dest not in transmitted:
                transmitted.add(dest)
                for psi, t in sorted(per_position[kept[dest - 1]]):
                    values += (TRANSMIT, x, y, psi, t)

    schedule = _from_values(values)
    metrics = execute_schedule(instance, schedule)
    runtime = _time.perf_counter() - started
    return schedule, replace(metrics, algorithm_runtime=runtime)


def one_to_one_schedule(instance: NetworkInstance) -> tuple[OperationSchedule, ScheduleMetrics]:
    """Baseline: drive to each demanding node and charge it at zero distance.

    Transmission time per node is exactly demand / (p0 * apex coefficient);
    the visiting order is nearest-neighbor on directed movement energy, with
    no shortest-path closure.  The tour hashes each point's window of near
    arcs and only the other arcs whose lower bound a step cannot rule out,
    and one more ``TravelArcs.row`` call gives the distance of every move.
    """
    started = _time.perf_counter()
    targets = np.flatnonzero(instance.e_d > 0)
    values: list[float] = []  # state, x, y, psi and t of each item in turn
    if targets.size:
        bs_x, bs_y = model.snap9_point(instance.bs_pos)
        px = np.append(bs_x, instance.x[targets])
        py = np.append(bs_y, instance.y[targets])
        arcs = model.TravelArcs(px, py, instance.asym, instance.dmc)
        # lazy bounds and costs overflow to inf silently: an inf bound rules
        # nothing out and the tour rejects an inf cost; one errstate per
        # tour, since one per arcs call costs a few percent of a plan
        rate = instance.dmc.p0 * instance.dmc.apex_coefficient
        with np.errstate(over="ignore"):
            tour = greedy_tour(arcs)
            order = np.array(tour.order)
            k_dis, span, _ = arcs.row(order[:-1], order[1:])
            durations = (k_dis * span / instance.dmc.v_bar).tolist()
            sends = (instance.e_d[targets] / rate).tolist()
        xs, ys = px[order[1:]].tolist(), py[order[1:]].tolist()
        for dest, x, y, t_move in zip(tour.order[1:], xs, ys, durations):
            values += (MOVE, x, y, 0.0, t_move)
            if dest != 0:
                values += (TRANSMIT, x, y, 0.0, sends[dest - 1])
    schedule = _from_values(values)
    metrics = execute_schedule(instance, schedule)
    runtime = _time.perf_counter() - started
    return schedule, replace(metrics, algorithm_runtime=runtime)
