"""Library code that only the tests use, kept here unchanged.

Rows for the columnar types (``Node`` rows of an instance through
``node_rows`` and ``instance_of``, a schedule of ``ScheduleItem`` rows
through ``schedule_of``, and the x and y ``columns`` of a list of points),
directed segment distance, energy and time, movement totals along a tour,
received energy from pair rows, the factorial tour oracle, the plain-text
cost-matrix format, the metrics-CSV reader with its identity check and
k-means on a fresh draw sequence: no scheduler or CLI command calls any of
them.  The coefficients of one pair come from ``TravelArcs.row``, the
library's one hashing kernel, so the tests built on them test the library.
"""

import csv
import itertools
import math
from typing import NamedTuple

import numpy as np

from asymcharge import positions
from asymcharge.errors import MalformedTourError, ValidationError
from asymcharge.model import (
    AsymmetryField,
    DmcParams,
    NetworkInstance,
    Point,
    RoutingMatrices,
    TravelArcs,
)
from asymcharge.pipeline import OperationSchedule
from asymcharge.routing import DirectedCostGraph, Tour, cost_graph, tour_cost


class Node(NamedTuple):
    """A rechargeable node as a row of an instance: position, energy state and demand."""

    id: int
    pos: Point
    e_b: float  # initial stored energy (J)
    e_d: float  # demanded energy (J)
    e_c: float  # battery capacity (J)


def node_rows(instance: NetworkInstance) -> tuple[Node, ...]:
    """The instance's nodes as ``Node`` rows, in id order."""
    pos = zip(instance.x.tolist(), instance.y.tolist())
    energies = (instance.e_b.tolist(), instance.e_d.tolist(), instance.e_c.tolist())
    return tuple(itertools.starmap(Node, zip(itertools.count(), pos, *energies)))


def instance_of(nodes, bs: Point, dmc: DmcParams, asym: AsymmetryField) -> NetworkInstance:
    """The instance of ``Node`` rows, whose ids must be 0..n-1 in order."""
    nodes = tuple(nodes)
    assert [u.id for u in nodes] == list(range(len(nodes))), "node ids must be 0..n-1 in order"
    _, pos, e_b, e_d, e_c = zip(*nodes) if nodes else ((),) * 5
    return NetworkInstance(*columns(pos), e_b, e_d, e_c, bs, dmc, asym)


def schedule_of(items) -> OperationSchedule:
    """The schedule of ``ScheduleItem`` rows (state, pos, psi, t)."""
    items = tuple(items)
    state, pos, psi, t = zip(*items) if items else ((),) * 4
    return OperationSchedule(np.array(state), *columns(pos), psi, t)


def columns(points) -> np.ndarray:
    """The x and y columns of (x, y) points, as the two rows of one float array."""
    return np.array(points, dtype=float).reshape(-1, 2).T.copy()


def kmeans(points, k: int, seed: int) -> list[tuple[int, ...]]:
    """``positions.kmeans`` of (x, y) pairs or an (n, 2) array on a fresh draw sequence."""
    return positions.kmeans(positions._Seeding(np.asarray(points, dtype=float), seed), k)


def ra_coefficients(asym: AsymmetryField, a: Point, b: Point) -> tuple[float, float]:
    """Distance and energy-rate coefficients for travel from ``a`` to ``b``."""
    k_dis, _, k_egy = TravelArcs(*columns([a, b]), asym, DmcParams()).row(0, [1])
    return (float(k_dis[0]), float(k_egy[0]))


def euclidean(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def ra_distance(a: Point, b: Point, asym: AsymmetryField) -> float:
    """Directed travel distance: coefficient times the euclidean distance."""
    return ra_coefficients(asym, a, b)[0] * euclidean(a, b)


def segment_move_energy_time(
    a: Point, b: Point, asym: AsymmetryField, dmc: DmcParams
) -> tuple[float, float]:
    """Movement energy (J) and travel time (s) for one directed segment."""
    k_dis, k_egy = ra_coefficients(asym, a, b)
    d = k_dis * euclidean(a, b)
    return (d * k_egy * dmc.w0, d / dmc.v_bar)


def tour_move_energy_time(
    tour: list[int], mat: RoutingMatrices, dmc: DmcParams
) -> tuple[float, float]:
    """Total movement energy and time along a tour of position indices."""
    if len(tour) < 2:
        raise MalformedTourError("a tour needs at least a start and an end")
    if tour[0] != 0 or tour[-1] != 0:
        raise MalformedTourError("tours must start and end at the base station (index 0)")
    energy = 0.0
    time = 0.0
    for a, b in zip(tour, tour[1:]):
        d = mat.dist[a, b]
        energy += d * mat.egy_rate[a, b]
        time += d / dmc.v_bar
    return energy, time


def received_energy(entries: np.ndarray, t: np.ndarray, p0: float) -> np.ndarray:
    """Per-node received energy for transmission times ``t`` over the pair rows."""
    entries = np.asarray(entries, dtype=float)
    t = np.asarray(t, dtype=float)
    if entries.ndim != 2 or t.shape != (entries.shape[0],):
        raise ValidationError(
            f"time vector of length {t.shape} does not match {entries.shape[0]} pair rows"
        )
    return p0 * (entries.T @ t)


def brute_force_tour(cost: np.ndarray) -> Tour:
    """Factorial-time exact tour; only for cross-checking tiny cases."""
    n = cost.shape[0]
    if n == 1:
        return Tour((0, 0), 0.0)
    best = None
    for perm in itertools.permutations(range(1, n)):
        order = (0, *perm, 0)
        c = tour_cost(order, cost)
        if best is None or c < best.cost:
            best = Tour(order, c)
    return best


def write_cost_matrix(path, g: DirectedCostGraph) -> None:
    """Plain-text full matrix: a count line, then one row of costs per line."""
    with open(path, "w", encoding="ascii") as f:
        f.write(f"{g.n}\n")
        for row in g.cost:
            f.write(" ".join(format(v, ".9g") for v in row) + "\n")


def read_cost_matrix(path) -> DirectedCostGraph:
    with open(path, encoding="ascii") as f:
        tokens = f.read().split()
    if not tokens:
        raise ValidationError("empty cost matrix file")
    n = int(tokens[0])
    values = [float(v) for v in tokens[1:]]
    if len(values) != n * n:
        raise ValidationError(f"expected {n * n} costs, found {len(values)}")
    return cost_graph(np.array(values).reshape(n, n))


def load_metrics_csv(path, check_identities: bool = True) -> list[dict]:
    """Read a per-run metrics CSV back, re-checking the metric identities."""
    with open(path, newline="", encoding="ascii") as f:
        rows = list(csv.DictReader(f))
    if check_identities:
        for row in rows:
            if row.get("status", "ok") != "ok":
                continue
            total = float(row["total_energy_loss"])
            parts = float(row["charging_energy_loss"]) + float(row["movement_energy"])
            span = float(row["time_span"])
            tparts = float(row["charging_time"]) + float(row["moving_time"])
            scale = 1.0 + abs(total) + abs(span)
            if abs(total - parts) > 1e-6 * scale or abs(span - tparts) > 1e-6 * scale:
                raise ValidationError(f"metrics identities violated in row {row}")
    return rows
