"""Library code that only the tests use, kept here unchanged.

Directed segment distance, energy and time, movement totals along a tour,
received energy from pair rows, the factorial tour oracle and the plain-text
cost-matrix format: no scheduler or CLI command calls any of them.
"""

import itertools

import numpy as np

from asymcharge.errors import MalformedTourError, ValidationError
from asymcharge.model import (
    AsymmetryField,
    DmcParams,
    Point,
    RoutingMatrices,
    euclidean,
    ra_coefficients,
)
from asymcharge.routing import DirectedCostGraph, Tour, cost_graph, tour_cost


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
