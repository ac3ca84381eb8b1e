"""Charging direction selection and the transfer coefficient matrix.

At each charging position, the continuum of possible sector directions is
reduced to a finite representative set: one direction per maximal coverage
subset, found by sweeping the sector boundary events around the circle.
The sweep also yields the nodes each direction covers, and the coefficient
matrix fills each row from that set, with one reach test per position.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import (
    TWO_PI,
    NetworkInstance,
    Point,
    angular_distance,
    normalize_angle,
    transfer_coefficient,
)
from .positions import ChargingPositionSet

_SMALLEST_NORMAL = sys.float_info.min


@dataclass(frozen=True)
class PosDirPair:
    """One matrix row: a charging position index, a direction, its coverage."""

    pos_index: int
    psi: float
    covered: frozenset[int]


@dataclass(frozen=True)
class CoefficientMatrix:
    """Transfer coefficients from every (position, direction) pair to every node.

    Rows are sorted by position index first, direction angle second.
    """

    rows: tuple[PosDirPair, ...]
    entries: np.ndarray  # (K, N)


def nodes_in_range(pos: Point, instance: NetworkInstance) -> tuple[list[int], list[float], list[float]]:
    """Nodes within charge distance of ``pos`` with their bearings and distances.

    Bearings are measured counterclockwise from the positive x axis; a node
    exactly at ``pos`` gets bearing 0 (it is covered regardless of direction).
    One numpy test first drops the nodes whose squared distance exceeds
    ``(d_max * (1 + 1e-9))**2``, which no node within ``d_max`` does; the
    exact scalar checks run on the rest in node-id order (``math.hypot``, not
    ``np.hypot``: the two differ in the last bit on some pairs).
    """
    nodes = instance.nodes
    d_max = instance.dmc.d_max
    x, y = pos
    xs, ys = instance.node_xy
    dxs = xs - x
    dys = ys - y
    # never below the smallest normal float, so underflowed squares pass too
    near = dxs * dxs + dys * dys <= max((d_max * (1.0 + 1e-9)) ** 2, _SMALLEST_NORMAL)
    ids: list[int] = []
    thetas: list[float] = []
    dists: list[float] = []
    for i in near.nonzero()[0].tolist():
        u = nodes[i].pos
        dx = u[0] - x
        dy = u[1] - y
        d = math.hypot(dx, dy)
        if d <= d_max:
            ids.append(i)
            thetas.append(normalize_angle(math.atan2(dy, dx)) if d > 0.0 else 0.0)
            dists.append(d)
    return ids, thetas, dists


def _maximal_sectors(
    ids: list[int], thetas: list[float], dists: list[float], phi: float
) -> list[tuple[float, frozenset[int]]]:
    """``(psi, covered)`` for each maximal coverage subset, sorted by psi.

    Takes the lists ``nodes_in_range`` returns.  Sweeps the event angles
    where some node enters or leaves the sector, samples the coverage subset
    at the midpoint of every arc between events, and keeps one direction per
    coverage subset that is maximal under set inclusion (the smallest
    qualifying midpoint when several arcs tie).  A node at the apex is
    covered by every direction; with no other node in range, psi is 0.
    """
    half = phi / 2.0
    events = sorted(
        {normalize_angle(th + s * half) for th, d in zip(thetas, dists) if d > 0.0 for s in (-1.0, 1.0)}
    )
    if not events:
        return [(0.0, frozenset(ids))] if ids else []
    m = len(events)
    candidates: dict[frozenset[int], float] = {}
    for i, e in enumerate(events):
        nxt = events[i + 1] if i + 1 < m else events[0] + TWO_PI
        mid = normalize_angle((e + nxt) / 2.0)
        covered = frozenset(
            j for j, th, d in zip(ids, thetas, dists) if d == 0.0 or angular_distance(th, mid) <= half
        )
        if covered and (covered not in candidates or mid < candidates[covered]):
            candidates[covered] = mid
    maximal = [(mid, c) for c, mid in candidates.items() if not any(c < t for t in candidates)]
    return sorted(maximal, key=lambda pair: pair[0])


def representative_directions(pos: Point, instance: NetworkInstance) -> list[float]:
    """Minimum direction set functionally equivalent to the whole circle.

    One direction per maximal coverage subset of the nodes in range, sorted
    ascending.
    """
    return [psi for psi, _ in _maximal_sectors(*nodes_in_range(pos, instance), instance.dmc.phi)]


def build_coefficient_matrix(
    positions: ChargingPositionSet, instance: NetworkInstance
) -> CoefficientMatrix:
    """Assemble the full (position, direction) -> node coefficient matrix.

    A row is positive exactly on the nodes its direction covers: ``DmcParams``
    keeps every coefficient within ``d_max`` positive.
    """
    rows: list[PosDirPair] = []
    entries: list[np.ndarray] = []
    dmc = instance.dmc
    for pi, pos in enumerate(positions.positions):
        ids, thetas, dists = nodes_in_range(pos, instance)
        reach = dict(zip(ids, zip(thetas, dists)))
        for psi, covered in _maximal_sectors(ids, thetas, dists, dmc.phi):
            row = np.zeros(instance.n)
            for j in covered:
                row[j] = transfer_coefficient(psi, dmc.phi, *reach[j], dmc)
            rows.append(PosDirPair(pi, psi, covered))
            entries.append(row)
    matrix = np.array(entries) if entries else np.zeros((0, instance.n))
    return CoefficientMatrix(tuple(rows), matrix)
