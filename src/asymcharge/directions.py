"""Charging direction selection and the transfer coefficient matrix.

At each charging position, the continuum of possible sector directions is
reduced to a finite representative set: one direction per maximal coverage
subset, found by sweeping the sector boundary events around the circle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
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


def representative_directions(pos: Point, instance: NetworkInstance) -> list[float]:
    """Minimum direction set functionally equivalent to the whole circle.

    Sweeps the event angles where some node enters or leaves the sector,
    samples the coverage subset at the midpoint of every arc between events,
    and keeps one direction per coverage subset that is maximal under set
    inclusion (the smallest qualifying midpoint when several arcs tie).
    Returned angles are sorted ascending.
    """
    ids, thetas, dists = nodes_in_range(pos, instance)
    if not ids:
        return []
    phi = instance.dmc.phi
    half = phi / 2.0
    apex = frozenset(i for i, d in zip(ids, dists) if d == 0.0)
    regular = [(i, th) for i, th, d in zip(ids, thetas, dists) if d > 0.0]
    if not regular:
        return [0.0]

    events = sorted({normalize_angle(th + s * half) for _, th in regular for s in (-1.0, 1.0)})
    m = len(events)
    mids = []
    for i, e in enumerate(events):
        nxt = events[i + 1] if i + 1 < m else events[0] + TWO_PI
        mids.append(normalize_angle((e + nxt) / 2.0))

    candidates: dict[frozenset[int], float] = {}
    for mid in mids:
        covered = apex | frozenset(i for i, th in regular if angular_distance(th, mid) <= half)
        if covered and (covered not in candidates or mid < candidates[covered]):
            candidates[covered] = mid

    subsets = list(candidates.keys())
    keep = []
    for s in subsets:
        if not any(s < t for t in subsets):
            keep.append(candidates[s])
    return sorted(keep)


def build_coefficient_matrix(
    positions: ChargingPositionSet, instance: NetworkInstance
) -> CoefficientMatrix:
    """Assemble the full (position, direction) -> node coefficient matrix."""
    rows: list[PosDirPair] = []
    entries: list[np.ndarray] = []
    dmc = instance.dmc
    for pi, pos in enumerate(positions.positions):
        ids, thetas, dists = nodes_in_range(pos, instance)
        for psi in representative_directions(pos, instance):
            row = np.zeros(instance.n)
            for j, th, d in zip(ids, thetas, dists):
                row[j] = transfer_coefficient(psi, dmc.phi, th, d, dmc)
            covered = frozenset(int(j) for j in np.flatnonzero(row > 0.0))
            if not covered:
                raise AssertionError("direction sweep produced an empty-coverage row")
            rows.append(PosDirPair(pi, psi, covered))
            entries.append(row)

    matrix = np.array(entries) if entries else np.zeros((0, instance.n))
    for u in instance.nodes:
        if u.e_d > 0 and (matrix.shape[0] == 0 or not np.any(matrix[:, u.id] > 0.0)):
            raise ValidationError(
                f"node {u.id} demands energy but no position/direction covers it"
            )
    return CoefficientMatrix(tuple(rows), matrix)
