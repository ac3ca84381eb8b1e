"""Charging direction selection and the transfer coefficient matrix.

The coverage kernel finds every node within charge distance of points given
as x and y columns, with its bearing, distance and transfer coefficient, in
two stages: ``near_pairs``, a numpy distance test, and ``coverage_math``,
the exact per-pair math.  The coefficient matrix runs the exact stage on
every near pair of the cover's position columns, the replay only on the
pairs a sector may cover; both then apply one rule, ``covers``.  At each
charging position, the continuum of possible sector directions is reduced
to a finite representative set: one direction per maximal coverage subset,
found from a table of which in-range nodes the sector covers at the
midpoint of every arc between the angles where some node enters or leaves
it.  Each matrix row is named by a (position index, psi) pair.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .model import TWO_PI, DmcParams, NetworkInstance
from .positions import ChargingPositionSet

_SMALLEST_NORMAL = sys.float_info.min
_BLOCK = 32  # points per prefilter block, which bounds the (points, nodes) arrays


@dataclass(frozen=True, eq=False)  # arrays: compared and hashed by identity
class CoefficientMatrix:
    """Transfer coefficients from every (position, direction) pair to every node.

    Each row is a ``(position index, psi)`` pair, sorted by position index
    first, direction angle second; a row's entries are positive exactly on
    the nodes its direction covers.
    """

    rows: tuple[tuple[int, float], ...]
    entries: np.ndarray  # (K, N)


def normalize_angles(a: np.ndarray) -> np.ndarray:
    """Angles mapped to [0, 2*pi): ``fmod`` by a turn, one turn added to a
    negative remainder, and 0 where that sum rounds up to 2*pi."""
    a = np.fmod(a, TWO_PI)
    a[a < 0.0] += TWO_PI
    a[a >= TWO_PI] = 0.0
    return a


def off_axis(theta: np.ndarray, psi) -> np.ndarray:
    """Circular distance in [0, pi] between angles already in [0, 2*pi)."""
    d = np.abs(theta - psi)
    return np.minimum(d, TWO_PI - d)


def covers(theta: np.ndarray, dist: np.ndarray, psi, half: float) -> np.ndarray:
    """Which in-range pairs a sector at ``psi`` covers: the apex, and bearings within ``half``."""
    return (dist == 0.0) | (off_axis(theta, psi) <= half)


class Near(NamedTuple):
    """The (point, node) pairs that pass the squared-distance test, ordered by
    point, then node id, with the offsets ``node - point`` they were tested on."""

    point: np.ndarray  # index into the points searched
    node: np.ndarray  # node id
    dx: np.ndarray
    dy: np.ndarray


def near_pairs(px: np.ndarray, py: np.ndarray, instance: NetworkInstance) -> Near:
    """The numpy stage of the coverage kernel: the pairs that may lie in range.

    The points are (px[k], py[k]).  One test per block of at most
    ``_BLOCK`` points drops the pairs whose squared distance exceeds
    ``(d_max * (1 + 1e-9))**2``, which no pair within ``d_max`` does.
    """
    xs, ys = instance.x, instance.y
    # never below the smallest normal float, so underflowed squares pass too
    limit = max((instance.dmc.d_max * (1.0 + 1e-9)) ** 2, _SMALLEST_NORMAL)
    parts = []
    with np.errstate(over="ignore"):  # an offset or square that overflows is out of range
        for lo in range(0, len(px), _BLOCK):
            dx = xs - px[lo : lo + _BLOCK, None]
            dy = ys - py[lo : lo + _BLOCK, None]
            square = dx * dx
            square += dy * dy
            flat = np.flatnonzero(square <= limit)  # row-major: by point, then node id
            at, node = np.divmod(flat, len(xs))
            parts.append((at + lo, node, dx.take(flat), dy.take(flat)))
    if not parts:
        return Near(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0), np.zeros(0))
    return Near(*(np.concatenate(column) for column in zip(*parts)))


def coverage_math(
    dx: np.ndarray, dy: np.ndarray, dmc: DmcParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The exact stage of the coverage kernel, for the pairs at offsets (dx, dy).

    Returns ``(keep, theta, dist, coef)``: which pairs lie within ``d_max``,
    and for those the bearing, distance and coefficient.  Each pair gets the
    scalar ``math.hypot`` distance and ``math.atan2`` bearing (numpy's
    differ in the last bit on some pairs) and one scalar power, so every
    value is the one a per-node loop computes.
    """
    dx, dy = dx.tolist(), dy.tolist()
    dist = np.fromiter(map(math.hypot, dx, dy), dtype=float, count=len(dx))
    theta = np.fromiter(map(math.atan2, dy, dx), dtype=float, count=len(dx))
    keep = dist <= dmc.d_max
    dist = dist[keep]
    # numpy adds and divides as a scalar loop does; only the power differs
    powers = map(pow, (dmc.alpha + dist).tolist(), repeat(dmc.beta))
    coef = dmc.delta / np.fromiter(powers, dtype=float, count=dist.size)
    theta = normalize_angles(theta[keep])
    theta[dist == 0.0] = 0.0
    return keep, theta, dist, coef


def _maximal_sectors(theta: np.ndarray, dist: np.ndarray, half: float) -> tuple[np.ndarray, np.ndarray]:
    """Directions and coverage rows of the maximal coverage subsets at one position.

    Takes one position's in-range nodes, which ``covers`` decides for each
    direction.  The coverage subset is sampled at the
    midpoint of every arc between the event angles, where some node enters
    or leaves the sector; each subset keeps its smallest midpoint, and a
    subset strictly inside another is dropped.  Returns psi ascending and a
    (directions, nodes) boolean table.  With no node off the apex, psi is 0.
    """
    off = dist > 0.0
    events = np.sort(normalize_angles(np.concatenate((theta[off] - half, theta[off] + half))))
    if not events.size:
        return np.zeros(1), np.ones((1, theta.size), dtype=bool)
    events = events[np.concatenate(([True], events[1:] != events[:-1]))]
    mids = np.sort(normalize_angles((events + np.append(events[1:], events[0] + TWO_PI)) / 2.0))
    table = covers(theta, dist, mids[:, None], half)
    ones = table.astype(float)
    shared = ones @ ones.T  # exact counts; shared[i, j] == size[i]: row i lies inside row j
    size = shared.diagonal()
    # a row goes when it lies strictly inside another or equals one of smaller psi
    rank = np.arange(len(mids))
    wider = (size > size[:, None]) | ((size == size[:, None]) & (rank < rank[:, None]))
    keep = (size > 0) & ~((shared == size[:, None]) & wider).any(axis=1)
    return mids[keep], table[keep]


def build_coefficient_matrix(
    positions: ChargingPositionSet, instance: NetworkInstance
) -> CoefficientMatrix:
    """Assemble the full (position, direction) -> node coefficient matrix.

    One ``near_pairs`` call and one ``coverage_math`` call cover every
    position.  A row is a direction's coverage row times the coefficients
    of the position's in-range nodes, so it is positive exactly on the
    nodes its direction covers: ``DmcParams`` keeps every coefficient
    within ``d_max`` positive.
    """
    px, py = positions.positions.T
    near = near_pairs(px, py, instance)
    keep, theta, dist, coef = coverage_math(near.dx, near.dy, instance.dmc)
    point, node = near.point[keep], near.node[keep]
    half = instance.dmc.phi / 2.0
    bounds = np.searchsorted(point, np.arange(len(px) + 1))
    rows: list[tuple[int, float]] = []
    blocks = []
    for pi, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        if lo == hi:
            continue
        psis, table = _maximal_sectors(theta[lo:hi], dist[lo:hi], half)
        rows.extend(zip(repeat(pi), psis.tolist()))
        blocks.append((node[lo:hi], table * coef[lo:hi]))
    entries = np.zeros((len(rows), instance.n))
    start = 0
    for ids, block in blocks:
        entries[start : start + len(block), ids] = block
        start += len(block)
    return CoefficientMatrix(tuple(rows), entries)
