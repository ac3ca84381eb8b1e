"""Charging position selection: a cluster count whose every cluster fits a disc.

A cluster count k fits when every cluster lies within the charge distance
of its minimum enclosing circle's center, rounded to the 9 digits a
schedule file stores; those rounded centers become the charging positions.
The search starts at a proven lower bound, probes every fourth k until one
fits and then scans the gap below that probe.  Each k tried is clustered
once, on one point array per plan, seeded from the head of one k-means++
draw sequence that the plan owns and extends, so its clusters do not
depend on the order the search tries it in.  A k with a cluster wider than
the separation reach in x or y is rejected by one numpy pass before any
circle is built; otherwise its clusters are enclosed in order until one
does not fit, and a cluster that another k already enclosed keeps its
center.  Each circle comes from Welzl's incremental loop over a seeded
shuffle, with three collinear points enclosed by their farthest pair's
diameter circle.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import NetworkInstance, Point, snap9_point

_KMEANS_MAX_ITER = 100
_K_STRIDE = 4  # the cover's step between probed cluster counts


@dataclass(frozen=True)
class ChargingPositionSet:
    """Selected charging positions: every node lies within ``d_max`` of one of them."""

    positions: tuple[Point, ...]


def min_enclosing_circle(points: list[Point]) -> tuple[Point, float]:
    """Smallest circle covering all points, by Welzl's incremental loop.

    The points are shuffled with a fixed-seed generator, so results are
    reproducible, and enclosed one at a time in expected linear time.  A
    point outside the circle so far restarts it at that point alone; an
    earlier point outside that one makes the two a diameter, and a point
    before that one makes the three its circumcircle.  Three collinear points
    have none, so the farthest two of them become the diameter instead.
    """
    if len(points) == 0:
        raise ValidationError("cannot enclose an empty point set")
    pts = [(float(x), float(y)) for x, y in points]
    random.Random(0x5EED).shuffle(pts)
    c = (pts[0][0], pts[0][1], 0.0)
    for i, p in enumerate(pts):
        if _in_circle(c, p):
            continue
        c = (p[0], p[1], 0.0)
        for j, q in enumerate(pts[:i]):
            if _in_circle(c, q):
                continue
            c = _diameter_circle(p, q)
            for r in pts[:j]:
                if not _in_circle(c, r):
                    c = _circumcircle(p, q, r) or max(
                        _diameter_circle(p, q), _diameter_circle(p, r), _diameter_circle(q, r),
                        key=lambda d: d[2],
                    )
    return (c[0], c[1]), c[2]


def _diameter_circle(a, b):
    cx = (a[0] + b[0]) / 2.0
    cy = (a[1] + b[1]) / 2.0
    r = max(math.hypot(cx - a[0], cy - a[1]), math.hypot(cx - b[0], cy - b[1]))
    return (cx, cy, r)


def _circumcircle(a, b, c):
    ox = (min(a[0], b[0], c[0]) + max(a[0], b[0], c[0])) / 2.0
    oy = (min(a[1], b[1], c[1]) + max(a[1], b[1], c[1])) / 2.0
    ax, ay = a[0] - ox, a[1] - oy
    bx, by = b[0] - ox, b[1] - oy
    cx, cy = c[0] - ox, c[1] - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) + (cx * cx + cy * cy) * (bx - ax)) / d
    r = max(math.hypot(x - a[0], y - a[1]), math.hypot(x - b[0], y - b[1]), math.hypot(x - c[0], y - c[1]))
    return (x, y, r)


def _in_circle(c, p):
    return math.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * (1.0 + 1e-14) + 1e-14


class _Seeding:
    """One plan's k-means++ draws: its points, generator, running ``d2`` and centers.

    Lloyd draws nothing, so the centers k-means++ draws for k are the first k
    it draws for k + 1, and every k the cover tries, in any order, shares
    one sequence.
    """

    __slots__ = ("pts", "rng", "d2", "centers")

    def __init__(self, pts: np.ndarray, seed: int):
        self.pts = pts
        self.rng = np.random.default_rng(seed)
        first = int(self.rng.integers(len(pts)))
        self.centers = [first]
        self.d2 = ((pts - pts[first]) ** 2).sum(axis=1)

    def extend(self, k: int) -> list[int]:
        """Point ids of the first k centers, drawing only the ones not drawn yet."""
        pts = self.pts
        n = len(pts)
        while len(self.centers) < k:
            total = self.d2.sum()
            if total > 0:
                # Generator.choice(n, p=d2 / total) without its checks: the
                # same cumulative sum, uniform draw and right-side search
                cdf = (self.d2 / total).cumsum()
                cdf /= cdf[-1]
                idx = int(cdf.searchsorted(self.rng.random(), side="right"))
            else:
                idx = int(self.rng.integers(n))
            self.centers.append(idx)
            self.d2 = np.minimum(self.d2, ((pts - pts[idx]) ** 2).sum(axis=1))
        return self.centers[:k]


def kmeans(draws: _Seeding, k: int) -> list[tuple[int, ...]]:
    """Member ids of each nonempty cluster after k-means++ seeding and Lloyd iteration.

    Clusters the (n, 2) float array ``draws.pts``, seeded with the first k
    centers ``draws`` holds, drawing any it lacks, so every k of one plan
    reads one draw sequence.  Stops when assignments stabilize or after 100
    iterations.  A cluster that loses all members is re-seeded from the
    point currently farthest from its assigned center.  Empty clusters
    remaining at convergence (possible with duplicate points) are dropped.
    Clusters come in cluster order, each member tuple in id order.
    """
    pts = draws.pts
    n = len(pts)
    if not 1 <= k <= n:
        raise ValidationError(f"cluster count must be in 1..{n}, got {k}")
    seeds = draws.extend(k)

    xs = np.ascontiguousarray(pts[:, 0])
    ys = np.ascontiguousarray(pts[:, 1])
    cx = xs[seeds]
    cy = ys[seeds]
    # every row of grid_x holds its point's x, so x - cx is one subtract of
    # two contiguous (n, k) arrays; numpy runs a stride-0 column operand as
    # n short loops, several times slower for the same IEEE operations
    grid_x = np.repeat(xs, k).reshape(n, k)
    grid_y = np.repeat(ys, k).reshape(n, k)
    dist2 = np.empty((n, k))
    dy2 = np.empty((n, k))
    assign = np.full(n, -1, dtype=np.intp)
    new_assign = np.empty(n, dtype=np.intp)
    for _ in range(_KMEANS_MAX_ITER):
        # dx * dx + dy * dy, one operation at a time in the same buffers
        np.copyto(dist2, cx)
        np.subtract(grid_x, dist2, out=dist2)
        dist2 *= dist2
        np.copyto(dy2, cy)
        np.subtract(grid_y, dy2, out=dy2)
        dy2 *= dy2
        dist2 += dy2
        dist2.argmin(axis=1, out=new_assign)
        # re-seed empty clusters from the farthest point, one at a time
        for _ in range(k):
            counts = np.bincount(new_assign, minlength=k)
            empty = np.flatnonzero(counts == 0)
            if empty.size == 0:
                break
            own = dist2[np.arange(n), new_assign]
            far = int(own.argmax())
            if own[far] <= 0.0:
                break  # all points coincide with their centers; leave empty
            e = empty[0]
            cx[e] = xs[far]
            cy[e] = ys[far]
            dist2[:, e] = (xs - cx[e]) ** 2 + (ys - cy[e]) ** 2
            dist2.argmin(axis=1, out=new_assign)
        else:
            counts = np.bincount(new_assign, minlength=k)
            empty = np.flatnonzero(counts == 0)
        if np.array_equal(new_assign, assign):
            break
        assign, new_assign = new_assign, assign
        # bincount adds each cluster's members in index order, as a masked
        # mean(axis=0) does, so the centroids are the same to the bit
        sums_x = np.bincount(assign, weights=xs, minlength=k)
        sums_y = np.bincount(assign, weights=ys, minlength=k)
        if empty.size == 0:
            cx = sums_x / counts
            cy = sums_y / counts
        else:
            filled = counts > 0
            cx[filled] = sums_x[filled] / counts[filled]
            cy[filled] = sums_y[filled] / counts[filled]

    # counts belongs to the final assignment; a stable sort keeps each
    # cluster's members in id order, and the cumulative cluster sizes cut the
    # sorted ids into one slice per cluster
    order = np.argsort(assign, kind="stable").tolist()
    ends = np.cumsum(counts).tolist()
    return [tuple(order[a:b]) for a, b in zip([0] + ends, ends) if b > a]


def _separation_reach(d_max: float) -> float:
    """2 d_max with a 1e-6 margin that keeps rounding on the failing side.

    Two nodes farther apart than this, in distance or along one axis, have
    no center within ``d_max`` of both, even as rounded coordinates measure it.
    """
    return 2.0 * d_max * (1.0 + 1e-6)


def _separated_count(pts: np.ndarray, d_max: float) -> int:
    """Size of a greedy set of nodes, in id order, pairwise farther apart than the reach.

    No cluster count below it can fit: fewer clusters put two of these nodes
    in one cluster, and no center lies within ``d_max`` of both.
    """
    reach = _separation_reach(d_max)
    xs = pts[:, 0]
    ys = pts[:, 1]
    free = np.ones(len(pts), dtype=bool)
    count = 0
    while free.any():
        i = int(free.argmax())
        count += 1
        free &= np.hypot(xs - xs[i], ys - ys[i]) > reach
    return count


def _wider_than(pts: np.ndarray, clusters: list[tuple[int, ...]], reach: float) -> bool:
    """Whether some cluster's x or y extent exceeds ``reach``, in one numpy pass."""
    sizes = [len(ids) for ids in clusters]
    members = pts[np.fromiter(itertools.chain.from_iterable(clusters), np.intp, sum(sizes))]
    starts = np.cumsum(sizes) - sizes
    extent = np.maximum.reduceat(members, starts) - np.minimum.reduceat(members, starts)
    return bool((extent > reach).any())


def _fitted_cover(
    pts: np.ndarray,
    clusters: list[tuple[int, ...]],
    d_max: float,
    enclosed: dict[tuple[int, ...], Point],
) -> ChargingPositionSet | None:
    """The clusters' 9-digit enclosing-circle centers, if each reaches its members.

    ``pts`` are the node positions, an (n, 2) float array.
    A cluster wider than ``_separation_reach`` in x or y has no center
    within ``d_max`` of both its extreme members, and one that fits is at
    most 2 d_max wide, so such a k is rejected before any circle is built.
    Otherwise the clusters are enclosed in order, giving up at the first one
    with a member farther than ``d_max`` from its rounded center, so a
    losing k costs no more circles than it needs.  ``enclosed`` maps the
    member ids of every cluster enclosed so far to its rounded center;
    Welzl's shuffle is seeded, so a cluster met again for another k reuses
    its center.
    """
    if _wider_than(pts, clusters, _separation_reach(d_max)):
        return None
    rows = pts.tolist()
    centers = []
    for ids in clusters:
        members = [tuple(rows[i]) for i in ids]
        if ids not in enclosed:
            enclosed[ids] = snap9_point(min_enclosing_circle(members)[0])
        cx, cy = enclosed[ids]
        if not all(math.hypot(x - cx, y - cy) <= d_max for x, y in members):
            return None
        centers.append((cx, cy))
    return ChargingPositionSet(positions=tuple(centers))


def select_charging_positions(instance: NetworkInstance) -> ChargingPositionSet:
    """A small cluster count whose clusters all fit the charge range.

    A k fits when every cluster lies within the charge distance of its
    enclosing circle's center rounded to 9 digits; those rounded centers
    become the charging positions.  From ``_separated_count``'s lower bound
    L, ``kmeans`` clusters the probes k = L, L + 4, ... (and n last) until
    one fits, then each k of the gap above the last failed probe in turn,
    and the first k that fits wins.  The fit is not monotone in k, so this
    is the smallest fitting k unless a probe at or above it fails, and then
    the first fitting k after that probe.  The LP, the tour and the replay
    therefore all see the points a schedule file stores.  The node
    positions become one float array and one k-means++ draw sequence,
    seeded by the low 64 bits of the instance's asymmetry seed, which every
    ``kmeans`` call of the plan extends; the result is a pure function of
    the instance.  Nodes so far apart that n
    times their widest squared offset overflows raise ``ValidationError``
    before any clustering.
    """
    pts = np.column_stack((instance.x, instance.y))
    # a k-means++ draw weighs each node by its squared offset from a center,
    # out of the sum of all n of them
    with np.errstate(over="ignore"):
        dx, dy = (pts.max(axis=0) - pts.min(axis=0)).tolist()
    if not math.isfinite(instance.n * (dx * dx + dy * dy)):
        raise ValidationError("nodes lie too far apart: their squared offsets overflow a float")
    d_max = instance.dmc.d_max
    bound = _separated_count(pts, d_max)
    # the seed's low 64 bits, the word every coefficient hash key packs
    draws = _Seeding(pts, instance.asym.seed & 0xFFFF_FFFF_FFFF_FFFF)
    enclosed: dict[tuple[int, ...], Point] = {}

    def fitted(k: int) -> ChargingPositionSet | None:
        return _fitted_cover(pts, kmeans(draws, k), d_max, enclosed)

    gap = bound  # the k after the last failed probe
    for probe in itertools.chain(range(bound, instance.n, _K_STRIDE), (instance.n,)):
        cover = fitted(probe)
        if cover is not None:
            for k in range(gap, probe):
                smaller = fitted(k)
                if smaller is not None:
                    return smaller
            return cover
        gap = probe + 1
    raise AssertionError("unreachable: singleton clusters always fit at distance 0")
