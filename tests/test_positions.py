import functools
import itertools
import math

import numpy as np
import pytest

from asymcharge import TRANSMIT, DmcParams, ValidationError, plan_schedule, positions
from asymcharge.positions import min_enclosing_circle, select_charging_positions
from asymcharge.cli import generate_instance
from asymcharge.model import snap9_point

from conftest import make_instance
from support import kmeans, node_rows


def brute_force_circle(points):
    """Smallest covering circle by checking every 1/2/3-point support set."""

    def covers(c, r):
        return all(math.hypot(p[0] - c[0], p[1] - c[1]) <= r + 1e-9 for p in points)

    best = None
    for p in points:
        if covers(p, 0.0) and (best is None or 0.0 < best[1]):
            best = (p, 0.0)
    for a, b in itertools.combinations(points, 2):
        c = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        r = math.hypot(a[0] - c[0], a[1] - c[1])
        if covers(c, r) and (best is None or r < best[1]):
            best = (c, r)
    for a, b, c3 in itertools.combinations(points, 3):
        d = 2 * (a[0] * (b[1] - c3[1]) + b[0] * (c3[1] - a[1]) + c3[0] * (a[1] - b[1]))
        if abs(d) < 1e-12:
            continue
        ux = (
            (a[0] ** 2 + a[1] ** 2) * (b[1] - c3[1])
            + (b[0] ** 2 + b[1] ** 2) * (c3[1] - a[1])
            + (c3[0] ** 2 + c3[1] ** 2) * (a[1] - b[1])
        ) / d
        uy = (
            (a[0] ** 2 + a[1] ** 2) * (c3[0] - b[0])
            + (b[0] ** 2 + b[1] ** 2) * (a[0] - c3[0])
            + (c3[0] ** 2 + c3[1] ** 2) * (b[0] - a[0])
        ) / d
        r = math.hypot(a[0] - ux, a[1] - uy)
        if covers((ux, uy), r) and (best is None or r < best[1]):
            best = ((ux, uy), r)
    return best


def degenerate_points(rng, kind):
    """1-12 points of one degenerate kind, offset up to 1e3 from the origin.

    "cocircular" points lie on one circle up to rounding, "duplicated" ones
    repeat a few distinct points, "collinear" ones lie exactly on a line
    (integer coordinates and slope), and "grid" ones on a unit grid.
    """
    n = int(rng.integers(1, 13))
    offset = rng.uniform(-1e3, 1e3, 2)
    if kind == "cocircular":
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        pts = offset + rng.uniform(0.1, 50.0) * np.column_stack((np.cos(angles), np.sin(angles)))
    elif kind == "duplicated":
        distinct = offset + rng.uniform(0.0, 40.0, (int(rng.integers(1, 5)), 2))
        pts = distinct[rng.integers(0, len(distinct), n)]
    elif kind == "collinear":
        steps = rng.integers(-20, 21, n)
        slope = rng.choice([0, 1, -1, 2, -3])
        pts = np.round(offset) + np.column_stack((steps, slope * steps))
    else:
        pts = offset + rng.integers(0, 5, (n, 2))
    return [tuple(p) for p in pts.astype(float).tolist()]


def radius_of(points, ids):
    return min_enclosing_circle([points[i] for i in ids])[1]


class TestMinEnclosingCircle:
    def test_single_point(self):
        center, radius = min_enclosing_circle([(3.0, 4.0)])
        assert center == (3.0, 4.0)
        assert radius == 0.0

    def test_two_points(self):
        center, radius = min_enclosing_circle([(0.0, 0.0), (4.0, 0.0)])
        assert center == pytest.approx((2.0, 0.0))
        assert radius == pytest.approx(2.0)

    def test_triangle(self):
        center, radius = min_enclosing_circle([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)])
        assert center == pytest.approx((1.0, 0.0), abs=1e-12)
        assert radius == pytest.approx(1.0, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            min_enclosing_circle([])

    def test_against_support_set_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            points = [tuple(p) for p in rng.uniform(0, 100, size=(n, 2))]
            center, radius = min_enclosing_circle(points)
            _, want_radius = brute_force_circle(points)
            assert radius == pytest.approx(want_radius, rel=1e-9, abs=1e-9)
            assert all(
                math.hypot(p[0] - center[0], p[1] - center[1]) <= radius + 1e-9
                for p in points
            )
        kinds = ("cocircular", "duplicated", "collinear", "grid")
        for kind in itertools.islice(itertools.cycle(kinds), 200):
            points = degenerate_points(rng, kind)
            center, radius = min_enclosing_circle(points)
            _, want_radius = brute_force_circle(points)
            assert radius == pytest.approx(want_radius, rel=1e-8, abs=0.0), kind
            assert all(
                math.hypot(p[0] - center[0], p[1] - center[1]) <= radius + 1e-9
                for p in points
            ), kind

    def test_cocircular_points_all_enclosed(self):
        # four points 20 m from (1e6, 1e6): the circle through three of them
        # must still pass the in-circle test for the fourth
        points = [
            (999980.5602424346, 1000004.7006197249),
            (1000015.6526809948, 999987.5503583314),
            (1000019.932534947, 999998.3586436745),
            (999981.7226069936, 1000008.1201542405),
        ]
        center, radius = min_enclosing_circle(points)
        assert radius == 20.00000000002522
        assert all(positions._in_circle((*center, radius), p) for p in points)


def sse_of_partition(points, groups):
    total = 0.0
    for g in groups:
        if not g:
            continue
        cx = sum(points[i][0] for i in g) / len(g)
        cy = sum(points[i][1] for i in g) / len(g)
        total += sum((points[i][0] - cx) ** 2 + (points[i][1] - cy) ** 2 for i in g)
    return total


class TestKmeans:
    def test_each_point_its_own_cluster(self):
        points = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)]
        clusters = kmeans(points, k=3, seed=1)
        assert sorted(clusters) == [(0,), (1,), (2,)]
        assert all(radius_of(points, ids) == 0.0 for ids in clusters)

    def test_single_cluster(self):
        points = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)]
        (cluster,) = kmeans(points, k=1, seed=1)
        assert cluster == (0, 1, 2)

    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(3)
        blob_a = [(x, y) for x, y in rng.normal((10, 10), 1.0, size=(5, 2))]
        blob_b = [(x, y) for x, y in rng.normal((90, 90), 1.0, size=(5, 2))]
        points = blob_a + blob_b
        clusters = kmeans(points, k=2, seed=11)
        got = sorted(clusters)
        assert got == [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]
        # the blob split is also the SSE-optimal 2-partition
        best = None
        for bits in range(1, 2 ** len(points) - 1, 2):  # fix point 0 in group 0
            g0 = [i for i in range(len(points)) if not bits & (1 << i)]
            g1 = [i for i in range(len(points)) if bits & (1 << i)]
            sse = sse_of_partition(points, [g0, g1])
            if best is None or sse < best[0]:
                best = (sse, sorted([tuple(sorted(g0)), tuple(sorted(g1))]))
        assert got == best[1]

    def test_partitions_all_points(self):
        rng = np.random.default_rng(5)
        points = [tuple(p) for p in rng.uniform(0, 50, size=(20, 2))]
        clusters = kmeans(points, k=4, seed=2)
        seen = sorted(i for ids in clusters for i in ids)
        assert seen == list(range(20))
        assert all(list(ids) == sorted(ids) for ids in clusters)

    def test_duplicate_points_handled(self):
        points = [(1.0, 1.0)] * 5 + [(9.0, 9.0)] * 5
        clusters = kmeans(points, k=4, seed=0)
        seen = sorted(i for ids in clusters for i in ids)
        assert seen == list(range(10))
        assert all(radius_of(points, ids) == 0.0 for ids in clusters)

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            kmeans([(0.0, 0.0)], k=2, seed=0)
        with pytest.raises(ValidationError):
            kmeans([(0.0, 0.0)], k=0, seed=0)

    def test_radius_matches_members(self):
        rng = np.random.default_rng(8)
        points = [tuple(p) for p in rng.uniform(0, 100, size=(30, 2))]
        for ids in kmeans(points, k=5, seed=4):
            center, radius = min_enclosing_circle([points[i] for i in ids])
            far = max(
                math.hypot(points[i][0] - center[0], points[i][1] - center[1]) for i in ids
            )
            assert far == pytest.approx(radius, abs=1e-9)


class TestSelectChargingPositions:
    def test_one_tight_group_gives_one_position(self):
        specs = [((x, 0.0), 10.0, 20.0, 60.0) for x in (0.0, 5.0, 10.0)]
        instance = make_instance(specs, bs=(50.0, 50.0))
        cover = select_charging_positions(instance)
        assert len(cover.positions) == 1
        assert cover.positions[0] == pytest.approx((5.0, 0.0))

    def test_two_distant_nodes_need_two_positions(self):
        d = DmcParams().d_max
        specs = [((0.0, 0.0), 10.0, 20.0, 60.0), ((2 * d + 0.5, 0.0), 10.0, 20.0, 60.0)]
        cover = select_charging_positions(make_instance(specs, bs=(50.0, 50.0)))
        assert len(cover.positions) == 2

    def test_far_flung_nodes_one_position_each(self):
        specs = [((x * 100.0, 0.0), 10.0, 20.0, 60.0) for x in range(5)]
        cover = select_charging_positions(make_instance(specs, bs=(50.0, 50.0)))
        assert len(cover.positions) == 5
        got = sorted(map(tuple, cover.positions.tolist()))
        assert got == [pytest.approx((x * 100.0, 0.0)) for x in range(5)]

    def test_coverage_validity_and_minimality(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            points = rng.uniform(0, 200, size=(40, 2))
            specs = [((float(x), float(y)), 10.0, 20.0, 60.0) for x, y in points]
            instance = make_instance(specs, bs=(100.0, 100.0))
            cover = select_charging_positions(instance)
            d_max = instance.dmc.d_max
            # every node lies within d_max of some position
            for u in node_rows(instance):
                assert min(math.dist(u.pos, p) for p in cover.positions) <= d_max + 1e-9
            k = len(cover.positions)
            if k > 1:
                points = [u.pos for u in node_rows(instance)]
                smaller = kmeans(points, k - 1, seed=instance.asym.seed)
                assert any(radius_of(points, ids) > d_max for ids in smaller)

    def test_fit_judged_at_the_stored_center(self):
        # three 9-digit nodes lie 19.99999998 m from their enclosing circle's
        # center (35.06064924, 37.85085294), stored as (35.0606492,
        # 37.8508529), which is 20.00000004 m from node 0: one position
        # cannot serve them, and node 0 gets its own
        nodes = [(46.9129252, 53.9605877), (15.3194122, 34.644054), (37.4141126, 17.9898054)]
        instance = make_instance([(p, 10.0, 20.0, 60.0) for p in nodes], bs=(50.0, 50.0),
                                 dmc=DmcParams(d_max=20.0))
        center, radius = min_enclosing_circle(nodes)
        assert radius < 20.0 - 1e-8
        assert math.dist(nodes[0], (35.0606492, 37.8508529)) > 20.0 + 1e-8
        assert center != (35.0606492, 37.8508529) == snap9_point(center)
        cover = select_charging_positions(instance)
        stored = sorted(map(tuple, cover.positions.tolist()))
        assert stored == [(26.3667624, 26.3169297), nodes[0]]
        schedule, metrics = plan_schedule(instance)
        assert {item.pos for item in schedule.items if item.state == TRANSMIT} == set(stored)
        assert metrics.feasible

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        specs = [((float(x), float(y)), 10.0, 20.0, 60.0) for x, y in rng.uniform(0, 200, (25, 2))]
        instance = make_instance(specs, bs=(100.0, 100.0))
        a = select_charging_positions(instance)
        b = select_charging_positions(instance)
        assert np.array_equal(a.positions, b.positions)

    @pytest.mark.parametrize(
        "n, seed, want",
        [(200, 3, 41), (450, 12, 45), (450, 14, 55), (450, 1758193937, 47)],
    )
    def test_stride_search_pinned_covers(self, n, seed, want):
        # the first three fit at their smallest k but fail some larger k,
        # never at a probe above it; the last fits at 44, but its probe at
        # 45 and then 46 fail, so the search passes 44 and returns 47
        cover = select_charging_positions(generate_instance(n, seed, area=200.0))
        assert len(cover.positions) == want

    def test_kmeans_calls_of_a_dense_cover(self, monkeypatch):
        # wrapped as the benchmark wraps the module attribute; the bound is
        # 19 and 47 fits: 11 calls, where a scan of every k made 29
        calls = []
        original = positions.kmeans

        @functools.wraps(original)
        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(positions, "kmeans", counting)
        cover = select_charging_positions(generate_instance(450, 1, area=200.0))
        assert len(cover.positions) == 47
        assert calls == [19, 23, 27, 31, 35, 39, 43, 47, 44, 45, 46]
