"""The row-wise matrix build, the coverage kernel, the direction sweep, the
batched replay (its array checks and move pricing also on mutated
schedules), the windowed nearest-neighbor tour, the bounded one-to-one
tour and the sliced symmetric doubling against scalar loops and full
matrices.

Every comparison is exact: matrices by their bytes, metrics with ``==``.
"""

import math

import numpy as np
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asymcharge import (
    MOVE,
    TRANSMIT,
    AsymmetryField,
    DmcParams,
    NetworkInstance,
    execute_schedule,
    one_to_one_schedule,
    plan_schedule,
)
from asymcharge.directions import build_coefficient_matrix
from asymcharge.model import build_routing_matrices
from asymcharge.pipeline import ScheduleItem
from asymcharge.positions import ChargingPositionSet, select_charging_positions
from asymcharge.routing import cost_graph, greedy_tour, to_symmetric
from asymcharge import directions, model, pipeline, routing
from asymcharge.errors import MalformedScheduleError, ValidationError
from asymcharge.cli import demo_instance, generate_instance, schedule_to_text

from conftest import make_instance
from scalar_reference import (
    loop_execute_schedule,
    reference_coefficient_matrix,
    reference_coefficients,
    reference_execute_schedule,
    reference_greedy_tour,
    reference_nodes_in_range,
    reference_one_to_one_schedule,
    reference_routing_matrices,
    reference_symmetric_cost,
    reference_tour_cost,
)
from support import columns, node_rows, ra_coefficients, ra_distance, reach_pairs, schedule_of
from test_acceptance import random_schedule

coordinate = st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)
point = st.tuples(coordinate, coordinate)
grid = st.sampled_from([0.01, 0.25, 1.0, 7.5])
# the key packs seed & 0xFFFF_FFFF_FFFF_FFFF, so cover negative and >= 2**63 seeds
seed = st.one_of(
    st.integers(min_value=2**63, max_value=2**64 - 1),
    st.integers(min_value=-(2**70), max_value=2**70),
)


@st.composite
def coefficient_range(draw):
    lo = draw(st.floats(min_value=0.1, max_value=3.0))
    hi = draw(st.floats(min_value=lo, max_value=4.0))
    return (lo, hi)


@st.composite
def point_lists(draw, g: float):
    """Points with exact duplicates and near neighbours that share grid cells."""
    base = draw(st.lists(point, min_size=1, max_size=14))
    out = list(base)
    for p in draw(st.lists(st.sampled_from(base), max_size=4)):
        out.append(p)
    for p in draw(st.lists(st.sampled_from(base), max_size=4)):
        dx = draw(st.floats(min_value=-0.4, max_value=0.4)) * g
        out.append((p[0] + dx, p[1]))
    return draw(st.permutations(out))


@st.composite
def fields_and_points(draw):
    g = draw(grid)
    points = draw(point_lists(g))
    asym = AsymmetryField(
        seed=draw(seed),
        k_dis_range=draw(coefficient_range()),
        k_egy_range=draw(coefficient_range()),
        grid=g,
    )
    if draw(st.booleans()):
        cells = [asym.quantize(p) for p in points]
        pairs = draw(st.lists(st.tuples(st.sampled_from(cells), st.sampled_from(cells)), max_size=6))
        overrides = {pair: (draw(st.floats(0.5, 1.5)), draw(st.floats(0.5, 1.5))) for pair in pairs}
        asym = AsymmetryField(asym.seed, asym.k_dis_range, asym.k_egy_range, g, overrides)
    return asym, points


def assert_bitwise_equal(got, want):
    # a bool, so that a failure reports the entries instead of diffing the bytes
    same = got.tobytes() == want.tobytes()
    assert same, f"entries differ at {np.argwhere(got != want)[:5].tolist()}"


def assert_matrices_match(points, asym, dmc):
    mats = build_routing_matrices(points, asym, dmc)
    dist, cost = reference_routing_matrices(points, asym, dmc)
    assert_bitwise_equal(mats.dist, dist)
    assert_bitwise_equal(mats.cost, cost)


class TestRoutingMatrices:
    @settings(max_examples=150, deadline=None)
    @given(fields_and_points(), st.floats(min_value=0.5, max_value=9.0))
    def test_bitwise_equal_to_pairwise_build(self, field_points, w0):
        asym, points = field_points
        assert_matrices_match(points, asym, DmcParams(w0=w0))

    @settings(max_examples=100, deadline=None)
    @given(fields_and_points())
    def test_scalar_coefficients_equal_to_reference(self, field_points):
        asym, points = field_points
        for a in points[:6]:
            for b in points:
                assert ra_coefficients(asym, a, b) == reference_coefficients(asym, a, b)

    @settings(max_examples=100, deadline=None)
    @given(fields_and_points(), st.data())
    def test_origin_array_equal_to_pairwise(self, field_points, data):
        # one origin per target, in runs of equal origins or in any order
        asym, points = field_points
        index = st.integers(0, len(points) - 1)
        pairs = data.draw(st.lists(st.tuples(index, index), max_size=30))
        if data.draw(st.booleans()):
            pairs.sort()
        arcs = model.TravelArcs(*columns(points), asym, DmcParams())
        origins = np.array([a for a, _ in pairs], dtype=np.intp)
        k_dis, span, k_egy = arcs.row(origins, [b for _, b in pairs])
        for at, (a, b) in enumerate(pairs):
            (xa, ya), (xb, yb) = points[a], points[b]
            assert (k_dis[at], k_egy[at]) == reference_coefficients(asym, points[a], points[b])
            assert span[at] == math.hypot(xa - xb, ya - yb)

    def test_demo_table_overrides(self):
        instance = demo_instance()
        points = [instance.bs_pos, (20.0, 20.0), (80.0, 20.0), (20.0, 80.0), (80.0, 80.0)]
        points += [u.pos for u in node_rows(instance)]
        assert_matrices_match(points, instance.asym, instance.dmc)

    def test_high_seed_and_negative_coordinates(self):
        points = [(-3.5, 7.25), (-3.5, 7.25), (-3.504, 7.251), (120.0, -40.0), (0.0, 0.0)]
        for s in (2**63, 2**64 - 1, -1):
            assert_matrices_match(points, AsymmetryField(seed=s), DmcParams())

    def test_single_point(self):
        assert_matrices_match([(1.0, 2.0)], AsymmetryField(seed=3), DmcParams())


def boundary_offsets(d_max: float, psi: float, phi: float) -> list[tuple[float, float]]:
    """Node offsets on the reach circle, one ulp either side, at the apex and on both edges."""
    offsets = [(0.0, 0.0)]
    for r in (math.nextafter(d_max, 0.0), d_max, math.nextafter(d_max, math.inf)):
        offsets += [(r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)]
    for edge in (psi - phi / 2.0, psi + phi / 2.0):
        for r in (d_max / 2.0, d_max):
            offsets.append((r * math.cos(edge), r * math.sin(edge)))
    return offsets


MUTATIONS = ("non_finite", "negative", "state", "stray", "tolerance", "zero_pair", "far")


def charger_at(items, i, instance):
    """Where the charger is before item i: the 9-digit base station or the last move's end."""
    ends = [item.pos for item in items[:i] if item.state == MOVE]
    return ends[-1] if ends else model.snap9_point(instance.bs_pos)


def travel_time(a, b, instance):
    """The directed travel time from a to b, or None when either point is not on the hash grid."""
    try:
        return ra_distance(a, b, instance.asym) / instance.dmc.v_bar
    except ValidationError:
        return None


def mutate(items, kind, at, rng, instance):
    """Break, or nearly break, the schedule in place with one kind of fault."""
    i = at % (len(items) + 1)  # an insertion point, or an item when below len(items)
    dmc, asym = instance.dmc, instance.asym
    if kind == "stray":
        stop = model.snap9_point(tuple(rng.uniform(0, 200, 2)))
        items.insert(i, ScheduleItem(TRANSMIT, stop, 0.0, 1.0))
    elif kind == "zero_pair":
        # two sends at the end of a move to x = 0.0, one at x = -0.0 and one at
        # 0.0: both pass the placement check and send from that move's end
        y = float(rng.uniform(0, 200))
        t = travel_time(charger_at(items, i, instance), (0.0, y), instance)
        signs = [-0.0, 0.0][:: int(rng.choice([-1, 1]))]
        sends = [ScheduleItem(TRANSMIT, (x, y), float(rng.uniform(0, 7)), 2.0) for x in signs]
        items[i:i] = [ScheduleItem(MOVE, (0.0, y), 0.0, 1.0 if t is None else t), *sends]
    elif i < len(items):
        item = items[i]
        if kind == "non_finite":
            bad = float(rng.choice([math.nan, math.inf, -math.inf]))
            values = [*item.pos, item.psi, item.t]
            values[int(rng.integers(4))] = bad
            items[i] = item._replace(pos=tuple(values[:2]), psi=values[2], t=values[3])
        elif kind == "negative":
            items[i] = item._replace(t=float(rng.choice([-1.0, -5e-324, -0.0])))
        elif kind == "state":
            items[i] = item._replace(state=int(rng.choice([2, 7, -1])))
        elif kind == "far" and item.state == MOVE:
            items[i] = item._replace(pos=(1e17, 0.0))
        elif kind == "tolerance" and item.state == MOVE:
            # the duration the tolerance allows at most, or a step either side of it
            a, b = charger_at(items, i, instance), item.pos
            t = travel_time(a, b, instance)
            if t is None:
                return
            shift = sum(map(pipeline._rounding, (a[0], a[1], b[0], b[1])))
            k = ra_coefficients(asym, a, b)[0]
            stated = t + float(rng.choice([-1.0, 1.0])) * (
                pipeline._rounding(t) + k * shift / dmc.v_bar + math.ulp(t)
            )
            step = int(rng.integers(-1, 2))
            if step:
                stated = math.nextafter(stated, math.copysign(math.inf, step))
            items[i] = item._replace(t=stated)


def replay_outcome(replay, instance, schedule):
    """The metrics' repr, which tells -0.0 from 0.0, or the fault's class and message."""
    try:
        return repr(replay(instance, schedule))
    except (MalformedScheduleError, ValidationError) as exc:
        return type(exc), str(exc)


class TestReplay:
    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
        st.floats(min_value=0.5, max_value=40.0),
        st.integers(0, 2**32 - 1),
    )
    def test_nodes_in_range_equal_to_per_node_loop(self, pos, d_max, s):
        # 40 random offsets, most within reach: an np.hypot distance differs
        # from math.hypot in the last bit for about 1 such pair in 200
        pos = (float(pos[0]), float(pos[1]))
        spread = np.random.default_rng(s).uniform(-1.1 * d_max, 1.1 * d_max, size=(40, 2))
        offsets = boundary_offsets(d_max, 0.0, 1.0) + [tuple(o) for o in spread.tolist()]
        specs = [((pos[0] + dx, pos[1] + dy), 5.0, 20.0, 60.0) for dx, dy in offsets]
        instance = make_instance(specs, dmc=DmcParams(d_max=d_max))
        reach = reach_pairs(*columns([pos]), instance)
        got = (reach.node.tolist(), reach.theta.tolist(), reach.dist.tolist())
        assert got == reference_nodes_in_range(pos, instance)

    @settings(max_examples=120, deadline=None)
    @given(
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
        st.floats(min_value=0.5, max_value=40.0),
        st.floats(min_value=0.05, max_value=6.0),
        st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
        st.lists(point, max_size=10),
        st.integers(0, 2**64 - 1),
    )
    def test_metrics_equal_to_per_node_replay(self, stop, d_max, phi, psi, extra, s):
        stop = (float(stop[0]), float(stop[1]))
        dmc = DmcParams(d_max=d_max, phi=phi)
        specs = [
            ((stop[0] + dx, stop[1] + dy), 5.0, 20.0, 60.0)
            for dx, dy in boundary_offsets(d_max, psi, phi)
        ]
        specs += [(p, 5.0, 20.0, 60.0) for p in extra]
        instance = make_instance(specs, bs=(0.0, 0.0), dmc=dmc, asym=AsymmetryField(seed=s))
        t_move = ra_distance(instance.bs_pos, stop, instance.asym) / dmc.v_bar
        items = [
            ScheduleItem(TRANSMIT, instance.bs_pos, psi, 2.0),
            ScheduleItem(MOVE, stop, 0.0, t_move),
            ScheduleItem(TRANSMIT, stop, psi, 3.0),
            ScheduleItem(TRANSMIT, stop, psi + phi / 2.0, 1.5),
        ]
        schedule = schedule_of(tuple(items))
        assert execute_schedule(instance, schedule) == reference_execute_schedule(instance, schedule)

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
        st.floats(min_value=0.5, max_value=40.0),
        st.floats(min_value=0.05, max_value=6.0),
        st.lists(
            st.tuples(
                st.one_of(
                    st.floats(min_value=-20.0, max_value=20.0),
                    st.sampled_from([0.0, -1e-300, -math.pi, 2 * math.pi, 4 * math.pi, -2 * math.pi]),
                ),
                st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0)),
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([4.0, 3.7, 0.3]),
        st.sampled_from([4.0, 3.7]),
        coefficient_range(),
        st.integers(0, 2**32 - 1),
    )
    def test_repeated_stop_many_directions(self, stop, d_max, phi, sends, p0, w0, k_egy, s):
        # one stop charged in many directions, before and after a visit to
        # the base station, so each node sums credits from several stops;
        # a p0 or w0 other than a power of two, and energy coefficients
        # other than 1, make the product order show
        stop = (float(stop[0]), float(stop[1]))
        dmc = DmcParams(d_max=d_max, phi=phi, p0=p0, w0=w0)
        specs = [
            ((stop[0] + dx, stop[1] + dy), 5.0, 20.0, 60.0)
            for psi, _ in sends[:2]
            for dx, dy in boundary_offsets(d_max, psi, phi)
        ]
        spread = np.random.default_rng(s).uniform(-1.1 * d_max, 1.1 * d_max, size=(20, 2))
        specs += [((stop[0] + dx, stop[1] + dy), 5.0, 20.0, 60.0) for dx, dy in spread.tolist()]
        specs.append(((0.0, 0.0), 5.0, 20.0, 60.0))  # at the base station's apex
        asym = AsymmetryField(seed=s, k_egy_range=k_egy)
        instance = make_instance(specs, bs=(0.0, 0.0), dmc=dmc, asym=asym)
        bs = instance.bs_pos
        there = ra_distance(bs, stop, instance.asym) / dmc.v_bar
        back = ra_distance(stop, bs, instance.asym) / dmc.v_bar
        items = [ScheduleItem(TRANSMIT, stop, psi, t) for psi, t in sends]
        items = (
            [ScheduleItem(TRANSMIT, bs, sends[0][0], 1.0), ScheduleItem(MOVE, stop, 0.0, there)]
            + items
            + [ScheduleItem(MOVE, bs, 0.0, back), ScheduleItem(TRANSMIT, bs, -sends[-1][0], 2.0)]
            + [ScheduleItem(MOVE, stop, 0.0, there)]
            + items[::-1]
        )
        schedule = schedule_of(tuple(items))
        assert execute_schedule(instance, schedule) == reference_execute_schedule(instance, schedule)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 2**16)), min_size=1, max_size=3),
    )
    def test_mutated_schedules_equal_to_loop_replay(self, s, mutations):
        # the array checks and the array move pricing against the per-item
        # loops: the same metrics to the bit, or the same fault
        rng = np.random.default_rng(s)
        instance = generate_instance(int(rng.integers(1, 9)), seed=int(rng.integers(2**31)))
        items = list(random_schedule(rng, instance).items)
        for kind, at in mutations:
            mutate(items, kind, at, rng, instance)
        schedule = schedule_of(tuple(items))
        assert replay_outcome(execute_schedule, instance, schedule) == replay_outcome(
            loop_execute_schedule, instance, schedule
        )

    def test_schedulers_replay_equal(self):
        for seed in (3, 11):
            instance = generate_instance(60, seed=seed)
            for schedule, _ in (plan_schedule(instance, seed=seed), one_to_one_schedule(instance)):
                assert execute_schedule(instance, schedule) == reference_execute_schedule(
                    instance, schedule
                )

    def test_move_durations_are_pairwise_travel_times(self):
        instance = generate_instance(40, seed=9)
        schedule, _ = one_to_one_schedule(instance)
        here = instance.bs_pos
        for item in schedule.items:
            if item.state == MOVE:
                assert item.t == ra_distance(here, item.pos, instance.asym) / instance.dmc.v_bar
                here = item.pos


@st.composite
def matrix_cases(draw):
    """A generated instance under a drawn charger, and the positions of its cover.

    Some node positions join the cover, so some nodes sit at a sector apex.
    """
    n = draw(st.integers(1, 80))
    area = draw(st.sampled_from([50.0, 200.0, 2000.0]))
    dmc = DmcParams(
        d_max=draw(st.floats(min_value=2.0, max_value=40.0)),
        phi=draw(st.floats(min_value=0.05, max_value=6.0)),
        delta=draw(st.sampled_from([4000.0, 1.0, 37.5])),
        alpha=draw(st.sampled_from([100.0, 0.5, 3.0])),
        beta=draw(st.sampled_from([2.0, 1.7, 2.5, 3.0])),
    )
    g = generate_instance(n, seed=draw(st.integers(0, 2**32 - 1)), area=area)
    instance = NetworkInstance(g.x, g.y, g.e_b, g.e_d, g.e_c, g.bs_pos, dmc, g.asym)
    cover = select_charging_positions(instance)
    apexes = draw(st.lists(st.sampled_from(node_rows(instance)), max_size=4))
    points = cover.positions + tuple(u.pos for u in apexes)
    return instance, ChargingPositionSet(points)


def matrix_rows(matrix):
    """(position, psi, the nodes of positive entries) per row of a coefficient matrix."""
    return [
        (r.pos_index, r.psi, frozenset(np.flatnonzero(entries > 0.0).tolist()))
        for r, entries in zip(matrix.rows, matrix.entries)
    ]


class TestCoefficientMatrix:
    @settings(max_examples=60, deadline=None)
    @given(matrix_cases())
    def test_equal_to_per_node_sweep(self, case):
        instance, cover = case
        matrix = build_coefficient_matrix(cover, instance)
        rows, entries = reference_coefficient_matrix(cover, instance)
        assert matrix_rows(matrix) == rows
        assert_bitwise_equal(matrix.entries, entries)

    def test_shared_bearings_share_events(self):
        # nodes on common rays from a position give equal event angles,
        # which the sweep must merge before it samples the arcs between them
        rays = ((1, 0), (1, 1), (-3, 4))
        specs = [((r * dx, r * dy), 5.0, 20.0, 60.0) for dx, dy in rays for r in (1, 2, 3)]
        instance = make_instance(specs + [((0.0, 0.0), 5.0, 20.0, 60.0)])
        for pos in ((0.0, 0.0), (2.0, 2.0), (-6.0, 8.0)):
            cover = ChargingPositionSet((pos,))
            matrix = build_coefficient_matrix(cover, instance)
            rows, entries = reference_coefficient_matrix(cover, instance)
            assert matrix_rows(matrix) == rows
            assert_bitwise_equal(matrix.entries, entries)

    @settings(max_examples=40, deadline=None)
    @given(matrix_cases())
    def test_kernel_blocks_do_not_change_the_pairs(self, case):
        instance, cover = case
        points = list(cover.positions) + [u.pos for u in node_rows(instance)[:40]]
        runs = []
        for block in (1, 7, directions._BLOCK):
            with mock.patch.object(directions, "_BLOCK", block):
                runs.append([a.tobytes() for a in reach_pairs(*columns(points), instance)])
        assert runs[0] == runs[1] == runs[2]


def window_sizes(n: int) -> tuple[int, ...]:
    """One target, two, the default and more than there are points."""
    return (1, 2, routing._WINDOW, n + 1)


@st.composite
def scaled_arcs(draw):
    """Travel arcs over points scaled by 10**e, e from -300 to 300.

    Below offsets of about 1e-145 a squared distance falls under 1e-290,
    and above about 1e150 it passes 1e300, so windows there must fall back
    on the bounds.  The grid
    scales with the points, or at e <= 0 may stay, putting them all in one
    cell; duplicates and near neighbours share cells, and some cell pairs
    get overrides, below the ranges' lower ends too.
    """
    e = draw(st.integers(-300, 300))
    scale = 10.0**e
    g = draw(grid)
    if e > 0 or draw(st.booleans()):
        g *= scale
    base = draw(st.lists(point, min_size=1, max_size=30))
    points = base + draw(st.lists(st.sampled_from(base), max_size=6))
    for p in draw(st.lists(st.sampled_from(base), max_size=6)):
        points.append((p[0] + draw(st.floats(-0.4, 0.4)) * draw(grid), p[1]))
    points = [(x * scale, y * scale) for x, y in draw(st.permutations(points))]
    asym = AsymmetryField(draw(seed), draw(coefficient_range()), draw(coefficient_range()), g)
    try:
        cells = [asym.quantize(p) for p in points]
    except ValidationError:
        assume(False)
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(st.sampled_from(cells), st.sampled_from(cells)), max_size=8))
        hit = st.floats(0.01, 5.0)
        overrides = {pair: (draw(hit), draw(hit)) for pair in pairs}
        asym = AsymmetryField(asym.seed, asym.k_dis_range, asym.k_egy_range, g, overrides)
    return model.TravelArcs(*columns(points), asym, DmcParams(w0=draw(st.floats(0.5, 9.0))))


@st.composite
def priced_tours(draw):
    """A cost matrix of zeros and values from 1e-300 to 1e300, and a tour over it.

    Most values share one decade, so that their sums round; the tour runs
    from 0 to 0 through up to 30 points, revisits and repeated points
    included, and with none between it is the one-point tour (0, 0).
    """
    n = draw(st.integers(1, 12))
    e = draw(st.integers(-300, 299))
    decade = st.floats(10.0**e, 10.0 ** (e + 1))
    arc = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-300, 1e300), decade, decade)
    cost = np.array(draw(st.lists(arc, min_size=n * n, max_size=n * n))).reshape(n, n)
    return [0, *draw(st.lists(st.integers(0, n - 1), max_size=30)), 0], cost


class TestTourCost:
    @settings(max_examples=300, deadline=None)
    @given(priced_tours())
    def test_equal_to_running_sum(self, tour):
        order, cost = tour
        got = routing.tour_cost(order, cost)
        assert type(got) is float
        assert got.hex() == reference_tour_cost(order, cost).hex()


class TestGreedyTour:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_equal_to_set_scan(self, n, top, s):
        # costs 0..top: with top = 0 every step is a tie over all unvisited
        # points, and a window's last cost ties with points left out of it
        g = cost_graph(np.random.default_rng(s).integers(0, top + 1, (n, n)).astype(float))
        want = reference_greedy_tour(g)
        for w in window_sizes(n):
            with mock.patch.object(routing, "_WINDOW", w):
                assert greedy_tour(g) == want

    def test_window_floor_below_a_rounded_up_root(self):
        # both arcs from the base station span 5.5 m and cost 22 J, so node
        # 0 (point 1) comes first; the base station's one-point window holds
        # point 2, whose squared distance 30.25 is below point 1's
        # 30.250000000000007, and that root rounds up to 5.500000000000001
        instance = make_instance(
            [((3.3000000000000003, 4.4), 5.0, 20.0, 60.0), ((0.0, 5.5), 5.0, 20.0, 60.0)]
        )
        points = [instance.bs_pos] + [u.pos for u in node_rows(instance)]
        arcs = model.TravelArcs(*columns(points), instance.asym, instance.dmc)
        assert arcs.arc_costs(0, [1, 2]).tolist() == [22.0, 22.0]
        with mock.patch.object(routing, "_WINDOW", 1):
            assert arcs.window(1)[0][0].tolist() == [2]
            assert greedy_tour(arcs).order == (0, 1, 2, 0)

    def test_subnormal_squares_bound_nothing(self):
        # 1.87e-162 squared rounds up to the subnormal 5e-324, whose root
        # 2.22e-162 exceeds the distance, and 1.0056e-159 squared rounds up
        # by a relative 2.4e-6; the point at 1e-170 squares to 0
        asym = AsymmetryField(1, (1.0, 1.0), (1.0, 1.0))
        xs = (0.0, 1e-170, 1.87e-162, 1.0056e-159)
        arcs = model.TravelArcs(*columns([(x, 0.0) for x in xs]), asym, DmcParams())
        cost = arcs.arc_costs(0, [1, 2, 3])
        assert np.all(arcs.lower_bounds(0, [1, 2, 3]) <= cost)
        for w in (1, 2):
            targets, _, floor = arcs.window(w)
            assert targets[0].tolist() == [1, 2][:w] and floor[0] <= cost[w]

    @settings(max_examples=200, deadline=None)
    @given(scaled_arcs())
    def test_windowed_tour_equal_to_set_scan(self, arcs):
        every = np.arange(arcs.n)
        with np.errstate(over="ignore"):
            cost = np.array([arcs.arc_costs(i, every) for i in range(arcs.n)])
            assume(np.isfinite(cost).all())
            want = reference_greedy_tour(cost_graph(cost))
            for w in window_sizes(arcs.n):
                with mock.patch.object(routing, "_WINDOW", w):
                    assert greedy_tour(arcs) == want


@st.composite
def one_to_one_instances(draw):
    """Generated nodes under drawn coefficient ranges, grid, w0 and overrides.

    Areas run down to 0, where every point shares one grid cell, and through
    a few cells, where near points share cells and others do not; ranges
    reach below and above 1, the same-cell coefficient; overrides reach
    below the ranges' lower ends.
    """
    n = draw(st.integers(1, 60))
    g = draw(grid)
    area = draw(st.one_of(
        st.floats(0.0, 0.05), st.floats(0.0, 30.0).map(lambda cells: cells * g),
        st.floats(0.05, 3000.0),
    ))
    base = generate_instance(n, seed=draw(st.integers(0, 2**32 - 1)), area=area)
    asym = AsymmetryField(
        seed=draw(seed),
        k_dis_range=draw(coefficient_range()),
        k_egy_range=draw(coefficient_range()),
        grid=g,
    )
    if draw(st.booleans()):
        cells = [asym.quantize(p) for p in [base.bs_pos] + [u.pos for u in node_rows(base)]]
        pairs = draw(st.lists(st.tuples(st.sampled_from(cells), st.sampled_from(cells)), max_size=8))
        hit = st.floats(0.01, 5.0)
        overrides = {pair: (draw(hit), draw(hit)) for pair in pairs}
        asym = AsymmetryField(asym.seed, asym.k_dis_range, asym.k_egy_range, g, overrides)
    dmc = DmcParams(w0=draw(st.floats(min_value=0.5, max_value=9.0)))
    return NetworkInstance(base.x, base.y, base.e_b, base.e_d, base.e_c, base.bs_pos, dmc, asym)


def travel_arcs(instance):
    """The travel arcs of the one-to-one tour: the base station, then every node."""
    points = [instance.bs_pos] + [u.pos for u in node_rows(instance)]
    return model.TravelArcs(*columns(points), instance.asym, instance.dmc)


class TestSymmetricReformulation:
    def test_equal_to_pair_loop(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 7, 40, 100):
            for cost in (rng.uniform(0.0, 1e3, (n, n)), rng.integers(0, 3, (n, n)).astype(float)):
                g = cost_graph(cost)
                assert_bitwise_equal(to_symmetric(g).cost, reference_symmetric_cost(g))


class TestOneToOneTour:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(scaled_arcs(), one_to_one_instances().map(travel_arcs)))
    def test_lower_bounds_never_exceed_costs(self, arcs):
        # from 1e-300 to 1e300 and at ordinary scales: each bound lies under
        # its arc's cost, and each window's floor under every arc it leaves out
        n = arcs.n
        every = np.arange(n)
        with np.errstate(over="ignore"):
            cost = np.array([arcs.arc_costs(i, every) for i in range(n)])
            for i in range(n):
                assert np.all(arcs.lower_bounds(i, every) <= cost[i])
            for w in sorted({min(w, n - 1) for w in window_sizes(n)} - {0}):
                targets, _, floor = arcs.window(w)
                left_out = cost.copy()
                left_out[every[:, None], targets] = np.inf
                np.fill_diagonal(left_out, np.inf)
                assert np.all(floor <= left_out.min(axis=1))

    @settings(max_examples=120, deadline=None)
    @given(one_to_one_instances())
    def test_equal_to_full_matrix_tour(self, instance):
        schedule, _ = one_to_one_schedule(instance)
        want = reference_one_to_one_schedule(instance)
        assert schedule_to_text(schedule) == schedule_to_text(want)

    def test_lower_index_wins_an_equal_cost_tie(self):
        # node 1 has the lower bound (5 m at k_dis >= 0.5), but both first
        # arcs cost exactly 10 m of travel, so node 0 must come first
        near, far = (5.0, 0.0), (10.0, 0.0)
        asym = AsymmetryField(seed=1, k_dis_range=(0.5, 1.5), k_egy_range=(1.0, 1.0))
        bs = asym.quantize((0.0, 0.0))
        overrides = {(bs, asym.quantize(far)): (1.0, 1.0), (bs, asym.quantize(near)): (2.0, 1.0)}
        asym = AsymmetryField(1, (0.5, 1.5), (1.0, 1.0), asym.grid, overrides)
        instance = make_instance(
            [(far, 10.0, 20.0, 60.0), (near, 10.0, 20.0, 60.0)], bs=(0.0, 0.0), asym=asym
        )
        schedule, _ = one_to_one_schedule(instance)
        assert schedule.items[0].pos == far and schedule.items[0].t == 10.0
        assert schedule == reference_one_to_one_schedule(instance)

    def test_a_rival_beats_the_lowest_bound(self):
        # the 0.49 override is the lowest coefficient, so node 0 has the
        # lowest bound (4.9 m) and costs 5 m; node 1's bound of 4.949 m lies
        # within 2% of that cost, and node 1 costs exactly its 4.949 m
        first, rival = (10.0, 0.0), (0.0, 10.1)
        asym = AsymmetryField(seed=1, k_dis_range=(0.5, 1.5), k_egy_range=(1.0, 1.0))
        bs = asym.quantize((0.0, 0.0))
        overrides = {(bs, asym.quantize(first)): (0.5, 1.0), (bs, asym.quantize(rival)): (0.49, 1.0)}
        asym = AsymmetryField(1, (0.5, 1.5), (1.0, 1.0), asym.grid, overrides)
        instance = make_instance(
            [(first, 10.0, 20.0, 60.0), (rival, 10.0, 20.0, 60.0)], bs=(0.0, 0.0), asym=asym
        )
        schedule, _ = one_to_one_schedule(instance)
        assert schedule.items[0].pos == rival
        assert schedule == reference_one_to_one_schedule(instance)
