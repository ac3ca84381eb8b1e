"""The row-wise matrix build, the prefiltered reach test and the replay against scalar loops.

Every comparison is exact: matrices by their bytes, metrics with ``==``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcharge import (
    MOVE,
    TRANSMIT,
    AsymmetryField,
    DmcParams,
    OperationSchedule,
    ScheduleItem,
    build_routing_matrices,
    execute_schedule,
    nodes_in_range,
    one_to_one_schedule,
    plan_schedule,
)
from asymcharge.cli import demo_instance, generate_instance
from asymcharge.model import ra_coefficients

from conftest import make_instance
from scalar_reference import (
    reference_coefficients,
    reference_execute_schedule,
    reference_nodes_in_range,
    reference_routing_matrices,
)
from support import ra_distance

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
    dist, rate = reference_routing_matrices(points, asym, dmc)
    assert_bitwise_equal(mats.dist, dist)
    assert_bitwise_equal(mats.egy_rate, rate)


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

    def test_demo_table_overrides(self):
        instance = demo_instance()
        points = [instance.bs_pos, (20.0, 20.0), (80.0, 20.0), (20.0, 80.0), (80.0, 80.0)]
        points += [u.pos for u in instance.nodes]
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
        assert nodes_in_range(pos, instance) == reference_nodes_in_range(pos, instance)

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
        schedule = OperationSchedule(tuple(items))
        assert execute_schedule(instance, schedule) == reference_execute_schedule(instance, schedule)

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
