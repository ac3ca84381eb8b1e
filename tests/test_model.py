import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcharge import (
    MOVE,
    TRANSMIT,
    AsymmetryField,
    DmcParams,
    NetworkInstance,
    ValidationError,
    execute_schedule,
)
from asymcharge.model import build_routing_matrices
from asymcharge.pipeline import ScheduleItem
from asymcharge import model
from asymcharge.errors import MalformedTourError

from conftest import make_instance, neutral_field
from scalar_reference import (
    angular_distance,
    normalize_angle,
    reference_check_nodes,
    transfer_coefficient,
)
from support import (
    Node,
    instance_of,
    ra_coefficients,
    ra_distance,
    received_energy,
    schedule_of,
    segment_move_energy_time,
    tour_move_energy_time,
)

APEX = 4000.0 / 100.0**2  # transfer coefficient at zero distance


class TestAsymmetryField:
    def test_self_pair_is_neutral(self):
        asym = AsymmetryField(seed=42)
        assert ra_coefficients(asym, (3.0, 4.0), (3.0, 4.0)) == (1.0, 1.0)

    def test_degenerate_range_pins_coefficient(self):
        asym = AsymmetryField(seed=42, k_dis_range=(1.0, 1.0))
        k_dis, _ = ra_coefficients(asym, (0.0, 0.0), (10.0, 0.0))
        assert k_dis == 1.0

    def test_deterministic_across_calls(self):
        asym = AsymmetryField(seed=42)
        a, b = (1.25, -7.5), (19.0, 3.125)
        assert ra_coefficients(asym, a, b) == ra_coefficients(asym, a, b)

    def test_values_inside_ranges(self):
        asym = AsymmetryField(seed=7, k_dis_range=(0.5, 1.5), k_egy_range=(0.8, 1.2))
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = tuple(rng.uniform(0, 200, 2))
            b = tuple(rng.uniform(0, 200, 2))
            k_dis, k_egy = ra_coefficients(asym, a, b)
            assert 0.5 <= k_dis <= 1.5
            assert 0.8 <= k_egy <= 1.2

    def test_an_asymmetric_pair_exists_with_defaults(self):
        asym = AsymmetryField(seed=0)
        found = any(
            ra_distance((0.0, 0.0), (float(i), 1.0), asym)
            != ra_distance((float(i), 1.0), (0.0, 0.0), asym)
            for i in range(1, 20)
        )
        assert found

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValidationError):
            AsymmetryField(seed=0, k_dis_range=(1.5, 0.5))
        with pytest.raises(ValidationError):
            AsymmetryField(seed=0, k_dis_range=(0.0, 1.0))

    @pytest.mark.parametrize("hit", [(-0.5, 1.0), (1.0, -1e-300), (math.nan, 1.0), (1.0, math.inf)])
    def test_bad_overrides_rejected(self, hit):
        with pytest.raises(ValidationError):
            AsymmetryField(seed=0, overrides={((0, 0), (1, 0)): hit})

    @pytest.mark.parametrize("p", [(1e17, 0.0), (0.0, -1e17), (9.3e16, 5.0), (1e308, 1e308)])
    def test_cell_outside_int64_rejected(self, p):
        # the hash key packs each cell as two signed 64-bit ints
        field = AsymmetryField(seed=0)
        with pytest.raises(ValidationError):
            field.quantize(p)
        with pytest.raises(ValidationError):
            ra_coefficients(field, (0.0, 0.0), p)
        with pytest.raises(ValidationError):
            build_routing_matrices([(0.0, 0.0), p], field, DmcParams())

    def test_cells_at_int64_ends_accepted(self):
        field = AsymmetryField(seed=0, grid=1.0)
        assert field.quantize((2.0**63 - 1024.0, -(2.0**63))) == (2**63 - 1024, -(2**63))
        assert AsymmetryField(seed=0, grid=1e-300).quantize((0.0, 1e-290)) == (0, 10**10)


class TestRaDistance:
    def test_identity_coefficient(self):
        assert ra_distance((0.0, 0.0), (10.0, 0.0), neutral_field()) == 10.0

    def test_scaled_coefficient(self):
        asym = AsymmetryField(seed=0, k_dis_range=(1.5, 1.5))
        assert ra_distance((0.0, 0.0), (10.0, 0.0), asym) == pytest.approx(15.0, rel=1e-12)

    def test_zero_for_same_point(self):
        assert ra_distance((5.0, 5.0), (5.0, 5.0), AsymmetryField(seed=1)) == 0.0


class TestSegmentMove:
    def test_table_constants(self, dmc):
        energy, time = segment_move_energy_time((0.0, 0.0), (10.0, 0.0), neutral_field(), dmc)
        assert energy == pytest.approx(40.0, rel=1e-12)
        assert time == pytest.approx(10.0, rel=1e-12)

    def test_zero_segment(self, dmc):
        assert segment_move_energy_time((1.0, 1.0), (1.0, 1.0), neutral_field(), dmc) == (0.0, 0.0)

    def test_energy_rate_coefficient(self, dmc):
        asym = AsymmetryField(seed=0, k_dis_range=(1.0, 1.0), k_egy_range=(1.5, 1.5))
        energy, _ = segment_move_energy_time((0.0, 0.0), (10.0, 0.0), asym, dmc)
        assert energy == pytest.approx(60.0, rel=1e-12)


class TestTourMove:
    def test_stay_at_base(self, dmc):
        mats = build_routing_matrices([(0.0, 0.0), (3.0, 0.0)], neutral_field(), dmc)
        assert tour_move_energy_time([0, 0], mats, dmc) == (0.0, 0.0)

    def test_additivity(self, dmc):
        mats = build_routing_matrices([(0.0, 0.0), (1.0, 0.0)], neutral_field(), dmc)
        # segments of 1 m at 4 J/m, out and back
        energy, time = tour_move_energy_time([0, 1, 0], mats, dmc)
        assert energy == pytest.approx(8.0)
        assert time == pytest.approx(2.0)

    def test_matches_per_segment_oracle(self, dmc):
        asym = AsymmetryField(seed=5)
        points = [(0.0, 0.0), (12.0, 3.0), (7.0, -4.0), (2.0, 9.0)]
        mats = build_routing_matrices(points, asym, dmc)
        tour = [0, 2, 1, 3, 0]
        energy, time = tour_move_energy_time(tour, mats, dmc)
        want_e = 0.0
        want_t = 0.0
        for a, b in zip(tour, tour[1:]):
            e, t = segment_move_energy_time(points[a], points[b], asym, dmc)
            want_e += e
            want_t += t
        assert energy == pytest.approx(want_e, rel=1e-12)
        assert time == pytest.approx(want_t, rel=1e-12)

    def test_malformed_tours(self, dmc):
        mats = build_routing_matrices([(0.0, 0.0), (1.0, 0.0)], neutral_field(), dmc)
        with pytest.raises(MalformedTourError):
            tour_move_energy_time([0], mats, dmc)
        with pytest.raises(MalformedTourError):
            tour_move_energy_time([0, 1], mats, dmc)


class TestTransferCoefficient:
    def test_on_axis_value(self, dmc):
        c = transfer_coefficient(0.0, dmc.phi, 0.0, 5.0, dmc)
        assert c == pytest.approx(4000.0 / 105.0**2, rel=1e-12)
        assert c == pytest.approx(0.362811791, abs=1e-9)

    def test_beyond_range_is_zero(self, dmc):
        assert transfer_coefficient(0.0, dmc.phi, 0.0, 25.0, dmc) == 0.0

    def test_boundary_is_inclusive(self, dmc):
        c = transfer_coefficient(0.0, dmc.phi, dmc.phi / 2.0, 5.0, dmc)
        assert c == pytest.approx(4000.0 / 105.0**2, rel=1e-12)
        assert transfer_coefficient(0.0, dmc.phi, np.nextafter(dmc.phi / 2.0, 4.0), 5.0, dmc) == 0.0

    def test_apex_covered_from_any_direction(self, dmc):
        for psi in (0.0, 1.0, 3.0, 6.0):
            assert transfer_coefficient(psi, dmc.phi, 2.5, 0.0, dmc) == pytest.approx(APEX)

    @given(
        psi=st.floats(0, 2 * math.pi - 1e-9),
        theta=st.floats(0, 2 * math.pi - 1e-9),
        d=st.floats(0, 40.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_gated(self, psi, theta, d):
        dmc = DmcParams()
        c = transfer_coefficient(psi, dmc.phi, theta, d, dmc)
        assert 0.0 <= c <= APEX
        if d > dmc.d_max:
            assert c == 0.0


class TestReceivedEnergy:
    def test_zero_times(self):
        entries = np.array([[0.4, 0.0], [0.1, 0.2]])
        assert np.all(received_energy(entries, np.zeros(2), 4.0) == 0.0)

    def test_single_pair(self):
        got = received_energy(np.array([[0.4]]), np.array([10.0]), 4.0)
        assert got[0] == pytest.approx(16.0, rel=1e-12)

    def test_two_pairs_sum(self):
        entries = np.array([[0.5], [0.7]])
        got = received_energy(entries, np.array([2.5, 2.5]), 4.0)
        assert got[0] == pytest.approx(5.0 + 7.0, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            received_energy(np.ones((2, 3)), np.ones(3), 4.0)

    @given(
        a=st.floats(0, 5),
        b=st.floats(0, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_linear_in_time(self, a, b):
        entries = np.array([[0.3, 0.0, 0.2], [0.1, 0.4, 0.0]])
        t1 = np.array([1.0, 2.0])
        t2 = np.array([3.0, 0.5])
        lhs = received_energy(entries, a * t1 + b * t2, 4.0)
        rhs = a * received_energy(entries, t1, 4.0) + b * received_energy(entries, t2, 4.0)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


def replay(node_specs, items, **dmc):
    """The metrics of a hand-built schedule over nodes around a base station at the origin.

    A transmission from the origin reaches a node there at the apex
    coefficient; ``delta=5000`` makes that 0.5.
    """
    instance = make_instance(node_specs, dmc=DmcParams(**dmc))
    return execute_schedule(instance, schedule_of(items))


def send(t, pos=(0.0, 0.0)):
    return ScheduleItem(TRANSMIT, pos, 0.0, t)


class TestFinalNodeEnergy:
    def test_below_capacity(self):
        # 0.5 of 4 W for 10 s: 10 J + 20 J stays under 60 J
        metrics = replay([((0.0, 0.0), 10.0, 20.0, 60.0)], [send(10.0)], delta=5000.0)
        assert metrics.received_total == 20.0
        assert metrics.feasible

    def test_capacity_clamp(self):
        # 50 J + 20 J is clipped to 60 J: 10 J banked, the rest is loss
        metrics = replay([((0.0, 0.0), 50.0, 10.0, 60.0)], [send(10.0)], delta=5000.0)
        assert metrics.received_total == 10.0
        assert metrics.charging_energy_loss == 30.0
        assert metrics.feasible

    def test_no_received(self):
        # a node beyond d_max gains nothing: all that is sent is lost
        metrics = replay([((100.0, 0.0), 7.0, 0.0, 60.0)], [send(5.0)])
        assert metrics.received_total == 0.0
        assert metrics.charging_energy_loss == metrics.total_energy_loss == 20.0

    def test_length_mismatch(self):
        # node columns of unequal length never reach a replay
        with pytest.raises(ValidationError):
            NetworkInstance([0.0], [0.0], [1.0], [1.0, 2.0], [3.0], (0.0, 0.0), DmcParams(),
                            neutral_field())


class TestEnergyAccounting:
    def test_all_zero(self):
        metrics = replay([((5.0, 0.0), 10.0, 0.0, 60.0)], [])
        assert metrics.total_energy_loss == metrics.charging_energy_loss == 0.0
        assert metrics.received_total == metrics.movement_energy == 0.0
        assert metrics.feasible

    def test_single_pair_example(self):
        # one pair at coefficient 0.5 transmitting 10 s at 4 W
        metrics = replay([((0.0, 0.0), 10.0, 20.0, 60.0)], [send(10.0)], delta=5000.0)
        assert metrics.charging_time * 4.0 == pytest.approx(40.0, rel=1e-12)
        assert metrics.received_total == pytest.approx(20.0, rel=1e-12)
        assert metrics.charging_energy_loss == pytest.approx(20.0, rel=1e-12)
        assert metrics.total_energy_loss == metrics.charging_energy_loss

    def test_battery_deficit_flag(self):
        # the node's demand is met, but 400 J sent empties a 10 J battery
        metrics = replay([((0.0, 0.0), 0.0, 0.0, 60.0)], [send(100.0)], e_b0=10.0)
        assert metrics.feasible is False
        assert replay([((0.0, 0.0), 0.0, 0.0, 60.0)], [send(100.0)]).feasible is True

    def test_conservation_identity_random(self, dmc):
        # the nodes' bank is summed here from each node's own credits,
        # clipped once at its capacity; what the charger and the nodes hold
        # before, less what they hold after, is the total loss
        rng = np.random.default_rng(17)
        clipped = 0
        for _ in range(100):
            n = int(rng.integers(1, 8))
            xy = rng.uniform(-15.0, 15.0, (n, 2))
            e_b = rng.uniform(6, 36, n)
            e_c = rng.uniform(60, 90, n)
            specs = [((x, y), b, 0.0, c) for (x, y), b, c in zip(xy.tolist(), e_b, e_c)]
            stop = (float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-5.0, 5.0)))
            out = math.hypot(*stop)
            items = [ScheduleItem(MOVE, stop, 0.0, out / dmc.v_bar)]
            items += [
                ScheduleItem(TRANSMIT, stop, float(psi), float(t))
                for psi, t in zip(rng.uniform(0, 2 * math.pi, 3), rng.uniform(0, 30, 3))
            ]
            items.append(ScheduleItem(MOVE, (0.0, 0.0), 0.0, out / dmc.v_bar))
            instance = make_instance(specs)
            schedule = schedule_of(items)
            metrics = execute_schedule(instance, schedule)
            raw = np.zeros(n)
            for item in schedule.items[1:-1]:
                for u in range(n):
                    dx, dy = instance.x[u] - item.pos[0], instance.y[u] - item.pos[1]
                    d = math.hypot(dx, dy)
                    theta = normalize_angle(math.atan2(dy, dx)) if d > 0 else 0.0
                    raw[u] += dmc.p0 * item.t * transfer_coefficient(item.psi, dmc.phi, theta, d, dmc)
            banked = float(np.sum(np.minimum(instance.e_b + raw, instance.e_c) - instance.e_b))
            clipped += bool(np.any(instance.e_b + raw > instance.e_c))
            assert metrics.received_total == pytest.approx(banked, rel=1e-9, abs=1e-9)
            assert metrics.movement_energy == pytest.approx(2 * out * dmc.w0, rel=1e-12)
            before = dmc.e_b0 + instance.e_b.sum()
            e_f0 = dmc.e_b0 - dmc.p0 * metrics.charging_time - metrics.movement_energy
            after = e_f0 + instance.e_b.sum() + banked
            assert before - after == pytest.approx(metrics.total_energy_loss, rel=1e-9, abs=1e-9)
        assert clipped  # some node's credits pass its capacity


class TestAngles:
    def test_normalize_range(self):
        for a in (-10.0, -1e-17, 0.0, 1.0, 2 * math.pi, 7.5, 100.0):
            got = normalize_angle(a)
            assert 0.0 <= got < 2 * math.pi

    def test_angular_distance_symmetric_and_bounded(self):
        assert angular_distance(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2, rel=1e-9)
        assert angular_distance(1.0, 4.0) == angular_distance(4.0, 1.0)


def _one_node_instance(node: Node) -> NetworkInstance:
    return instance_of((node,), (0.0, 0.0), DmcParams(), AsymmetryField(seed=0))


class TestNodeValidation:
    def test_rejects_over_capacity(self):
        with pytest.raises(ValidationError):
            _one_node_instance(Node(0, (0.0, 0.0), e_b=50.0, e_d=20.0, e_c=60.0))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            _one_node_instance(Node(0, (0.0, 0.0), e_b=-1.0, e_d=0.0, e_c=60.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError):
            _one_node_instance(Node(0, (bad, 1.0), 10.0, 20.0, 60.0))
        with pytest.raises(ValidationError):
            _one_node_instance(Node(0, (1.0, 1.0), bad, 20.0, 60.0))
        with pytest.raises(ValidationError):
            _one_node_instance(Node(0, (1.0, 1.0), 10.0, 20.0, bad))


# values a faulty node may hold: non-finite, negative, zero or too large for its capacity
_NODE_FAULTS = [math.nan, math.inf, -math.inf, -1.0, -5e-324, 0.0, -0.0, 5e-324, 100.0, 1e308, 1.7e308]


def _raised(check, columns) -> str | None:
    try:
        check(*columns)
    except ValidationError as exc:
        return str(exc)
    return None


class TestNodeChecks:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        faults=st.lists(
            st.tuples(st.integers(0, 29), st.integers(0, 4), st.sampled_from(_NODE_FAULTS)),
            max_size=5,
        ),
    )
    def test_fault_equal_to_node_by_node_checks(self, n, seed, faults):
        rng = np.random.default_rng(seed)
        e_c = rng.uniform(60.0, 90.0, n)
        e_b = rng.uniform(0.0, 30.0, n)
        columns = [rng.uniform(0.0, 200.0, n), rng.uniform(0.0, 200.0, n), e_b,
                   (e_c - e_b) * rng.uniform(0.0, 1.0, n), e_c]
        for node, column, value in faults:
            columns[column][node % n] = value
        want = _raised(reference_check_nodes, columns)
        assert _raised(model.check_nodes, columns) == want
        bs, dmc, asym = (0.0, 0.0), DmcParams(), AsymmetryField(seed=0)
        assert _raised(lambda *c: NetworkInstance(*c, bs, dmc, asym), columns) == want

    def test_lowest_node_and_first_check_named(self):
        columns = [np.zeros(4), np.zeros(4), np.full(4, 10.0), np.full(4, 20.0), np.full(4, 60.0)]
        columns[4][3] = math.nan
        columns[3][2] = 55.0
        columns[2][1] = -1.0
        columns[4][1] = 0.0
        with pytest.raises(ValidationError, match=r"^node 1: energies must be nonnegative$"):
            model.check_nodes(*columns)
        columns[2][1] = 10.0
        with pytest.raises(ValidationError, match=r"^node 1: capacity must be positive$"):
            model.check_nodes(*columns)
        columns[4][1] = 60.0
        with pytest.raises(
            ValidationError,
            match=r"^node 2: initial energy \+ demand exceeds capacity \(10\.0 \+ 55\.0 > 60\.0\)$",
        ):
            model.check_nodes(*columns)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["p0", "d_max", "phi", "v_bar", "beta"])
    def test_dmc_rejects(self, name, bad):
        with pytest.raises(ValidationError):
            DmcParams(**{name: bad})

    @pytest.mark.parametrize("params", [{"p0": 5e-324}, {"p0": 1e-200, "delta": 1e-120}])
    def test_dmc_rejects_received_power_that_underflows(self, params):
        # p0 times the coefficient at d_max rounds to 0, so no transmission
        # time is long enough; a smaller p0 that stays positive is kept
        with pytest.raises(ValidationError, match="p0 times the transfer coefficient"):
            DmcParams(**params)
        assert DmcParams(p0=1e-300).p0 == 1e-300

    def test_parameters_hold_the_file_digits(self):
        # what an instance file stores, so a written plan replays the same
        assert DmcParams().phi == 0.785398163
        assert DmcParams(v_bar=1.474609375).v_bar == 1.47460938
        field = AsymmetryField(seed=0, k_dis_range=(1 / 3, 2 / 3), grid=0.1 + 0.2)
        assert field.k_dis_range == (0.333333333, 0.666666667)
        assert field.grid == 0.3
        with pytest.raises(TypeError):
            DmcParams(p0="4")
        with pytest.raises(TypeError):
            AsymmetryField(seed=0, grid="1")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_field_rejects(self, bad):
        with pytest.raises(ValidationError):
            AsymmetryField(seed=0, grid=bad)
        with pytest.raises(ValidationError):
            AsymmetryField(seed=0, k_dis_range=(0.5, bad))
        with pytest.raises(ValidationError):
            AsymmetryField(seed=0, k_egy_range=(bad, 1.0))

    def test_instance_rejects_non_finite_base_station(self):
        node = Node(0, (1.0, 1.0), 10.0, 20.0, 60.0)
        with pytest.raises(ValidationError):
            instance_of((node,), (math.nan, 0.0), DmcParams(), AsymmetryField(seed=0))


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _edge_values() -> list[float]:
    """Powers of ten and 9-digit decimals next to them, each with the doubles
    one ulp either side, from the subnormals to the largest double."""
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308]
    values.append(1.7976931348623157e308)
    for k in range(-330, 309):
        for digits in ("1", "0.999999999", "1.00000001", "9.99999999", "1.23456789"):
            x = float(f"{digits}e{k}")
            values += [x, -x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    return values


_EDGES = _edge_values()


class TestSnap9Array:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from(_EDGES),
                st.builds(
                    lambda m, e: float(f"{m}e{e}"),
                    st.integers(-999_999_999, 999_999_999),
                    st.integers(-340, 300),
                ),
            ),
            max_size=40,
        )
    )
    def test_equal_to_snap9_bit_for_bit(self, values):
        assert _bits(model.snap9_array(np.array(values))) == _bits([model.snap9(v) for v in values])

    def test_edges_equal_to_snap9_bit_for_bit(self):
        assert _bits(model.snap9_array(np.array(_EDGES))) == _bits([model.snap9(v) for v in _EDGES])


class TestLedgerVectors:
    def test_built_once_and_read_only(self):
        x = [0.0, 1.0, 2.0]
        instance = NetworkInstance(
            x, [0.0] * 3, [1.0, 2.0, 3.0], [2.0] * 3, [60.0] * 3,
            (0.0, 0.0), DmcParams(), AsymmetryField(seed=0),
        )
        for vector, want in (
            (instance.e_b, [1.0, 2.0, 3.0]),
            (instance.e_d, [2.0, 2.0, 2.0]),
            (instance.e_c, [60.0, 60.0, 60.0]),
        ):
            assert vector.tolist() == want
            with pytest.raises(ValueError):
                vector[0] = 0.0

    def test_caller_arrays_stay_the_callers(self):
        # the instance freezes copies: the caller's arrays stay writable,
        # and writing to them leaves the instance's columns as they were
        given = [np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.array([1.0, 2.0]),
                 np.array([2.0, 2.0]), np.array([60.0, 60.0])]
        instance = NetworkInstance(*given, (0.0, 0.0), DmcParams(), AsymmetryField(seed=0))
        for column in given:
            column[0] = 5.0
        assert instance.x.tolist() == [0.0, 1.0]
        assert instance.e_b.tolist() == [1.0, 2.0]
        assert instance.e_c.tolist() == [60.0, 60.0]
