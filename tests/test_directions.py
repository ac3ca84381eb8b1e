import math
from unittest import mock

import numpy as np
import pytest

from asymcharge import MOVE, TRANSMIT, DmcParams, directions, execute_schedule, pipeline
from asymcharge.directions import build_coefficient_matrix
from asymcharge.pipeline import ScheduleItem
from asymcharge.positions import ChargingPositionSet, select_charging_positions

from conftest import make_instance
from scalar_reference import angular_distance, reference_nodes_in_range
from support import columns, reach_pairs, schedule_of

GRID_STEP = 0.001


def grid_sweep_subsets(pos, instance, step=GRID_STEP):
    """Coverage subsets sampled on a fine direction grid (oracle)."""
    ids, thetas, dists = reference_nodes_in_range(pos, instance)
    half = instance.dmc.phi / 2.0
    subsets = set()
    for psi in np.arange(0.0, 2 * math.pi, step):
        covered = frozenset(
            i
            for i, th, d in zip(ids, thetas, dists)
            if d == 0.0 or angular_distance(th, psi) <= half
        )
        if covered:
            subsets.add(covered)
    return subsets


def maximal_family(subsets):
    return {s for s in subsets if not any(s < t for t in subsets)}


def node_at(pos, e_d=20.0):
    return (pos, 10.0, e_d, 60.0)


def nodes_in_range(pos, instance):
    """Ids, bearings and distances of the nodes the kernel finds around one point."""
    reach = reach_pairs(*columns([pos]), instance)
    return reach.node.tolist(), reach.theta.tolist(), reach.dist.tolist()


def representative_directions(pos, instance):
    """The directions the coefficient matrix keeps at a one-position cover."""
    cover = ChargingPositionSet(positions=(pos,))
    return [row.psi for row in build_coefficient_matrix(cover, instance).rows]


class TestNodesInRange:
    def test_empty_when_far(self):
        instance = make_instance([node_at((100.0, 100.0))], bs=(0.0, 0.0))
        ids, _, _ = nodes_in_range((0.0, 0.0), instance)
        assert ids == []

    def test_due_east_bearing_zero(self):
        instance = make_instance([node_at((5.0, 0.0))])
        ids, thetas, dists = nodes_in_range((0.0, 0.0), instance)
        assert ids == [0]
        assert thetas[0] == 0.0
        assert dists[0] == 5.0

    def test_apex_bearing_zero(self):
        # atan2(-0.0, -0.0) is -pi: the apex gets bearing 0 whatever the signs
        instance = make_instance([node_at((-0.0, -0.0))])
        ids, thetas, dists = nodes_in_range((0.0, 0.0), instance)
        assert (ids, thetas, dists) == ([0], [0.0], [0.0])

    def test_diagonal_bearing(self):
        instance = make_instance([node_at((1.0, 1.0))])
        _, thetas, _ = nodes_in_range((0.0, 0.0), instance)
        assert thetas[0] == pytest.approx(math.pi / 4, rel=1e-12)


class TestRepresentativeDirections:
    def test_single_node_gets_its_bearing(self):
        instance = make_instance([node_at((3.0, 4.0))])
        dirs = representative_directions((0.0, 0.0), instance)
        assert len(dirs) == 1
        assert dirs[0] == pytest.approx(math.atan2(4.0, 3.0), rel=1e-9)

    def test_separation_beyond_sector_needs_two(self):
        phi = DmcParams().phi
        theta2 = phi * 1.5
        instance = make_instance(
            [node_at((5.0, 0.0)), node_at((5.0 * math.cos(theta2), 5.0 * math.sin(theta2)))]
        )
        dirs = representative_directions((0.0, 0.0), instance)
        assert len(dirs) == 2
        # oracle: no sampled direction covers both
        subsets = grid_sweep_subsets((0.0, 0.0), instance)
        assert frozenset({0, 1}) not in subsets

    def test_separation_within_sector_needs_one(self):
        phi = DmcParams().phi
        theta2 = phi * 0.5
        instance = make_instance(
            [node_at((5.0, 0.0)), node_at((5.0 * math.cos(theta2), 5.0 * math.sin(theta2)))]
        )
        dirs = representative_directions((0.0, 0.0), instance)
        assert len(dirs) == 1
        subsets = grid_sweep_subsets((0.0, 0.0), instance)
        assert frozenset({0, 1}) in subsets

    def test_no_nodes_in_range_empty(self):
        instance = make_instance([node_at((500.0, 0.0))])
        assert representative_directions((0.0, 0.0), instance) == []

    def test_apex_only_single_direction(self):
        instance = make_instance([node_at((2.0, 2.0))])
        assert representative_directions((2.0, 2.0), instance) == [0.0]

    def test_sorted_ascending(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-15, 15, size=(8, 2))
        instance = make_instance([node_at((float(x), float(y))) for x, y in pts])
        dirs = representative_directions((0.0, 0.0), instance)
        assert dirs == sorted(dirs)

    def _coverage(self, psi, pos, instance):
        ids, thetas, dists = reference_nodes_in_range(pos, instance)
        half = instance.dmc.phi / 2.0
        return frozenset(
            i for i, th, d in zip(ids, thetas, dists) if d == 0.0 or angular_distance(th, psi) <= half
        )

    def test_grid_subsets_dominated_and_union_complete(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = int(rng.integers(1, 9))
            pts = rng.uniform(-15, 15, size=(m, 2))
            instance = make_instance([node_at((float(x), float(y))) for x, y in pts])
            pos = (0.0, 0.0)
            dirs = representative_directions(pos, instance)
            rep_subsets = [self._coverage(psi, pos, instance) for psi in dirs]
            # every grid subset is dominated by some representative
            for s in grid_sweep_subsets(pos, instance):
                assert any(s <= r for r in rep_subsets)
            # no representative dominated by another
            for i, s in enumerate(rep_subsets):
                assert not any(s < t for j, t in enumerate(rep_subsets) if j != i)
            # union over directions covers everything in range
            ids, _, _ = reference_nodes_in_range(pos, instance)
            union = frozenset().union(*rep_subsets) if rep_subsets else frozenset()
            assert union == frozenset(ids)


class TestCoefficientMatrix:
    def test_single_node_single_row(self):
        instance = make_instance([node_at((5.0, 0.0))])
        cover = ChargingPositionSet(positions=((0.0, 0.0),))
        matrix = build_coefficient_matrix(cover, instance)
        assert matrix.entries.shape == (1, 1)
        assert matrix.entries[0, 0] == pytest.approx(0.362811791, abs=1e-9)
        assert (matrix.rows[0].pos_index, matrix.rows[0].psi) == (0, 0.0)

    def test_uncovered_entry_is_zero(self):
        # node 1, at 3 phi, lies outside the sector that covers node 0 and
        # node 0 outside the one that covers node 1: an entry is positive
        # exactly where the node's bearing lies within phi / 2 of the row's
        phi = DmcParams().phi
        thetas = (0.0, phi * 3.0)
        instance = make_instance([node_at((5.0 * math.cos(a), 5.0 * math.sin(a))) for a in thetas])
        cover = ChargingPositionSet(positions=((0.0, 0.0),))
        matrix = build_coefficient_matrix(cover, instance)
        assert len(matrix.rows) == 2
        for row, entries in zip(matrix.rows, matrix.entries):
            for theta, entry in zip(thetas, entries.tolist()):
                assert (entry > 0.0) == (angular_distance(theta, row.psi) <= phi / 2.0)
            assert entries.tolist().count(0.0) == 1

    def test_rows_sorted_and_deterministic(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 60, size=(12, 2))
        instance = make_instance(
            [node_at((float(x), float(y))) for x, y in pts], bs=(30.0, 30.0)
        )
        cover = select_charging_positions(instance)
        m1 = build_coefficient_matrix(cover, instance)
        m2 = build_coefficient_matrix(cover, instance)
        assert m1.rows == m2.rows
        assert np.array_equal(m1.entries, m2.entries)
        order = [(r.pos_index, r.psi) for r in m1.rows]
        assert order == sorted(order)

    def test_entries_bounded(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 60, size=(10, 2))
        instance = make_instance(
            [node_at((float(x), float(y))) for x, y in pts], bs=(30.0, 30.0)
        )
        matrix = build_coefficient_matrix(select_charging_positions(instance), instance)
        apex = instance.dmc.apex_coefficient
        assert np.all(matrix.entries >= 0.0)
        assert np.all(matrix.entries <= apex + 1e-12)

    def test_one_kernel_call_per_matrix_and_replay(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(0, 80, size=(30, 2))
        instance = make_instance(
            [node_at((float(x), float(y))) for x, y in pts], bs=(40.0, 40.0)
        )
        cover = select_charging_positions(instance)
        assert len(cover.positions) > 1
        with (
            mock.patch.object(directions, "near_pairs", wraps=directions.near_pairs) as near,
            mock.patch.object(directions, "coverage_math", wraps=directions.coverage_math) as exact,
        ):
            build_coefficient_matrix(cover, instance)
        assert near.call_count == exact.call_count == 1
        px, py = near.call_args.args[:2]
        assert list(zip(px.tolist(), py.tolist())) == list(cover.positions)
        # the stops repeat: the replay searches each distinct one once
        stop = [instance.x[0].item(), instance.y[0].item()]  # node 0, as the instance holds it
        items = [ScheduleItem(TRANSMIT, instance.bs_pos, psi, 1.0) for psi in (0.0, 2.0)]
        items.append(ScheduleItem(MOVE, tuple(stop), 0.0, math.dist(instance.bs_pos, stop)))
        items += [ScheduleItem(TRANSMIT, tuple(stop), psi, 1.0) for psi in (0.0, 2.0, -1.0)]
        # and runs the exact stage once, on the pairs some sector may cover
        with (
            mock.patch.object(pipeline, "near_pairs", wraps=pipeline.near_pairs) as near,
            mock.patch.object(pipeline, "coverage_math", wraps=pipeline.coverage_math) as exact,
        ):
            execute_schedule(instance, schedule_of(tuple(items)))
            assert near.call_count == exact.call_count == 1
            px, py = near.call_args.args[:2]
            assert list(zip(px.tolist(), py.tolist())) == [instance.bs_pos, tuple(stop)]
            execute_schedule(instance, schedule_of(tuple(items[2:3])))
        assert near.call_count == exact.call_count == 1  # no transmissions, no search
