"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every expected value is
computed by an oracle that is independent of the code path it checks
(closed-form accounting, grid sweeps, vertex enumeration, factorial search).
"""

import itertools
import math
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from asymcharge import (
    MOVE,
    TRANSMIT,
    AsymmetryField,
    DmcParams,
    execute_schedule,
    one_to_one_schedule,
    plan_schedule,
)
from asymcharge.directions import build_coefficient_matrix
from asymcharge.pipeline import ScheduleItem
from asymcharge.positions import (
    ChargingPositionSet,
    min_enclosing_circle,
    select_charging_positions,
)
from asymcharge.routing import cost_graph, held_karp, lk_tour, metric_closure, to_symmetric
from asymcharge.timing import LpProblem, solve_lp
from asymcharge.cli import generate_instance
from asymcharge.model import build_routing_matrices, snap9_point

from conftest import subprocess_env
from scalar_reference import (
    angular_distance,
    normalize_angle,
    reference_nodes_in_range,
    transfer_coefficient,
)
from support import (
    brute_force_tour,
    kmeans,
    node_rows,
    ra_distance,
    schedule_of,
    segment_move_energy_time,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def random_closed_graph(rng, n):
    x, y = rng.uniform(0, 200, size=(n, 2)).T
    asym = AsymmetryField(seed=int(rng.integers(2**31)))
    mats = build_routing_matrices(x, y, asym, DmcParams())
    return metric_closure(cost_graph(mats.cost))


# -- criterion 1 -------------------------------------------------------------


def random_schedule(rng, instance):
    """A well-formed random itinerary: seeded wandering plus transmissions."""
    items = []
    here = instance.bs_pos
    for _ in range(int(rng.integers(0, 6))):
        if rng.random() < 0.5:
            target = snap9_point(tuple(rng.uniform(0, 200, 2)))
            t = ra_distance(here, target, instance.asym) / instance.dmc.v_bar
            items.append(ScheduleItem(MOVE, target, 0.0, t))
            here = target
        else:
            psi = float(rng.uniform(0, 2 * math.pi))
            items.append(ScheduleItem(TRANSMIT, here, psi, float(rng.uniform(0, 30))))
    return schedule_of(tuple(items))


def test_criterion_1_energy_conservation():
    with criterion(1, "energy conservation on random schedules"):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            instance = generate_instance(int(rng.integers(1, 9)), seed=int(rng.integers(2**31)))
            schedule = random_schedule(rng, instance)
            metrics = execute_schedule(instance, schedule)
            # independent replay of the itinerary with the closed-form models
            here = instance.bs_pos
            move = 0.0
            tran = 0.0
            raw = np.zeros(instance.n)
            for item in schedule.items:
                if item.state == MOVE:
                    e, _ = segment_move_energy_time(here, item.pos, instance.asym, instance.dmc)
                    move += e
                    here = item.pos
                else:
                    tran += item.t
                    for u in node_rows(instance):
                        d = math.dist(u.pos, item.pos)
                        if d > instance.dmc.d_max:
                            continue
                        th = normalize_angle(math.atan2(u.pos[1] - item.pos[1], u.pos[0] - item.pos[0])) if d else 0.0
                        raw[u.id] += instance.dmc.p0 * transfer_coefficient(
                            item.psi, instance.dmc.phi, th, d, instance.dmc
                        ) * item.t
            e_b = instance.e_b
            e_f = np.minimum(e_b + raw, instance.e_c)
            e_f0 = instance.dmc.e_b0 - instance.dmc.p0 * tran - move
            e_tb = instance.dmc.e_b0 + e_b.sum()
            e_tf = e_f0 + e_f.sum()
            scale = max(1.0, abs(e_tb - e_tf))
            assert abs((e_tb - e_tf) - metrics.total_energy_loss) <= 1e-9 * scale


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_coverage_validity_and_minimality():
    with criterion(2, "position cover validity and procedure minimality"):
        rng = np.random.default_rng(202)
        n_choices = list(range(50, 451, 50))
        for i in range(200):
            n = n_choices[i % len(n_choices)]
            instance = generate_instance(n, seed=int(rng.integers(2**31)))
            cover = select_charging_positions(instance)
            d_max = instance.dmc.d_max
            # every node lies within d_max of some position
            px, py = cover.positions.T
            reach = np.hypot(instance.x[:, None] - px, instance.y[:, None] - py).min(axis=1)
            assert (reach <= d_max + 1e-9).all()
            k = len(cover.positions)
            if k > 1:
                points = [u.pos for u in node_rows(instance)]
                smaller = kmeans(points, k - 1, seed=instance.asym.seed)
                assert any(
                    min_enclosing_circle([points[i] for i in ids])[1] > d_max for ids in smaller
                )


# -- criterion 3 -------------------------------------------------------------


def _sweep_events(pos, instance):
    ids, thetas, dists = reference_nodes_in_range(pos, instance)
    half = instance.dmc.phi / 2.0
    events = sorted(
        {normalize_angle(th + s * half) for th, d in zip(thetas, dists) if d > 0 for s in (-1.0, 1.0)}
    )
    return ids, events


def _min_event_gap(events):
    if len(events) < 2:
        return math.inf
    gaps = [b - a for a, b in zip(events, events[1:])]
    gaps.append(events[0] + 2 * math.pi - events[-1])
    return min(gaps)


def test_criterion_3_direction_set_equivalence():
    with criterion(3, "direction family equals fine-grid sweep family"):
        rng = np.random.default_rng(303)
        grid = np.arange(0.0, 2 * math.pi, 0.001)
        accepted = 0
        while accepted < 200:
            m = int(rng.integers(1, 9))
            pts = rng.uniform(-18, 18, size=(m, 2))
            specs = [((float(x), float(y)), 10.0, 20.0, 60.0) for x, y in pts]
            from conftest import make_instance

            instance = make_instance(specs, bs=(100.0, 100.0))
            pos = (0.0, 0.0)
            ids, events = _sweep_events(pos, instance)
            if not ids:
                continue

            _, thetas, dists = reference_nodes_in_range(pos, instance)
            half = instance.dmc.phi / 2.0

            def coverage(psi):
                return frozenset(
                    i
                    for i, th, d in zip(ids, thetas, dists)
                    if d == 0.0 or angular_distance(th, psi) <= half
                )

            # the library's directions: the rows of a one-position matrix
            cover = ChargingPositionSet(positions=(pos,))
            directions = [psi for _, psi in build_coefficient_matrix(cover, instance).rows]
            rep_family = {coverage(psi) for psi in directions}
            grid_subsets = {s for s in (coverage(psi) for psi in grid) if s}
            # domination holds unconditionally, resolvable arcs or not
            assert all(any(s <= r for r in rep_family) for s in grid_subsets)
            if _min_event_gap(events) < 0.005:
                continue  # family equality needs arcs the 1 mrad grid can resolve
            accepted += 1

            grid_family = {s for s in grid_subsets if not any(s < t for t in grid_subsets)}
            assert rep_family == grid_family
            assert not any(a < b for a in rep_family for b in rep_family)


# -- criterion 4 -------------------------------------------------------------


_COMBO_CACHE = {}


def vertex_enumeration_min(a, b):
    m, n = a.shape
    g = np.vstack([a, np.eye(n)])
    h = np.concatenate([b, np.zeros(n)])
    key = (m + n, n)
    if key not in _COMBO_CACHE:
        _COMBO_CACHE[key] = np.array(list(itertools.combinations(range(m + n), n)))
    combos = _COMBO_CACHE[key]
    gs = g[combos]  # (n_combos, n, n)
    hs = h[combos]
    dets = np.linalg.det(gs)
    usable = np.abs(dets) > 1e-9
    x = np.linalg.solve(gs[usable], hs[usable][..., None])[..., 0]
    feasible = np.all(x @ g.T >= h - 1e-9, axis=1)
    values = x[feasible].sum(axis=1)
    return float(values.min())


def test_criterion_4_lp_matches_vertex_enumeration():
    with criterion(4, "time allocation matches vertex-enumeration optimum"):
        rng = np.random.default_rng(404)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            a = rng.uniform(0.0, 1.0, size=(m, n))
            a[a < 0.45] = 0.0
            for i in range(m):
                a[i, i % n] += rng.uniform(0.3, 1.0)
            b = rng.uniform(1.0, 60.0, size=m)
            solution = solve_lp(LpProblem(a=a, b=b))
            assert np.all(a @ solution.t >= b - 1e-6)
            assert np.all(solution.t >= 0.0)
            want = vertex_enumeration_min(a, b)
            assert solution.objective == pytest.approx(want, rel=1e-6, abs=1e-6)


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_tour_solver_quality():
    with criterion(5, "local-search tour quality against the exact oracle"):
        rng = np.random.default_rng(505)
        gaps = []
        for i in range(100):
            g = random_closed_graph(rng, 10)
            exact = held_karp(g).cost
            gaps.append(lk_tour(g, seed=i).cost / exact - 1.0)
        assert np.mean(gaps) <= 0.02
        assert max(gaps) <= 0.10
        for i in range(25):
            g = random_closed_graph(rng, 6)
            assert held_karp(g).cost == pytest.approx(brute_force_tour(g.cost).cost, rel=1e-12)


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_symmetric_transform_exact():
    with criterion(6, "node-doubling transform preserves the exact optimum"):
        # integer costs keep every sum exact in float64, so "equals exactly"
        # is well defined; ties then resolve to equal costs on both sides
        rng = np.random.default_rng(606)
        for i in range(50):
            n = int(rng.integers(2, 7))
            cost = rng.integers(1, 1_000_000, size=(n, n)).astype(float)
            g = metric_closure(cost_graph(cost))
            direct = held_karp(g)
            sym = to_symmetric(g)
            doubled = held_karp(cost_graph(sym.cost))
            decoded = sym.decode(doubled.order, g.cost)
            assert decoded.cost == direct.cost


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_direct_beats_transform_on_average():
    with criterion(7, "direct asymmetric search no worse than transform route"):
        rng = np.random.default_rng(707)
        direct_costs = []
        transform_costs = []
        for i in range(50):
            g = random_closed_graph(rng, 20)
            direct_costs.append(lk_tour(g, seed=i, budget=20).cost)
            sym = to_symmetric(g)
            doubled = lk_tour(cost_graph(sym.cost), seed=i, budget=20)
            transform_costs.append(sym.decode(doubled.order, g.cost).cost)
        assert np.mean(direct_costs) <= np.mean(transform_costs) + 1e-9


# -- criteria 8 and 9 --------------------------------------------------------


@pytest.fixture(scope="module")
def fig6_runs():
    runs = []
    for repeat in range(50):
        instance = generate_instance(200, seed=800 + repeat)
        _, planned = plan_schedule(instance, seed=800 + repeat)
        _, baseline = one_to_one_schedule(instance)
        runs.append((instance, planned, baseline))
    return runs


def test_criterion_8_dominance_trend(fig6_runs):
    with criterion(8, "planner beats one-to-one baseline at scale"):
        runs = len(fig6_runs)
        loss_wins = sum(p.total_energy_loss < b.total_energy_loss for _, p, b in fig6_runs)
        span_wins = sum(p.time_span < b.time_span for _, p, b in fig6_runs)
        assert loss_wins >= 0.95 * runs
        assert span_wins >= 0.90 * runs


def test_criterion_9_demands_always_met(fig6_runs):
    with criterion(9, "planned schedules always meet node demands"):
        for instance, planned, _ in fig6_runs:
            assert planned.feasible  # e_f >= e_b + e_d within 1e-6 J


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_byte_identical_runs(tmp_path):
    with criterion(10, "identical inputs give byte-identical schedule files"):
        inst = tmp_path / "instance.json"
        subprocess.run(
            [sys.executable, "-m", "asymcharge.cli", "generate",
             "--nodes", "40", "--seed", "10", "--out", str(inst)],
            check=True, capture_output=True, env=subprocess_env(),
        )
        blobs = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "asymcharge.cli", "schedule",
                 "--instance", str(inst), "--algorithm", "ra_dmcs",
                 "--seed", "10", "--out", str(out)],
                check=True, capture_output=True, env=subprocess_env(),
            )
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
