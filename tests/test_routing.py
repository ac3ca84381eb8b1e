import math

import numpy as np
import pytest

from asymcharge import AsymmetryField, DmcParams, ValidationError, model, routing
from asymcharge.model import build_routing_matrices
from asymcharge.routing import (
    Tour,
    cost_graph,
    expand_tour,
    greedy_tour,
    held_karp,
    lk_tour,
    metric_closure,
    to_symmetric,
    tour_cost,
)
from asymcharge.cli import generate_instance
from asymcharge.errors import MalformedTourError

from support import brute_force_tour, columns, node_rows, read_cost_matrix, write_cost_matrix


def random_directed_graph(rng, n, closed=True):
    """Random asymmetric costs drawn through the coefficient field."""
    points = [tuple(p) for p in rng.uniform(0, 200, size=(n, 2))]
    asym = AsymmetryField(seed=int(rng.integers(2**31)))
    mats = build_routing_matrices(points, asym, DmcParams())
    g = cost_graph(mats.cost)
    return metric_closure(g) if closed else g


class TestMetricClosure:
    def test_respecting_input_unchanged(self):
        cost = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        closed = metric_closure(cost_graph(cost))
        assert np.array_equal(closed.cost, cost)

    def test_shortcut_found(self):
        cost = np.array([[0.0, 10.0, 1.0], [5.0, 0.0, 9.0], [8.0, 2.0, 0.0]])
        closed = metric_closure(cost_graph(cost))
        assert closed.cost[0, 1] == pytest.approx(3.0)  # 0 -> 2 -> 1
        assert closed.next_hop[0, 1] == 2

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        g = random_directed_graph(rng, 7, closed=False)
        once = metric_closure(g)
        twice = metric_closure(once)
        assert np.allclose(once.cost, twice.cost)

    def test_triangle_inequality_after_closure(self):
        rng = np.random.default_rng(2)
        closed = random_directed_graph(rng, 8)
        c = closed.cost
        n = c.shape[0]
        for k in range(n):
            assert np.all(c <= c[:, k, None] + c[None, k, :] + 1e-9)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            cost_graph(np.array([[0.0, -1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cost_rejected(self, bad):
        # NaN passes a sign check, and one NaN arc makes the tour cost nan
        cost = np.ones((4, 4))
        cost[1, 2] = bad
        with pytest.raises(ValidationError, match="finite"):
            cost_graph(cost)


class TestExpandTour:
    def test_trivial_closure_identity(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        closed = metric_closure(cost_graph(cost))
        tour = greedy_tour(closed)
        assert expand_tour(tour, closed).order == tour.order

    def test_witness_inserted(self):
        cost = np.array([[0.0, 10.0, 1.0], [5.0, 0.0, 9.0], [8.0, 2.0, 0.0]])
        closed = metric_closure(cost_graph(cost))
        tour = greedy_tour(closed)
        expanded = expand_tour(tour, closed)
        assert expanded.cost == pytest.approx(tour.cost, rel=1e-12)
        # the cheap 0 -> 1 connection runs through 2
        assert 2 in expanded.order[: expanded.order.index(1)]

    def test_cost_preserved_on_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            closed = random_directed_graph(rng, 9)
            tour = lk_tour(closed, seed=1, budget=5)
            expanded = expand_tour(tour, closed)
            assert expanded.cost == pytest.approx(tour.cost, rel=1e-9)
            assert set(expanded.order) == set(range(closed.n))


class TestGreedyTour:
    def test_two_points(self):
        cost = np.array([[0.0, 3.0], [4.0, 0.0]])
        tour = greedy_tour(cost_graph(cost))
        assert tour.order == (0, 1, 0)
        assert tour.cost == pytest.approx(7.0)

    def test_equilateral_perimeter(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
        cost = np.array([[math.dist(a, b) for b in pts] for a in pts])
        tour = greedy_tour(cost_graph(cost))
        assert tour.cost == pytest.approx(3.0)

    def test_never_beats_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            closed = random_directed_graph(rng, 8)
            assert greedy_tour(closed).cost >= held_karp(closed).cost - 1e-9

    @pytest.mark.parametrize("seed", [1, 2])
    def test_spent_window_prices_few_arcs(self, seed, monkeypatch):
        # a step whose window holds no unvisited point prices the point of
        # lowest bound and then only the points whose bound does not exceed
        # its cost; pricing every unvisited point instead gives the same
        # tours in fewer calls but hashes over 3,500 arcs past the windows
        instance = generate_instance(450, seed, area=200.0)
        points = [model.snap9_point(instance.bs_pos)] + [u.pos for u in node_rows(instance)]
        arcs = model.TravelArcs(*columns(points), instance.asym, instance.dmc)
        hashed = []
        row = model.TravelArcs.row

        def counting_row(arcs, i, js):
            hashed.append(len(js))
            return row(arcs, i, js)

        monkeypatch.setattr(model.TravelArcs, "row", counting_row)
        greedy_tour(arcs)
        window = len(points) * routing._WINDOW  # the first call hashes every window
        assert hashed[0] == window
        assert sum(hashed[1:]) < 2 * len(points)


class TestLkTour:
    def test_tiny_instances_exact(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            closed = random_directed_graph(rng, n)
            tour = lk_tour(closed, seed=0)
            assert tour.cost == pytest.approx(brute_force_tour(closed.cost).cost, rel=1e-9)

    def test_three_points_take_the_swap(self):
        # greedy runs 0 -> 1 -> 2 -> 0 at 1 + 3 + 2; the one segment swap costs 2 + 1 + 1
        cost = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 10.0], [10.0, 1.0, 0.0]])
        closed = metric_closure(cost_graph(cost))
        assert greedy_tour(closed).cost == 6.0
        assert lk_tour(closed) == Tour((0, 2, 1, 0), 4.0)
        rng = np.random.default_rng(17)
        for _ in range(200):
            closed = metric_closure(cost_graph(rng.integers(0, 100, (3, 3)).astype(float)))
            assert lk_tour(closed).cost == held_karp(closed).cost

    def test_never_worse_than_greedy(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            closed = random_directed_graph(rng, 12)
            assert lk_tour(closed, seed=2, budget=5).cost <= greedy_tour(closed).cost + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        closed = random_directed_graph(rng, 10)
        assert lk_tour(closed, seed=3).order == lk_tour(closed, seed=3).order

    def test_visits_everything(self):
        rng = np.random.default_rng(8)
        closed = random_directed_graph(rng, 11)
        tour = lk_tour(closed, seed=4, budget=5)
        assert sorted(tour.order[:-1]) == list(range(11))
        assert tour.order[0] == tour.order[-1] == 0

    def test_small_gap_to_exact(self):
        rng = np.random.default_rng(9)
        gaps = []
        for _ in range(15):
            closed = random_directed_graph(rng, 9)
            exact = held_karp(closed).cost
            gaps.append(lk_tour(closed, seed=5).cost / exact - 1.0)
        assert np.mean(gaps) <= 0.02
        assert max(gaps) >= -1e-12


class TestHeldKarp:
    def test_two_points(self):
        cost = np.array([[0.0, 3.0], [4.0, 0.0]])
        tour = held_karp(cost_graph(cost))
        assert tour.order == (0, 1, 0)
        assert tour.cost == pytest.approx(7.0)

    def test_unit_square_perimeter(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        cost = np.array([[math.dist(a, b) for b in pts] for a in pts])
        tour = held_karp(cost_graph(cost))
        assert tour.cost == pytest.approx(4.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        for n in (4, 5, 6, 7):
            for _ in range(4):
                closed = random_directed_graph(rng, n)
                exact = held_karp(closed)
                want = brute_force_tour(closed.cost)
                assert exact.cost == pytest.approx(want.cost, rel=1e-12)
                assert exact.cost == pytest.approx(tour_cost(exact.order, closed.cost), rel=1e-12)

    def test_size_limit(self):
        cost = np.zeros((15, 15))
        with pytest.raises(ValidationError):
            held_karp(cost_graph(cost))


class TestSymmetricReformulation:
    def test_two_point_recovery(self):
        cost = np.array([[0.0, 3.0], [4.0, 0.0]])
        g = cost_graph(cost)
        sym = to_symmetric(g)
        doubled = held_karp(cost_graph(sym.cost))
        decoded = sym.decode(doubled.order, g.cost)
        assert decoded.cost == pytest.approx(7.0)
        assert sorted(decoded.order[:-1]) == [0, 1]

    def test_matrix_is_symmetric(self):
        rng = np.random.default_rng(11)
        g = random_directed_graph(rng, 5)
        sym = to_symmetric(g)
        assert np.array_equal(sym.cost, sym.cost.T)
        assert sym.cost.shape == (10, 10)

    def test_decode_cost_identity(self):
        rng = np.random.default_rng(12)
        g = random_directed_graph(rng, 5)
        sym = to_symmetric(g)
        doubled = held_karp(cost_graph(sym.cost))
        decoded = sym.decode(doubled.order, g.cost)
        assert decoded.cost == pytest.approx(tour_cost(decoded.order, g.cost), rel=1e-12)
        assert doubled.cost - g.n * sym.bonus == pytest.approx(decoded.cost, rel=1e-9)

    def test_exact_transform_equals_exact_direct(self):
        # integer costs make every sum exact, so equality is literal
        rng = np.random.default_rng(13)
        for n in (2, 3, 4, 5):
            for _ in range(3):
                cost = rng.integers(1, 1_000_000, size=(n, n)).astype(float)
                g = metric_closure(cost_graph(cost))
                direct = held_karp(g)
                sym = to_symmetric(g)
                doubled = held_karp(cost_graph(sym.cost))
                decoded = sym.decode(doubled.order, g.cost)
                assert decoded.cost == direct.cost

    def test_greedy_on_transform_decodes(self):
        rng = np.random.default_rng(14)
        g = random_directed_graph(rng, 8)
        sym = to_symmetric(g)
        doubled = greedy_tour(cost_graph(sym.cost))
        decoded = sym.decode(doubled.order, g.cost)
        assert sorted(decoded.order[:-1]) == list(range(8))

    def test_lk_on_transform_decodes(self):
        rng = np.random.default_rng(15)
        g = random_directed_graph(rng, 8)
        sym = to_symmetric(g)
        doubled = lk_tour(cost_graph(sym.cost), seed=6, budget=5)
        decoded = sym.decode(doubled.order, g.cost)
        assert sorted(decoded.order[:-1]) == list(range(8))
        assert decoded.cost >= held_karp(g).cost - 1e-9

    def test_bad_cycle_rejected(self):
        g = cost_graph(np.array([[0.0, 1.0], [2.0, 0.0]]))
        sym = to_symmetric(g)
        with pytest.raises(MalformedTourError):
            sym.decode((0, 1, 2, 3, 0), g.cost)  # reals adjacent: no alternation


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        g = random_directed_graph(rng, 6)
        path = tmp_path / "costs.txt"
        write_cost_matrix(path, g)
        back = read_cost_matrix(path)
        assert back.n == 6
        assert np.allclose(back.cost, g.cost, rtol=1e-8)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2 3\n")
        with pytest.raises(ValidationError):
            read_cost_matrix(path)
