import itertools

import numpy as np
import pytest

from asymcharge import (
    ChargingPositionSet,
    InfeasibleError,
    LpProblem,
    PivotLimitError,
    ValidationError,
    build_coefficient_matrix,
    build_time_lp,
    select_charging_positions,
    solve_lp,
)

from conftest import make_instance


def vertex_enumeration_min(a, b):
    """Exact optimum of min 1'x, a x >= b, x >= 0 by enumerating basic points.

    Every vertex of the feasible region is the intersection of n linearly
    independent active constraints drawn from the inequality rows and the
    nonnegativity bounds.
    """
    m, n = a.shape
    g = np.vstack([a, np.eye(n)])
    h = np.concatenate([b, np.zeros(n)])
    best = None
    for combo in itertools.combinations(range(m + n), n):
        gs = g[list(combo)]
        hs = h[list(combo)]
        if abs(np.linalg.det(gs)) < 1e-12:
            continue
        x = np.linalg.solve(gs, hs)
        if np.all(g @ x >= h - 1e-9):
            val = float(x.sum())
            if best is None or val < best:
                best = val
    return best


def random_covering_lp(rng, m, n):
    a = rng.uniform(0.0, 1.0, size=(m, n))
    a[a < 0.4] = 0.0
    for i in range(m):  # every node coverable
        a[i, i % n] += rng.uniform(0.3, 1.0)
    b = rng.uniform(1.0, 50.0, size=m)
    return a, b


class TestBuildTimeLp:
    def test_zero_demand_gives_zero_times(self):
        instance = make_instance([((5.0, 0.0), 10.0, 0.0, 60.0)])
        cover = select_charging_positions(instance)
        matrix = build_coefficient_matrix(cover, instance)
        solution = solve_lp(build_time_lp(matrix, instance))
        assert solution.objective == 0.0
        assert np.all(solution.t == 0.0)

    def test_single_pair_closed_form(self):
        # two nodes 10 m apart share a midpoint position; only node 0 demands
        instance = make_instance(
            [((0.0, 0.0), 10.0, 16.0, 60.0), ((10.0, 0.0), 10.0, 0.0, 60.0)],
            bs=(5.0, 30.0),
        )
        cover = select_charging_positions(instance)
        matrix = build_coefficient_matrix(cover, instance)
        solution = solve_lp(build_time_lp(matrix, instance))
        c = 4000.0 / 105.0**2
        assert solution.objective == pytest.approx(16.0 / (4.0 * c), rel=1e-9)

    def test_uncoverable_demanding_node_named(self):
        # the only position is 30 m from node 1, beyond the 20 m charge
        # distance: the matrix leaves its column empty and the LP names it
        instance = make_instance(
            [((0.0, 0.0), 10.0, 16.0, 60.0), ((30.0, 0.0), 10.0, 5.0, 60.0)],
            bs=(5.0, 30.0),
        )
        cover = ChargingPositionSet(positions=((0.0, 0.0),), assignment=(0, 0))
        matrix = build_coefficient_matrix(cover, instance)
        assert matrix.entries.shape == (1, 2)
        assert not matrix.entries[:, 1].any()
        with pytest.raises(InfeasibleError, match="node 1"):
            build_time_lp(matrix, instance)

    def test_lowest_uncovered_demanding_node_named(self):
        # nodes 1 and 3 demand energy out of reach, node 2 is out of reach
        # with no demand: the error names node 1
        instance = make_instance(
            [((0.0, 0.0), 10.0, 16.0, 60.0), ((30.0, 0.0), 10.0, 5.0, 60.0),
             ((0.0, 30.0), 10.0, 0.0, 60.0), ((40.0, 0.0), 10.0, 5.0, 60.0)],
            bs=(5.0, 30.0),
        )
        cover = ChargingPositionSet(positions=((0.0, 0.0),), assignment=(0, 0, 0, 0))
        matrix = build_coefficient_matrix(cover, instance)
        assert not matrix.entries[:, 1:].any()
        with pytest.raises(InfeasibleError, match=r"^node 1 demands 5\.0 J but is covered by no pair$"):
            build_time_lp(matrix, instance)

    def test_preference_for_stronger_coefficient(self):
        # two pairs cover one node; all optimal mass goes on the better pair
        a = 4.0 * np.array([[0.4], [0.2]]).T  # (1 node, 2 pairs)
        problem = LpProblem(a=a, b=np.array([16.0]))
        solution = solve_lp(problem)
        assert solution.t[0] == pytest.approx(16.0 / (4.0 * 0.4), rel=1e-9)
        assert solution.t[1] == 0.0


class TestSolveLp:
    def test_diagonal_closed_form(self):
        rng = np.random.default_rng(1)
        c = rng.uniform(0.1, 0.5, 4)
        a = 4.0 * np.diag(c)
        b = rng.uniform(5.0, 40.0, 4)
        solution = solve_lp(LpProblem(a=a, b=b))
        assert np.allclose(solution.t, b / (4.0 * c), rtol=1e-9)

    def test_duplicate_rows_same_objective(self):
        rng = np.random.default_rng(2)
        a, b = random_covering_lp(rng, 4, 4)
        base = solve_lp(LpProblem(a=a, b=b))
        dup = solve_lp(LpProblem(a=np.vstack([a, a[0]]), b=np.concatenate([b, [b[0]]])))
        assert dup.objective == pytest.approx(base.objective, rel=1e-9)

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            a, b = random_covering_lp(rng, m, n)
            solution = solve_lp(LpProblem(a=a, b=b))
            want = vertex_enumeration_min(a, b)
            assert solution.objective == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_outputs_feasible_and_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = random_covering_lp(rng, 6, 5)
            solution = solve_lp(LpProblem(a=a, b=b))
            assert np.all(a @ solution.t >= b - 1e-6)
            assert np.all(solution.t >= 0.0)

    def test_demand_scaling_scales_objective(self):
        rng = np.random.default_rng(5)
        a, b = random_covering_lp(rng, 5, 5)
        base = solve_lp(LpProblem(a=a, b=b))
        for s in (0.25, 2.0, 13.5):
            scaled = solve_lp(LpProblem(a=a, b=s * b))
            assert scaled.objective == pytest.approx(s * base.objective, rel=1e-9)

    def test_degenerate_variable_dropped(self):
        a = np.array([[0.8, 0.0], [0.5, 0.0]])
        solution = solve_lp(LpProblem(a=a, b=np.array([8.0, 5.0])))
        assert solution.t[1] == 0.0
        assert solution.t[0] == pytest.approx(10.0, rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            solve_lp(LpProblem(a=np.ones((2, 2)), b=np.ones(3)))

    def test_infeasible_status(self):
        # positive demand with no coverage at all: no column can enter
        with pytest.raises(InfeasibleError, match=r"no entering column at its tolerance 1e-09"):
            solve_lp(LpProblem(a=np.zeros((1, 2)), b=np.array([5.0])))

    def test_pivot_limit_is_a_library_error(self, monkeypatch):
        from asymcharge import timing

        monkeypatch.setattr(timing, "_MAX_PIVOTS", 1)
        a = np.eye(3)
        with pytest.raises(PivotLimitError):
            solve_lp(LpProblem(a=a, b=np.ones(3)))
