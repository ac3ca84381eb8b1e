"""The dual simplex, the lazy position cover and the candidate-list
segment-swap search against their reference versions.

The dual simplex may stop at another optimal vertex than the two-phase
primal, so it must match the primal's objective (to 1e-9 relative) and
return nonnegative times that meet every demand, or raise where the primal
finds the program infeasible.  The cover
skips cluster counts, so it must equal the eager cover at the count its
stride rule picks from the eager fits.  Every other comparison is exact:
clusters and position sets with ``==`` and by ``repr``.  The tour search
scans only a few candidate arcs per point, so it must leave no improving
segment swap once its lists hold every other point, with costs whose sums
are all exact.
"""

import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcharge import (
    AsymmetryField,
    DmcParams,
    InfeasibleError,
    pipeline,
    plan_schedule,
    positions,
    routing,
    timing,
)
from asymcharge.directions import build_coefficient_matrix
from asymcharge.model import build_routing_matrices
from asymcharge.positions import select_charging_positions
from asymcharge.routing import (
    cost_graph,
    held_karp,
    lk_tour,
    metric_closure,
    to_symmetric,
    tour_cost,
)
from asymcharge.timing import LpProblem, build_time_lp, solve_lp
from asymcharge.cli import generate_instance

from conftest import make_instance, neutral_field
from scalar_reference import (
    reference_best_3opt_move,
    reference_fitted_cover,
    reference_kmeans,
    reference_select_charging_positions,
    reference_solve_lp,
)
from support import kmeans, node_rows


def same_cover(got, want) -> bool:
    """Whether two covers, or two Nones, hold the same positions bit for bit (-0.0 is not 0.0)."""
    if got is None or want is None:
        return got is want
    return got.positions.shape == want.positions.shape and (
        got.positions.tobytes() == want.positions.tobytes()
    )


def stride_rule_cover(instance):
    """The eager cover at the k the stride search returns.

    Fits every k from the separation bound up to the first probe (the bound,
    every ``positions._K_STRIDE``-th k above it, and n) that fits, with
    ``reference_kmeans`` and ``reference_fitted_cover``; the first k that
    fits after the last failed probe wins.
    """
    points = [u.pos for u in node_rows(instance)]
    d_max = instance.dmc.d_max
    seed = instance.asym.seed & 0xFFFF_FFFF_FFFF_FFFF
    bound = positions._separated_count(np.asarray(points, dtype=float), d_max)
    covers = {}
    gap = bound  # the k after the last failed probe
    for k in range(bound, instance.n + 1):
        covers[k] = reference_fitted_cover(points, reference_kmeans(points, k, seed), d_max)
        if (k - bound) % positions._K_STRIDE == 0 or k == instance.n:
            if covers[k] is not None:
                return next(covers[j] for j in range(gap, k + 1) if covers[j] is not None)
            gap = k + 1
    raise AssertionError("unreachable: singleton clusters always fit at distance 0")


@st.composite
def covering_programs(draw):
    """Nonnegative covering LPs, sparse or dense, with degenerate structure.

    Small integer entries and demands give ties in the ratio test; copied
    columns give alternate optima; zero-demand rows and empty columns are
    dropped by ``solve_lp`` before the simplex runs.  Sparse programs touch
    a few rows per pivot, dense ones nearly all of them.
    """
    m = draw(st.integers(1, 36))
    n = draw(st.integers(1, 30))
    density = draw(st.sampled_from([0.04, 0.1, 0.3, 1.0]))
    integral = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 4, (m, n)).astype(float) if integral else rng.uniform(0.01, 5.0, (m, n))
    a = np.where(rng.random((m, n)) < density, values, 0.0)
    copies = draw(st.lists(st.integers(0, n - 1), max_size=4))
    if copies:
        a = np.hstack([a, a[:, copies]])
    b = rng.integers(0, 4, m).astype(float) if integral else rng.uniform(0.0, 3.0, m)
    b[rng.random(m) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    if draw(st.booleans()):
        # every demanding row coverable, so most programs reach phase 2
        bare = np.flatnonzero(~np.any(a > 0.0, axis=1))
        a[bare, rng.integers(0, a.shape[1], bare.size)] = 1.0
    return LpProblem(a=a, b=b)


def assert_same_optimum(problem):
    """``solve_lp``'s optimum matches the primal oracle's; it raises where the oracle is infeasible."""
    want, status = reference_solve_lp(problem)
    if status == "infeasible":
        with pytest.raises(InfeasibleError, match="no entering column"):
            solve_lp(problem)
        return
    got = solve_lp(problem)
    assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=0.0)
    assert np.all(got.t >= 0.0)
    b = np.asarray(problem.b, dtype=float)
    assert np.all(problem.a @ got.t >= b - 1e-9 * np.maximum(1.0, b))


class TestSimplex:
    @settings(max_examples=250, deadline=None)
    @given(covering_programs(), st.sampled_from([0, 1, 3, timing._STALL_LIMIT]))
    def test_same_optimum_as_primal(self, problem, stall_limit):
        # a low stall limit hands most pivots to Bland's rule, on both sides
        with mock.patch.object(timing, "_STALL_LIMIT", stall_limit):
            assert_same_optimum(problem)

    def test_identity_and_duplicate_columns(self):
        # one nonzero per entering column: every pivot touches a single row
        a = np.hstack([np.eye(24), np.eye(24)[:, :6]])
        assert_same_optimum(LpProblem(a=a, b=np.arange(24, dtype=float) % 3))

    def test_planner_programs(self):
        for seed in (2, 5):
            instance = generate_instance(120, seed=seed, area=100.0)
            matrix = build_coefficient_matrix(select_charging_positions(instance), instance)
            assert_same_optimum(build_time_lp(matrix, instance))

    def test_uncoverable_demand_row_is_infeasible(self):
        # the second row demands but is zero over the one useful column, so
        # the dual finds no entering column once that row leaves
        problem = LpProblem(a=np.array([[1.0], [0.0]]), b=np.array([1.0, 1.0]))
        assert reference_solve_lp(problem)[1] == "infeasible"
        with pytest.raises(InfeasibleError, match="no entering column"):
            solve_lp(problem)

    def test_ties_enter_the_smallest_column(self):
        # exact ties, and a later column whose ratio is smaller by less than
        # the tie tolerance: the first column enters either way
        for a in ([[2.0, 2.0, 2.0]], [[1.0, 1.0 + 1e-12]]):
            got = solve_lp(LpProblem(a=np.array(a), b=np.array([2.0])))
            assert got.t[0] == 2.0 / a[0][0]
            assert not np.any(got.t[1:])


def diameter_specs(d_max: float) -> list[float]:
    """Member distances at 2 d_max, a few ulps either side, and at the 1e-9 margin."""
    exact = 2.0 * d_max
    margin = 2.0 * (d_max * (1.0 + 1e-9) + 1e-12)
    out = []
    for base in (exact, 2.0 * d_max * (1.0 + 1e-9), margin):
        x = base
        for _ in range(3):
            x = math.nextafter(x, 0.0)
        for _ in range(7):
            out.append(x)
            x = math.nextafter(x, math.inf)
    return out


def separation_specs(d_max: float) -> list[float]:
    """Member distances a few ulps either side of the separation reach 2 d_max (1 + 1e-6)."""
    out = []
    x = 2.0 * d_max * (1.0 + 1e-6)
    for _ in range(3):
        x = math.nextafter(x, 0.0)
    for _ in range(7):
        out.append(x)
        x = math.nextafter(x, math.inf)
    return out


@st.composite
def cover_instances(draw):
    """Random nodes plus pairs and triples whose diameter sits on the fit boundary.

    Some pairs sit on the separation reach instead, so the width test sees
    extents a few ulps either side of it.
    """
    d_max = draw(st.sampled_from([20.0, 7.5, 1.0, 0.3]))
    area = draw(st.sampled_from([1.0, 20.0, 50.0, 200.0, 2000.0]))
    coord = st.floats(min_value=0.0, max_value=area, allow_nan=False)
    points = draw(st.lists(st.tuples(coord, coord), max_size=18))
    for _ in range(draw(st.integers(0, 3))):
        span = draw(st.sampled_from(diameter_specs(d_max) + separation_specs(d_max)))
        y = float(draw(st.integers(-40, 40)))
        # both halves are exact, so the two members are exactly ``span`` apart
        pair = [(-span / 2.0, y), (span / 2.0, y)]
        if draw(st.booleans()):
            pair.append((0.0, y + draw(st.sampled_from([0.0, span / 4.0, span / 2.0]))))
        if draw(st.booleans()):
            pair = [(b, a) for a, b in pair]  # along y instead
        points += pair
    if not points:
        points = [(0.0, 0.0)]
    points = draw(st.permutations(points))
    specs = [(p, 0.0, 1.0, 10.0) for p in points]
    field = neutral_field(draw(st.integers(0, 2**32 - 1)))  # the seed drives k-means
    return make_instance(specs, dmc=DmcParams(d_max=d_max), asym=field)


@st.composite
def spread_instances(draw):
    """Nodes on a line whose spacing sits near the separation reach, plus duplicates.

    Such rows give a large lower bound on the cluster count, so the cover
    starts far from k = 1; tight pairs on both sides of the reach and
    repeated nodes probe the bound's margin.
    """
    d_max = draw(st.sampled_from([20.0, 7.5, 1.0, 0.3]))
    spans = separation_specs(d_max) + diameter_specs(d_max) + [1.5 * d_max, 3.0 * d_max]
    xs = [0.0]
    for _ in range(draw(st.integers(0, 14))):
        xs.append(xs[-1] + draw(st.sampled_from(spans)))
    y = float(draw(st.integers(-40, 40)))
    points = [(x, y) for x in xs]
    points += draw(st.lists(st.sampled_from(points), max_size=4))  # duplicates
    points = draw(st.permutations(points))
    specs = [(p, 0.0, 1.0, 10.0) for p in points]
    field = neutral_field(draw(st.integers(0, 2**32 - 1)))
    return make_instance(specs, dmc=DmcParams(d_max=d_max), asym=field)


@st.composite
def scattered_cells(draw):
    """Integer cells anywhere in a 61 x 61 grid, and any cluster count."""
    cells = draw(
        st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=1, max_size=30)
    )
    return cells, draw(st.integers(1, len(cells)))


@st.composite
def duplicated_cells(draw):
    """A few distinct cells, each repeated, and more clusters than distinct cells.

    k-means++ draws every distinct cell before any copy, so the later centers
    coincide with earlier ones and their clusters stay empty: every example
    runs the re-seed loop to its "leave empty" break and the masked centroid
    update.
    """
    distinct = draw(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=4,
                 unique=True)
    )
    cells = draw(st.permutations(
        distinct + draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=26))
    ))
    k = draw(st.integers(max(len(distinct) + 1, len(cells) - 3), len(cells)))
    return cells, k


class TestCover:
    @settings(max_examples=250, deadline=None)
    @given(st.one_of(cover_instances(), spread_instances()))
    def test_equal_to_eager_cover(self, instance):
        # the eager fit of every k from the bound to the first probe that
        # fits, with the stride rule applied to those results: the first k
        # that fits after the last failed probe
        got = select_charging_positions(instance)
        want = stride_rule_cover(instance)
        assert same_cover(got, want)

    @settings(max_examples=250, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-100, 100)), min_size=1, max_size=40),
        st.integers(0, 2**64 - 1),
        st.data(),
    )
    def test_draws_equal_to_generator_choice(self, cells, seed, data):
        # equal and zero-offset points give zero weights, and coordinates
        # from 1e-100 to 3e100 give weights from 1e-200 to 1e201 in one draw
        pts = np.array([(m * 10.0**e, 0.0) for m, e in cells])
        n = len(pts)
        k = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        want = [int(rng.integers(n))]
        d2 = ((pts - pts[want[0]]) ** 2).sum(axis=1)
        while len(want) < k:
            total = d2.sum()
            idx = int(rng.choice(n, p=d2 / total)) if total > 0 else int(rng.integers(n))
            want.append(idx)
            d2 = np.minimum(d2, ((pts - pts[idx]) ** 2).sum(axis=1))
        assert positions._Seeding(pts, seed).extend(k) == want

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(cover_instances(), spread_instances()))
    def test_no_k_below_the_bound_fits(self, instance):
        pts = np.column_stack((instance.x, instance.y))
        d_max = instance.dmc.d_max
        bound = positions._separated_count(pts, d_max)
        assert 1 <= bound <= len(select_charging_positions(instance).positions)
        for k in range(1, bound):
            clusters = kmeans(pts, k, instance.asym.seed)
            assert positions._fitted_cover(pts, clusters, d_max, {}) is None

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(cover_instances(), spread_instances()))
    def test_fit_equal_to_welzl_only_fit(self, instance):
        # the width test rejects a k only where enclosing every cluster
        # rejects it too, and never a k that fits
        points = [u.pos for u in node_rows(instance)]
        pts = np.asarray(points, dtype=float)
        d_max = instance.dmc.d_max
        enclosed = {}
        for k in range(1, instance.n + 1):
            clusters = kmeans(pts, k, instance.asym.seed)
            got = positions._fitted_cover(pts, clusters, d_max, enclosed)
            want = reference_fitted_cover(points, clusters, d_max)
            assert same_cover(got, want)

    def test_no_circle_for_a_k_the_width_test_rejects(self):
        instance = generate_instance(150, seed=1, area=200.0)
        points = [u.pos for u in node_rows(instance)]
        d_max = instance.dmc.d_max
        reach = 2.0 * d_max * (1.0 + 1e-6)
        fits = len(select_charging_positions(instance).positions)
        rejected = 0
        for k in range(1, fits + 1):
            clusters = kmeans(points, k, instance.asym.seed)
            wide = any(
                max(points[i][axis] for i in ids) - min(points[i][axis] for i in ids) > reach
                for ids in clusters
                for axis in (0, 1)
            )
            with mock.patch.object(
                positions, "min_enclosing_circle", wraps=positions.min_enclosing_circle
            ) as welzl:
                cover = positions._fitted_cover(np.asarray(points), clusters, d_max, {})
            if wide:
                rejected += 1
                assert cover is None
                assert welzl.call_count == 0
            else:
                assert welzl.call_count > 0
        assert 0 < rejected < fits

    def test_bound_on_tight_pairs_and_duplicates(self):
        d_max = 20.0
        reach = 2.0 * d_max * (1.0 + 1e-6)
        far = math.nextafter(reach, math.inf)
        for close in (reach, math.nextafter(reach, 0.0), 2.0 * d_max):
            # three nodes pairwise just past the reach, each repeated, and a
            # node at most the reach from the first, which counts for nothing
            xs = [0.0, far, 2.0 * far, close, 0.0, far, 2.0 * far]
            pts = np.array([(x, 0.0) for x in xs])
            assert positions._separated_count(pts, d_max) == 3
            assert positions._separated_count(pts[[0, 3, 4]], d_max) == 1
            specs = [((x, 0.0), 0.0, 1.0, 10.0) for x in xs]
            instance = make_instance(specs, dmc=DmcParams(d_max=d_max))
            want = reference_select_charging_positions(instance)
            assert same_cover(select_charging_positions(instance), want)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(scattered_cells(), duplicated_cells()), st.data())
    def test_kmeans_equal_to_eager_kmeans(self, cells_and_k, data):
        cells, k = cells_and_k
        scale = data.draw(st.sampled_from([0.001, 0.7, 1.0, 1e4]))
        points = [(x * scale, y * scale) for x, y in cells]
        seed = data.draw(st.integers(0, 2**32 - 1))
        got = kmeans(points, k, seed)
        want = reference_kmeans(points, k, seed)
        assert got == want
        assert repr(got) == repr(want)

    @pytest.mark.parametrize(
        "points, k, seed",
        [
            ([(-4.0, -4.0), (-5.0, 16.0), (-12.0, -9.0), (15.0, 14.0), (-5.0, 18.0)], 3,
             2318828449),
            ([(-19.0, 12.0), (-15.0, -10.0), (3.0, 10.0), (-6.0, -10.0), (9.0, 19.0)], 3,
             336664610),
        ],
    )
    def test_kmeans_reseeds_an_emptied_cluster(self, points, k, seed):
        # found by search: a Lloyd step leaves a cluster without members
        # while a point lies off its center, so that cluster is re-seeded
        # from the farthest point
        got = kmeans(points, k, seed)
        want = reference_kmeans(points, k, seed)
        assert got == want
        assert repr(got) == repr(want)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=1, max_size=12
            ),
            min_size=2,
            max_size=2,
        ),
        st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2, unique=True),
        st.data(),
    )
    def test_kmeans_call_order_does_not_matter(self, cell_sets, seeds, data):
        # every k of both point sets under both seeds, in any order, must give
        # what a fresh eager run gives: no call leaves state another one reads
        point_sets = [[(x * 0.7, y * 0.7) for x, y in cells] for cells in cell_sets]
        calls = [
            (s, seed, k)
            for s, points in enumerate(point_sets)
            for seed in seeds
            for k in range(1, len(points) + 1)
        ]
        for s, seed, k in data.draw(st.permutations(calls)):
            got = kmeans(point_sets[s], k, seed)
            want = reference_kmeans(point_sets[s], k, seed)
            assert got == want
            assert repr(got) == repr(want)

    def test_one_draw_sequence_per_plan(self):
        # the plan builds one draw sequence and every k it tries extends it
        instance = generate_instance(150, seed=1, area=200.0)
        with mock.patch.object(positions, "_Seeding", wraps=positions._Seeding) as seeding, \
                mock.patch.object(positions, "kmeans", wraps=positions.kmeans) as km:
            cover = select_charging_positions(instance)
        assert seeding.call_count == 1
        assert km.call_count >= 1
        assert all(call.args[0] is km.call_args.args[0] for call in km.call_args_list)
        want = reference_select_charging_positions(instance)
        assert same_cover(cover, want)

    def test_plans_in_threads_at_once(self):
        # threads that plan one instance at once each own their draws; every
        # cover must still equal the eager reference
        instance = generate_instance(60, seed=1, area=200.0)
        want = reference_select_charging_positions(instance)
        failures = []

        def work():
            try:
                for rep in range(8):
                    got = select_charging_positions(instance)
                    if not same_cover(got, want):
                        failures.append(rep)
            except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

    @pytest.mark.parametrize("d_max", [20.0, 0.3])
    def test_boundary_pairs_and_triples(self, d_max):
        # a pair exactly 2 d_max apart has radius exactly d_max, which fits
        for span in diameter_specs(d_max):
            for third in ([], [(0.0, 0.0)], [(0.0, span / 2.0)]):
                points = [(-span / 2.0, 0.0), (span / 2.0, 0.0), *third]
                specs = [(p, 0.0, 1.0, 10.0) for p in points]
                instance = make_instance(specs, dmc=DmcParams(d_max=d_max))
                got = select_charging_positions(instance)
                assert same_cover(got, reference_select_charging_positions(instance))
                if span == 2.0 * d_max and len(points) < 3:
                    assert len(got.positions) == 1

    def test_generated_instances(self):
        for seed, area in ((1, 200.0), (4, 2000.0)):
            instance = generate_instance(150, seed=seed, area=area)
            want = reference_select_charging_positions(instance)
            assert same_cover(select_charging_positions(instance), want)

    def test_separated_nodes_cluster_once(self):
        # the bound already equals n, so one k is tried and each node is
        # enclosed once
        d_max = DmcParams().d_max
        specs = [((3.0 * d_max * x, d_max * (x % 2)), 0.0, 1.0, 10.0) for x in range(6)]
        instance = make_instance(specs)
        with mock.patch.object(positions, "kmeans", wraps=positions.kmeans) as km, \
                mock.patch.object(
                    positions, "min_enclosing_circle", wraps=positions.min_enclosing_circle
                ) as welzl:
            cover = select_charging_positions(instance)
        assert len(cover.positions) == instance.n
        assert km.call_count == 1
        assert welzl.call_count == instance.n

    def test_each_cluster_is_enclosed_once(self):
        # successive k often repeat a cluster; its center is kept, not recomputed
        instance = generate_instance(150, seed=1, area=200.0)
        with mock.patch.object(
            positions, "min_enclosing_circle", wraps=positions.min_enclosing_circle
        ) as welzl:
            cover = select_charging_positions(instance)
        enclosed = [tuple(call.args[0]) for call in welzl.call_args_list]
        assert len(enclosed) == len(set(enclosed)) >= len(cover.positions)
        assert same_cover(cover, reference_select_charging_positions(instance))

    def test_k_probes_in_strides_then_scans_the_gap(self):
        instance = generate_instance(120, seed=3, area=200.0)
        with mock.patch.object(positions, "kmeans", wraps=positions.kmeans) as km:
            cover = select_charging_positions(instance)
        points = np.asarray([u.pos for u in node_rows(instance)], dtype=float)
        bound = positions._separated_count(points, instance.dmc.d_max)
        ks = [call.args[1] for call in km.call_args_list]
        k = len(cover.positions)
        # the probes run up to the first at or above k; the gap below it is
        # scanned up to k, and not past the probe
        stride = positions._K_STRIDE
        top = bound - (bound - k) // stride * stride
        probes = list(range(bound, top + 1, stride))
        assert len(probes) > 1
        assert ks == probes + list(range(top - stride + 1, min(k + 1, top)))


def tie_costs(rng, n):
    """Costs 0-3: most gains have many exact ties."""
    return rng.integers(0, 4, (n, n)).astype(float)


def doubled_costs(rng, n):
    """A node-doubled matrix: zero mirror pairs, shifted arcs and huge sentinels."""
    return to_symmetric(cost_graph(tie_costs(rng, n))).cost


@st.composite
def tour_graphs(draw, max_n):
    """Cost graphs of 1 to ``max_n`` points.

    Tie-heavy integers, dyadic eighths up to 8 and node-doubled tie
    matrices, whose sums are all exact; beyond the full candidate lists
    also movement-energy closures.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    full = max_n <= routing._CANDIDATES + 1
    kinds = ["ties", "dyadic", "doubled"] + ([] if full else ["closure"])
    kind = draw(st.sampled_from(kinds))
    if kind == "doubled":
        return cost_graph(doubled_costs(rng, draw(st.integers(1, max_n // 2))))
    n = draw(st.integers(1, max_n))
    if kind == "closure":
        x, y = rng.uniform(0.0, 200.0, (n, 2)).T
        mats = build_routing_matrices(x, y, AsymmetryField(seed=seed), DmcParams())
        return metric_closure(cost_graph(mats.cost))
    if kind == "ties":
        return cost_graph(tie_costs(rng, n))
    return cost_graph(rng.integers(0, 65, (n, n)) / 8.0)


restarts = st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 8))


def assert_no_improving_swap(cost, order):
    assert reference_best_3opt_move(cost, list(order)) is None


class TestSegmentSwapScan:
    """The candidate-list search of ``lk_tour`` against the all-triples scan."""

    @settings(max_examples=300, deadline=None)
    @given(tour_graphs(routing._CANDIDATES + 1), restarts)
    def test_full_lists_leave_no_improving_swap(self, g, restart):
        # every point's list holds every other point, so every swap is seen
        seed, budget = restart
        assert_no_improving_swap(g.cost, lk_tour(g, seed=seed, budget=budget).order)

    @settings(max_examples=100, deadline=None)
    @given(tour_graphs(40), restarts)
    def test_visits_every_point(self, g, restart):
        seed, budget = restart
        tour = lk_tour(g, seed=seed, budget=budget)
        assert tour.order[0] == tour.order[-1] == 0
        assert sorted(tour.order[:-1]) == list(range(g.n))
        assert tour.cost == tour_cost(tour.order, g.cost)

    @settings(max_examples=60, deadline=None)
    @given(tour_graphs(40), restarts)
    def test_same_seed_same_tour(self, g, restart):
        seed, budget = restart
        assert lk_tour(g, seed=seed, budget=budget) == lk_tour(g, seed=seed, budget=budget)

    def test_all_moves_tied(self):
        # every swap trades three tour arcs of cost 2 for three arcs of cost 1,
        # so a tour without a cost-2 arc is optimal
        n = 7
        cost = np.ones((n, n)) - np.eye(n)
        cost[np.arange(n), (np.arange(n) + 1) % n] = 2.0
        tour = lk_tour(cost_graph(cost), budget=0)
        assert tour.cost == held_karp(cost_graph(cost)).cost == 7.0

    def test_seeded_tie_matrices(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            g = cost_graph(tie_costs(rng, 3 + seed % 9))
            assert_no_improving_swap(g.cost, lk_tour(g, seed=seed, budget=seed % 5).order)

    def test_planner_schedules(self):
        # ten nodes 2 km apart each get a position: 11 tour points, full lists
        instance = generate_instance(10, seed=3, area=2000.0)
        tours = []

        def lk_spy(g, *args, **kwargs):
            tours.append((g.cost, lk_tour(g, *args, **kwargs)))
            return tours[-1][1]

        with mock.patch.object(pipeline, "lk_tour", lk_spy):
            got = plan_schedule(instance, seed=3)[0]
        assert got == plan_schedule(instance, seed=3)[0]
        ((cost, tour),) = tours
        assert len(cost) == 11
        assert_no_improving_swap(cost, tour.order)
