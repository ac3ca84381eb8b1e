"""Reference versions that the faster library code must reproduce bit for bit.

The straightforward one-pair-at-a-time and one-node-at-a-time loops behind
``model.ra_coefficients``, ``model.build_routing_matrices``,
``directions.nodes_in_range`` and ``pipeline.execute_schedule``; the simplex
that updates the whole tableau on every pivot, behind ``timing.solve_lp``;
and the cover that encloses every cluster of every k, behind
``positions.select_charging_positions``.  The simplex reads its tolerances
and limits from ``timing`` when it runs, so a test that changes them changes
both sides.
"""

import hashlib
import math
import struct

import numpy as np

from asymcharge import model, positions, timing
from asymcharge.model import AsymmetryField, DmcParams, NetworkInstance, Point
from asymcharge.errors import MalformedScheduleError, ValidationError
from asymcharge.pipeline import MOVE, TRANSMIT, OperationSchedule, ScheduleMetrics
from asymcharge.positions import ChargingPositionSet, Cluster
from asymcharge.timing import LpProblem, LpSolution


def reference_coefficients(asym: AsymmetryField, a: Point, b: Point) -> tuple[float, float]:
    """(k_dis, k_egy) from one blake2b of the packed seed and both cells."""
    qa = asym.quantize(a)
    qb = asym.quantize(b)
    if qa == qb:
        return (1.0, 1.0)
    if asym.overrides is not None:
        hit = asym.overrides.get((qa, qb))
        if hit is not None:
            return hit
    key = struct.pack("<Q4q", asym.seed & 0xFFFFFFFFFFFFFFFF, qa[0], qa[1], qb[0], qb[1])
    digest = hashlib.blake2b(key, digest_size=16).digest()
    u1 = int.from_bytes(digest[:8], "little") / 2.0**64
    u2 = int.from_bytes(digest[8:], "little") / 2.0**64
    d_lo, d_hi = asym.k_dis_range
    e_lo, e_hi = asym.k_egy_range
    return (d_lo + u1 * (d_hi - d_lo), e_lo + u2 * (e_hi - e_lo))


def reference_routing_matrices(
    positions: list[Point], asym: AsymmetryField, dmc: DmcParams
) -> tuple[np.ndarray, np.ndarray]:
    """(dist, egy_rate) from one coefficient lookup per ordered pair."""
    n = len(positions)
    dist = np.zeros((n, n))
    rate = np.zeros((n, n))
    for i, a in enumerate(positions):
        for j, b in enumerate(positions):
            if i == j:
                continue
            k_dis, k_egy = reference_coefficients(asym, a, b)
            dist[i, j] = k_dis * math.hypot(a[0] - b[0], a[1] - b[1])
            rate[i, j] = k_egy * dmc.w0
    return dist, rate


def reference_nodes_in_range(
    pos: Point, instance: NetworkInstance
) -> tuple[list[int], list[float], list[float]]:
    """Ids, bearings and distances from one ``math.hypot`` test per node."""
    ids, thetas, dists = [], [], []
    for u in instance.nodes:
        dx = u.pos[0] - pos[0]
        dy = u.pos[1] - pos[1]
        d = math.hypot(dx, dy)
        if d <= instance.dmc.d_max:
            ids.append(u.id)
            thetas.append(model.normalize_angle(math.atan2(dy, dx)) if d > 0.0 else 0.0)
            dists.append(d)
    return ids, thetas, dists


def reference_execute_schedule(
    instance: NetworkInstance, schedule: OperationSchedule
) -> ScheduleMetrics:
    """Replay that checks every node against every transmission."""
    dmc = instance.dmc
    here = model.snap9_point(instance.bs_pos)
    received_raw = np.zeros(instance.n)
    move_energy = 0.0
    move_time = 0.0
    tran_time = 0.0
    distance = 0.0
    for idx, item in enumerate(schedule.items):
        if item.state == MOVE:
            k_dis, k_egy = reference_coefficients(instance.asym, here, item.pos)
            d = k_dis * math.hypot(here[0] - item.pos[0], here[1] - item.pos[1])
            if abs(d / dmc.v_bar - item.t) > 1e-6:
                raise MalformedScheduleError(f"item {idx}: duration does not match")
            move_energy += d * k_egy * dmc.w0
            move_time += item.t
            distance += d
            here = item.pos
        elif item.state == TRANSMIT:
            tran_time += item.t
            for u in instance.nodes:
                dx = u.pos[0] - item.pos[0]
                dy = u.pos[1] - item.pos[1]
                d = math.hypot(dx, dy)
                if d > dmc.d_max:
                    continue
                theta = model.normalize_angle(math.atan2(dy, dx)) if d > 0 else 0.0
                c = model.transfer_coefficient(item.psi, dmc.phi, theta, d, dmc)
                received_raw[u.id] += dmc.p0 * c * item.t
        else:
            raise MalformedScheduleError(f"item {idx}: unknown state {item.state}")

    ledger = model.energy_accounting(
        instance.e_b_vector(), instance.e_c_vector(), received_raw, tran_time, move_energy, dmc
    )
    demand_met = bool(
        np.all(ledger.e_f >= instance.e_b_vector() + instance.e_d_vector() - 1e-6)
    )
    return ScheduleMetrics(
        total_energy_loss=ledger.e_total_loss,
        charging_energy_loss=ledger.e_wpt_loss,
        movement_energy=ledger.e_mc_move,
        tour_distance=distance,
        time_span=move_time + tran_time,
        charging_time=tran_time,
        moving_time=move_time,
        algorithm_runtime=0.0,
        received_total=ledger.e_nodes_rcv,
        feasible=demand_met,
    )


def reference_solve_lp(problem: LpProblem) -> LpSolution:
    """Optimal transmission times for a well-formed covering program.

    Variables whose constraint column is all-zero cannot help any node and
    are fixed at zero before solving.
    """
    a = np.asarray(problem.a, dtype=float)
    b = np.asarray(problem.b, dtype=float)
    if a.ndim != 2 or b.shape != (a.shape[0],):
        raise ValidationError("constraint matrix and demand vector shapes disagree")
    if np.any(b < 0):
        raise ValidationError("demands must be nonnegative")

    k_all = a.shape[1]
    useful = np.flatnonzero(np.any(a > 0.0, axis=0))
    t_full = np.zeros(k_all)
    rows = np.flatnonzero(b > 0.0)  # zero-demand rows are satisfied by t = 0
    if rows.size == 0:
        return LpSolution(t=t_full, objective=0.0, status="optimal")
    if useful.size == 0:
        return LpSolution(t=t_full, objective=0.0, status="infeasible")

    x, status = _reference_simplex_min(a[np.ix_(rows, useful)], b[rows])
    if status != "optimal":
        return LpSolution(t=t_full, objective=0.0, status=status)
    x[(x < 0.0) & (x > -1e-12)] = 0.0
    t_full[useful] = x
    return LpSolution(t=t_full, objective=float(t_full.sum()), status="optimal")


def _reference_simplex_min(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, str]:
    """Two-phase tableau simplex for min 1'x, a x >= b, x >= 0 (a, b >= 0)."""
    m, n = a.shape
    # columns: n structural | m surplus | m artificial | rhs
    tab = np.zeros((m, n + 2 * m + 1))
    tab[:, :n] = a
    tab[:, n : n + m] = -np.eye(m)
    tab[:, n + m : n + 2 * m] = np.eye(m)
    tab[:, -1] = b
    basis = list(range(n + m, n + 2 * m))

    cost1 = np.zeros(n + 2 * m)
    cost1[n + m :] = 1.0
    if not _reference_run_simplex(tab, basis, cost1, allowed=n + 2 * m):
        raise RuntimeError("simplex pivot limit exceeded in phase 1")
    if float(tab[:, -1] @ cost1[basis]) > timing._FEAS_TOL:
        return np.zeros(n), "infeasible"
    _reference_drive_out_artificials(tab, basis, n + m)

    cost2 = np.zeros(n + 2 * m)
    cost2[:n] = 1.0
    if not _reference_run_simplex(tab, basis, cost2, allowed=n + m):
        raise RuntimeError("simplex pivot limit exceeded in phase 2")

    x = np.zeros(n)
    for row, var in enumerate(basis):
        if var < n:
            x[var] = tab[row, -1]
    return x, "optimal"


def _reference_run_simplex(tab: np.ndarray, basis: list[int], cost: np.ndarray, allowed: int) -> bool:
    """Pivot to optimality in place; returns False only on a pivot-limit stall."""
    m = tab.shape[0]
    stall = 0
    bland = False
    last_obj = np.inf
    for _ in range(timing._MAX_PIVOTS):
        reduced = cost[:allowed] - cost[basis] @ tab[:, :allowed]
        if bland:
            entering_candidates = np.flatnonzero(reduced < -timing._EPS)
            if entering_candidates.size == 0:
                return True
            col = int(entering_candidates[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -timing._EPS:
                return True
        column = tab[:, col]
        positive = column > timing._EPS
        if not np.any(positive):
            # unbounded direction: impossible for these programs (cost >= 0,
            # feasible region in the positive orthant), treat as failure
            return False
        ratios = np.full(m, np.inf)
        ratios[positive] = np.maximum(tab[positive, -1], 0.0) / column[positive]
        best = ratios.min()
        tie_rows = np.flatnonzero(ratios <= best + timing._EPS * (1.0 + best))
        row = int(min(tie_rows, key=lambda r: basis[r]))

        pivot = tab[row, col]
        tab[row] /= pivot
        factors = tab[:, col].copy()
        factors[row] = 0.0
        tab -= np.outer(factors, tab[row])
        basis[row] = col

        obj = float(cost[basis] @ tab[:, -1])
        if obj < last_obj - timing._EPS:
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > timing._STALL_LIMIT:
                bland = True
        last_obj = obj
    return False


def _reference_drive_out_artificials(tab: np.ndarray, basis: list[int], n_real: int) -> None:
    """Pivot zero-level artificial variables out of the basis where possible."""
    for row, var in enumerate(basis):
        if var < n_real:
            continue
        candidates = np.flatnonzero(np.abs(tab[row, :n_real]) > timing._EPS)
        if candidates.size == 0:
            continue  # redundant constraint; the artificial stays at level 0
        col = int(candidates[0])
        pivot = tab[row, col]
        tab[row] /= pivot
        factors = tab[:, col].copy()
        factors[row] = 0.0
        tab -= np.outer(factors, tab[row])
        basis[row] = col


def reference_kmeans(points: list[Point], k: int, seed: int) -> list[Cluster]:
    """Lloyd iteration from k-means++ seeding; clusters carry their enclosing circle.

    Stops when assignments stabilize or after 100 iterations.  A cluster that
    loses all members is re-seeded from the point currently farthest from its
    assigned center.  Empty clusters remaining at convergence (possible with
    duplicate points) are dropped.
    """
    n = len(points)
    if not 1 <= k <= n:
        raise ValidationError(f"cluster count must be in 1..{n}, got {k}")
    pts = np.asarray(points, dtype=float)
    rng = np.random.default_rng(seed)

    centers = np.empty((k, 2))
    centers[0] = pts[rng.integers(n)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = int(rng.integers(n))
        centers[c] = pts[idx]
        d2 = np.minimum(d2, ((pts - centers[c]) ** 2).sum(axis=1))

    assign = np.full(n, -1, dtype=int)
    for _ in range(positions._KMEANS_MAX_ITER):
        dist2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = dist2.argmin(axis=1)
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
            centers[empty[0]] = pts[far]
            dist2[:, empty[0]] = ((pts - centers[empty[0]]) ** 2).sum(axis=1)
            new_assign = dist2.argmin(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = pts[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)

    clusters = []
    for c in range(k):
        ids = np.flatnonzero(assign == c)
        if ids.size == 0:
            continue
        center, radius = positions.min_enclosing_circle([tuple(pts[i]) for i in ids])
        clusters.append(Cluster(tuple(int(i) for i in ids), center, radius))
    return clusters


def reference_select_charging_positions(instance: NetworkInstance) -> ChargingPositionSet:
    """Smallest cluster count whose enclosing circles all fit the charge range.

    Tries k = 1, 2, ... in order; the first k where every cluster's enclosing
    circle has radius at most the charge distance wins, and the circle centers
    become the charging positions.  Seeding comes from the instance's
    asymmetry seed, so the result is a pure function of the instance.
    """
    node_points = [u.pos for u in instance.nodes]
    d_max = instance.dmc.d_max
    for k in range(1, instance.n + 1):
        clusters = reference_kmeans(node_points, k, seed=instance.asym.seed)
        if all(cl.radius <= d_max for cl in clusters):
            assignment = [0] * instance.n
            for ci, cl in enumerate(clusters):
                for nid in cl.member_ids:
                    assignment[nid] = ci
            return ChargingPositionSet(
                positions=tuple(cl.center for cl in clusters),
                assignment=tuple(assignment),
            )
    raise AssertionError("unreachable: singleton clusters always have radius 0")
