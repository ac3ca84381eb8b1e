"""Reference versions that the faster library code must reproduce.

The paper's transfer model for one sector and one node, with its scalar
angle helpers (``normalize_angle``, ``angular_distance``,
``transfer_coefficient``), behind ``directions.normalize_angles``,
``directions.off_axis``, ``directions.covers`` and the coverage kernel
(``directions.near_pairs`` then ``directions.coverage_math``).  The
straightforward one-pair-at-a-time and one-node-at-a-time loops behind
``model.TravelArcs.row`` (one blake2b of the whole key per pair),
``model.build_routing_matrices``, the coverage kernel,
``directions.build_coefficient_matrix`` (the event sweep that tests every
node at every arc midpoint) and ``pipeline.execute_schedule``, whose
item checks and move pricing have a per-item loop version here too, both
replays ending in the one energy ledger ``reference_ledger``; the cover
that encloses every cluster of every k from k = 1, behind
``positions.select_charging_positions``; the nearest-neighbor tour that
takes a Python ``min`` over the unvisited set, behind
``routing.greedy_tour``; the one-to-one baseline that hashes every
ordered pair into full routing matrices before that tour, behind
``pipeline.one_to_one_schedule``; and the pair-by-pair fill of the doubled
matrix behind ``routing.to_symmetric``.  These must agree bit for bit.

The node-by-node draws behind ``cli.generate_instance``, which draws
positions a rejection round at a time and energies in one array, and the
per-node checks behind ``model.check_nodes``, must agree too: the same
columns bit for bit, and the same fault for the same columns.

The two-phase primal simplex behind ``timing.solve_lp`` is the objective
oracle for the dual simplex there: both reach an optimal vertex, but not
always the same one, so they agree on objective, not on ``t``; where the
oracle finds the program infeasible, ``solve_lp`` must raise.
It reads its tolerances and limits from ``timing`` when it runs, so a test
that changes them changes both sides.

The running ``+=`` over a tour's arcs, behind ``routing.tour_cost``, must
agree with it bit for bit, and prices the nearest-neighbor oracle's tour.

The best segment swap over all cut triples is the local-optimality oracle
for ``routing.lk_tour``, whose candidate-list search scans only a few
arcs per point: once the lists hold every other point, no swap may improve
a tour it returns.
"""

import contextlib
import dataclasses
import hashlib
import math
import struct

import numpy as np

from asymcharge import cli, model, pipeline, positions, routing, timing
from asymcharge.model import AsymmetryField, DmcParams, NetworkInstance, Point
from asymcharge.errors import MalformedScheduleError, ValidationError
from asymcharge.pipeline import MOVE, TRANSMIT, OperationSchedule, ScheduleItem, ScheduleMetrics
from asymcharge.positions import ChargingPositionSet
from asymcharge.routing import DirectedCostGraph, Tour
from asymcharge.timing import LpProblem, LpSolution
from support import Node, columns, instance_of, node_rows, schedule_of


def normalize_angle(a: float) -> float:
    """Map an angle to [0, 2*pi)."""
    a = math.fmod(a, model.TWO_PI)
    if a < 0.0:
        a += model.TWO_PI
    return 0.0 if a >= model.TWO_PI else a


def angular_distance(a: float, b: float) -> float:
    """Circular distance between two angles, in [0, pi]."""
    d = abs(normalize_angle(a) - normalize_angle(b))
    return min(d, model.TWO_PI - d)


def transfer_coefficient(psi: float, phi: float, theta: float, d: float, dmc: DmcParams) -> float:
    """Energy transfer coefficient from a charger sector to a node.

    Nonzero only when the node is within charge distance and its direction
    lies inside the closed sector [psi - phi/2, psi + phi/2].  A node at the
    sector apex (d = 0) counts as covered for every direction.
    """
    if d < 0:
        raise ValidationError("distance must be nonnegative")
    if d > dmc.d_max:
        return 0.0
    if d > 0.0 and angular_distance(theta, psi) > phi / 2.0:
        return 0.0
    return dmc.delta / (dmc.alpha + d) ** dmc.beta


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
    """(dist, cost) from one coefficient lookup per ordered pair.

    An arc's movement energy is its distance times its rate ``k_egy * w0``.
    """
    n = len(positions)
    dist = np.zeros((n, n))
    cost = np.zeros((n, n))
    for i, a in enumerate(positions):
        for j, b in enumerate(positions):
            if i == j:
                continue
            k_dis, k_egy = reference_coefficients(asym, a, b)
            dist[i, j] = k_dis * math.hypot(a[0] - b[0], a[1] - b[1])
            cost[i, j] = dist[i, j] * (k_egy * dmc.w0)
    return dist, cost


def reference_nodes_in_range(
    pos: Point, instance: NetworkInstance
) -> tuple[list[int], list[float], list[float]]:
    """Ids, bearings and distances from one ``math.hypot`` test per node."""
    ids, thetas, dists = [], [], []
    for u in node_rows(instance):
        dx = u.pos[0] - pos[0]
        dy = u.pos[1] - pos[1]
        d = math.hypot(dx, dy)
        if d <= instance.dmc.d_max:
            ids.append(u.id)
            thetas.append(normalize_angle(math.atan2(dy, dx)) if d > 0.0 else 0.0)
            dists.append(d)
    return ids, thetas, dists


def reference_maximal_sectors(
    ids: list[int], thetas: list[float], dists: list[float], phi: float
) -> list[tuple[float, frozenset[int]]]:
    """``(psi, covered)`` for each maximal coverage subset, sorted by psi.

    Takes the lists ``reference_nodes_in_range`` returns.  Sweeps the event
    angles where some node enters or leaves the sector, samples the coverage
    subset at the midpoint of every arc between events, and keeps one
    direction per coverage subset that is maximal under set inclusion (the
    smallest qualifying midpoint when several arcs tie).  A node at the apex
    is covered by every direction; with no other node in range, psi is 0.
    """
    half = phi / 2.0
    events = sorted(
        {normalize_angle(th + s * half) for th, d in zip(thetas, dists) if d > 0.0 for s in (-1.0, 1.0)}
    )
    if not events:
        return [(0.0, frozenset(ids))] if ids else []
    m = len(events)
    candidates: dict[frozenset[int], float] = {}
    for i, e in enumerate(events):
        nxt = events[i + 1] if i + 1 < m else events[0] + model.TWO_PI
        mid = normalize_angle((e + nxt) / 2.0)
        covered = frozenset(
            j for j, th, d in zip(ids, thetas, dists) if d == 0.0 or angular_distance(th, mid) <= half
        )
        if covered and (covered not in candidates or mid < candidates[covered]):
            candidates[covered] = mid
    maximal = [(mid, c) for c, mid in candidates.items() if not any(c < t for t in candidates)]
    return sorted(maximal, key=lambda pair: pair[0])


def reference_coefficient_matrix(
    cover: ChargingPositionSet, instance: NetworkInstance
) -> tuple[list[tuple[int, float, frozenset[int]]], np.ndarray]:
    """(position, psi, covered) per row and the entries, one node at a time."""
    dmc = instance.dmc
    rows, entries = [], []
    for pi, pos in enumerate(cover.positions):
        ids, thetas, dists = reference_nodes_in_range(pos, instance)
        reach = dict(zip(ids, zip(thetas, dists)))
        for psi, covered in reference_maximal_sectors(ids, thetas, dists, dmc.phi):
            row = np.zeros(instance.n)
            for j in covered:
                row[j] = transfer_coefficient(psi, dmc.phi, *reach[j], dmc)
            rows.append((pi, psi, covered))
            entries.append(row)
    return rows, np.array(entries) if entries else np.zeros((0, instance.n))


def reference_ledger(
    instance: NetworkInstance,
    received_raw: np.ndarray,
    tran_time: float,
    move_energy: float,
    move_time: float,
    distance: float,
) -> ScheduleMetrics:
    """The metrics of a replay from its per-node received energy and its totals.

    Each node banks its received energy up to its capacity.  The charger
    sends ``p0`` times the charging time and spends that plus the movement
    energy; the total loss is what it spends minus what the nodes bank, the
    charging loss what it sends minus that.  The schedule is feasible when
    every node ends within 1e-6 J of its initial energy plus demand, or
    above, and the charger's battery covers what it spends.
    """
    dmc = instance.dmc
    e_f = np.minimum(instance.e_b + received_raw, instance.e_c)
    banked = float(np.sum(e_f - instance.e_b))
    sent = dmc.p0 * tran_time
    spent = sent + move_energy
    demand_met = bool(np.all(e_f >= instance.e_b + instance.e_d - 1e-6))
    return ScheduleMetrics(
        total_energy_loss=spent - banked,
        charging_energy_loss=sent - banked,
        movement_energy=move_energy,
        tour_distance=distance,
        time_span=move_time + tran_time,
        charging_time=tran_time,
        moving_time=move_time,
        algorithm_runtime=0.0,
        received_total=banked,
        feasible=demand_met and dmc.e_b0 - spent >= 0.0,
    )


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
            for u in node_rows(instance):
                dx = u.pos[0] - item.pos[0]
                dy = u.pos[1] - item.pos[1]
                d = math.hypot(dx, dy)
                if d > dmc.d_max:
                    continue
                theta = normalize_angle(math.atan2(dy, dx)) if d > 0 else 0.0
                c = transfer_coefficient(item.psi, dmc.phi, theta, d, dmc)
                received_raw[u.id] += dmc.p0 * c * item.t
        else:
            raise MalformedScheduleError(f"item {idx}: unknown state {item.state}")

    return reference_ledger(instance, received_raw, tran_time, move_energy, move_time, distance)


def loop_execute_schedule(
    instance: NetworkInstance, schedule: OperationSchedule
) -> ScheduleMetrics:
    """The replay with its item checks and move pricing as per-item loops.

    The items are checked one by one up to the first fault; a running
    ``+=`` adds the moves before the first wrong one, each with a scalar
    ``_rounding`` tolerance; the credits come from ``pipeline._received``.
    Faults, messages and metrics are those ``execute_schedule`` must give.
    """
    dmc = instance.dmc
    ends = [model.snap9_point(instance.bs_pos)]  # the charger's start, then each move's end
    moves: list[tuple[int, float]] = []  # (item index, duration) per move
    tran_time = 0.0
    stops: dict[Point, int] = {}  # distinct transmit positions, first seen first
    sends: list[tuple[int, int, float, float]] = []  # (item index, stop, psi, duration)
    faults: list[tuple[int, ValidationError]] = []  # (item index, fault)
    try:
        for idx, item in enumerate(schedule.items):
            if not all(map(math.isfinite, (item.pos[0], item.pos[1], item.psi, item.t))):
                raise MalformedScheduleError(f"item {idx}: non-finite position, direction or duration")
            if item.t < 0:
                raise MalformedScheduleError(f"item {idx}: negative duration")
            if item.state == MOVE:
                moves.append((idx, item.t))
                ends.append(item.pos)
            elif item.state == TRANSMIT:
                if tuple(item.pos) != tuple(ends[-1]):
                    raise MalformedScheduleError(
                        f"item {idx}: transmits from {item.pos} but the charger is at {ends[-1]}"
                    )
                tran_time += item.t
                sends.append((idx, stops.setdefault(tuple(item.pos), len(stops)), item.psi, item.t))
            else:
                raise MalformedScheduleError(f"item {idx}: unknown state {item.state}")
    except MalformedScheduleError as exc:
        faults.append((idx, exc))

    move_energy = move_time = distance = 0.0
    if moves:
        try:
            arcs = model.TravelArcs(*columns(ends), instance.asym, dmc)
        except ValidationError as exc:
            with contextlib.suppress(ValidationError):
                for cut, p in enumerate(ends):
                    instance.asym.quantize(p)
            faults.append((moves[max(cut - 1, 0)][0], exc))
            del ends[cut:], moves[max(cut - 1, 0) :]
            arcs = model.TravelArcs(*columns(ends), instance.asym, dmc)
        m = len(moves)
        with np.errstate(over="ignore", invalid="ignore"):
            k_dis, span, k_egy = arcs.row(np.arange(m), np.arange(1, m + 1))
            d = k_dis * span
            energy = d * k_egy * dmc.w0
        shifts = [(pipeline._rounding(x), pipeline._rounding(y)) for x, y in ends]
        for (idx, stated), (a0, a1), (b0, b1), k, dk, ek in zip(
            moves, shifts, shifts[1:], k_dis.tolist(), d.tolist(), energy.tolist()
        ):
            t = dk / dmc.v_bar
            if not math.isfinite(t):
                problem = "travel time is not finite"
            elif not math.isfinite(ek):
                problem = "move energy is not finite"
            elif abs(t - stated) > pipeline._rounding(t) + k * (a0 + a1 + b0 + b1) / dmc.v_bar + math.ulp(t):
                problem = f"duration {stated:.9g} s does not match travel time {t:.9g} s"
            else:
                move_energy += ek
                move_time += stated
                distance += dk
                continue
            faults.append((idx, MalformedScheduleError(f"item {idx}: {problem}")))
            break

    received_raw = np.zeros(instance.n)
    if sends:
        _, stop, psi, t = (np.array(column) for column in zip(*sends))
        received_raw, bad = pipeline._received(
            instance, *columns(list(stops)), stop, psi.astype(float), t.astype(float)
        )
        if bad is not None:
            idx = sends[bad][0]
            faults.append((idx, MalformedScheduleError(f"item {idx}: credited energy is not finite")))
    if faults:
        raise min(faults, key=lambda fault: fault[0])[1]

    metrics = reference_ledger(instance, received_raw, tran_time, move_energy, move_time, distance)
    if not all(map(math.isfinite, dataclasses.astuple(metrics))):
        raise MalformedScheduleError("the schedule's energy or time totals are not finite")
    return metrics


_FEAS_TOL = 1e-7  # phase-1 objective above which the program is infeasible


def reference_solve_lp(problem: LpProblem) -> tuple[LpSolution, str]:
    """Optimal transmission times for a well-formed covering program, and a status.

    The status is "optimal" or "infeasible"; an infeasible program comes
    with all times zero.  Variables whose constraint column is all-zero
    cannot help any node and are fixed at zero before solving.
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
        return LpSolution(t=t_full, objective=0.0), "optimal"
    if useful.size == 0:
        return LpSolution(t=t_full, objective=0.0), "infeasible"

    x, status = _reference_simplex_min(a[np.ix_(rows, useful)], b[rows])
    if status != "optimal":
        return LpSolution(t=t_full, objective=0.0), status
    x[(x < 0.0) & (x > -1e-12)] = 0.0
    t_full[useful] = x
    return LpSolution(t=t_full, objective=float(t_full.sum())), "optimal"


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
    if float(tab[:, -1] @ cost1[basis]) > _FEAS_TOL:
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


def reference_kmeans(points: list[Point], k: int, seed: int) -> list[tuple[int, ...]]:
    """Member ids of each nonempty cluster after k-means++ seeding and Lloyd iteration.

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
        if ids.size:
            clusters.append(tuple(int(i) for i in ids))
    return clusters


def reference_fitted_cover(
    points: list[Point], clusters: list[tuple[int, ...]], d_max: float
) -> ChargingPositionSet | None:
    """The clusters' 9-digit Welzl centers, if every member lies within ``d_max`` of its own.

    Encloses every cluster, with no width test and no early exit.
    """
    centers = [
        model.snap9_point(positions.min_enclosing_circle([points[i] for i in ids])[0])
        for ids in clusters
    ]
    if not all(
        math.hypot(points[i][0] - c[0], points[i][1] - c[1]) <= d_max
        for ids, c in zip(clusters, centers)
        for i in ids
    ):
        return None
    return ChargingPositionSet(positions=tuple(centers))


def reference_select_charging_positions(instance: NetworkInstance) -> ChargingPositionSet:
    """Smallest cluster count whose clusters all fit the charge range.

    Tries k = 1, 2, ... in order; the first k where every cluster lies within
    the charge distance of its circle center rounded to 9 digits wins, and
    those rounded centers become the charging positions.  Seeding comes from
    the low 64 bits of the instance's asymmetry seed, so the result is a pure
    function of the instance.
    """
    node_points = [u.pos for u in node_rows(instance)]
    seed = instance.asym.seed & 0xFFFF_FFFF_FFFF_FFFF
    for k in range(1, instance.n + 1):
        clusters = reference_kmeans(node_points, k, seed)
        cover = reference_fitted_cover(node_points, clusters, instance.dmc.d_max)
        if cover is not None:
            return cover
    raise AssertionError("unreachable: singleton clusters always fit at distance 0")


def reference_best_3opt_move(
    cost: np.ndarray, order: list[int]
) -> tuple[float, int, int, int] | None:
    """Best orientation-preserving segment swap over all cut triples.

    Cutting after positions i < j < k and reconnecting the three directed
    segments in swapped order changes exactly three arcs; every segment keeps
    its internal orientation, so the move is valid under asymmetric costs.
    Covers single-segment reinsertion (any length) as a special case.
    """
    n = len(order) - 1  # order[-1] == order[0]
    if n < 3:
        return None
    t = np.array(order[:n])
    nxt = np.array(order[1 : n + 1])
    removed = cost[t, nxt]
    arc = cost[t[:, None], nxt[None, :]]  # arc[x, y] = cost(t_x -> t_{y+1})
    pos = np.arange(n)
    after = pos[None, :] > pos[:, None]
    best_gain = routing._GAIN_EPS
    best = None
    for i in range(n - 2):
        # gain[j, k] = removed_i + removed_j + removed_k
        #            - arc(i -> j+1) - arc(k -> i+1) - arc(j -> k+1)
        gain = removed[i] + (removed - arc[i])[:, None] + (removed - arc[:, i])[None, :] - arc
        valid = after & (pos[:, None] > i)
        gain = np.where(valid, gain, -np.inf)
        j, k = np.unravel_index(int(np.argmax(gain)), gain.shape)
        if gain[j, k] > best_gain:
            best_gain = float(gain[j, k])
            best = (best_gain, i, int(j), int(k))
    return best


def reference_tour_cost(order, cost: np.ndarray) -> float:
    """The tour's arc costs, added one at a time by a running ``+=``."""
    total = 0.0
    for a, b in zip(order, order[1:]):
        total += float(cost[a, b])
    return total


def reference_greedy_tour(g: DirectedCostGraph) -> Tour:
    """Nearest-neighbor cycle from index 0 on outgoing costs, lowest index on ties."""
    n = g.n
    if n == 1:
        return Tour((0, 0), 0.0)
    unvisited = set(range(1, n))
    order = [0]
    while unvisited:
        here = order[-1]
        nxt = min(unvisited, key=lambda j: (g.cost[here, j], j))
        order.append(nxt)
        unvisited.remove(nxt)
    order.append(0)
    return Tour(tuple(order), reference_tour_cost(order, g.cost))


def reference_symmetric_cost(g: DirectedCostGraph) -> np.ndarray:
    """The doubled cost matrix of ``routing.to_symmetric``, filled one pair at a time."""
    n = g.n
    bonus = float(g.cost.sum()) + 1.0
    shifted = g.cost + bonus
    off_diag_total = float(shifted.sum()) - float(np.trace(shifted))
    sym = np.full((2 * n, 2 * n), 2.0 * (2.0 * off_diag_total) + 1.0)
    for i in range(n):
        sym[i, i + n] = sym[i + n, i] = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                sym[i + n, j] = sym[j, i + n] = shifted[i, j]
    np.fill_diagonal(sym, 0.0)
    return sym


def reference_one_to_one_schedule(instance: NetworkInstance) -> OperationSchedule:
    """The baseline schedule from full routing matrices and the set-scan tour."""
    dmc = instance.dmc
    targets = [u for u in node_rows(instance) if u.e_d > 0]
    items = []
    if targets:
        points = [model.snap9_point(instance.bs_pos)] + [u.pos for u in targets]
        mats = model.build_routing_matrices(points, instance.asym, dmc)
        tour = reference_greedy_tour(routing.cost_graph(mats.cost))
        for a, b in zip(tour.order, tour.order[1:]):
            if a == b:
                continue
            items.append(ScheduleItem(MOVE, points[b], 0.0, float(mats.dist[a, b]) / dmc.v_bar))
            if b != 0:
                u = targets[b - 1]
                t = u.e_d / (dmc.p0 * dmc.apex_coefficient)
                items.append(ScheduleItem(TRANSMIT, u.pos, 0.0, t))
    return schedule_of(items)


def reference_check_nodes(x, y, e_b, e_d, e_c) -> None:
    """The node checks behind ``model.check_nodes``: node after node, each check in turn."""
    columns = (x, y, e_b, e_d, e_c)
    for i, values in enumerate(zip(*(np.asarray(c, dtype=float).tolist() for c in columns))):
        _, _, b, d, c = values
        if not all(map(math.isfinite, values)):
            raise ValidationError(f"node {i}: position and energies must be finite")
        if b < 0 or d < 0:
            raise ValidationError(f"node {i}: energies must be nonnegative")
        if c <= 0:
            raise ValidationError(f"node {i}: capacity must be positive")
        if b + d > c + 1e-9:
            raise ValidationError(
                f"node {i}: initial energy + demand exceeds capacity ({b} + {d} > {c})"
            )


def _reference_draw_energies(rng: np.random.Generator) -> tuple[float, float, float]:
    """One node's snapped (e_b, e_d, e_c), its demand clamped to the headroom."""
    e_c = model.snap9(rng.uniform(60.0, 90.0))
    e_b = model.snap9(rng.uniform(6.0, 36.0))
    e_d = model.snap9(rng.uniform(18.0, 75.0))
    headroom = e_c - e_b
    if e_d > headroom:
        e_d = cli._snap9_down(headroom)
    return e_b, e_d, e_c


def reference_generate_instance(
    n: int, seed: int, area: float = 200.0, avoid_bs_disc: bool = False
) -> NetworkInstance:
    """The node-by-node draws behind ``cli.generate_instance``, with its checks.

    One position draw per loop turn, re-drawn inside the base station's
    disc with ``avoid_bs_disc``, up to ``cli._AVOID_DRAWS`` draws per node
    (read when called), then three scalar energy draws per node.
    """
    if n < 1:
        raise ValidationError("need at least one node")
    if not (math.isfinite(area) and area >= 0.0):
        raise ValidationError(f"area must be finite and nonnegative, got {area}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    dmc = DmcParams()
    bs = (model.snap9(area / 2.0), model.snap9(area / 2.0))
    if avoid_bs_disc and all(
        math.hypot(x - bs[0], y - bs[1]) <= dmc.d_max for x in (0.0, area) for y in (0.0, area)
    ):
        raise ValidationError(
            f"no point of the {area} m square lies farther than {dmc.d_max} m from the base station"
        )
    rng = np.random.default_rng(seed)
    positions: list[Point] = []
    draws = 0
    while len(positions) < n:
        if draws == cli._AVOID_DRAWS * n:
            raise ValidationError(
                f"{cli._AVOID_DRAWS * n} draws placed only {len(positions)} of {n} nodes farther "
                f"than {dmc.d_max} m from the base station in the {area} m square"
            )
        draws += 1
        x, y = rng.uniform(0.0, area, size=2)
        if avoid_bs_disc and math.hypot(x - bs[0], y - bs[1]) <= dmc.d_max:
            continue
        positions.append((model.snap9(x), model.snap9(y)))
    nodes = [Node(i, pos, *_reference_draw_energies(rng)) for i, pos in enumerate(positions)]
    return instance_of(nodes, bs, dmc, AsymmetryField(seed=seed))
