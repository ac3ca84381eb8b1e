"""Loop tour construction over directed movement-energy costs.

Sub-loop tours are handled by taking the metric closure first (all-pairs
shortest directed paths) and expanding closure arcs back into witness paths
afterwards.  Solvers: nearest-neighbor, a segment-swap (orientation-
preserving 3-opt) local search with seeded double-bridge restarts, an
exact subset-DP oracle for small point counts, and a symmetric
node-doubling reformulation of the directed problem.  Every solver prices
its tour with ``tour_cost``: the tour's arc costs, added in tour order as a
running ``+=`` adds them, as a Python float.

The local search follows LKH (Helsgaun, EJOR 2000): each point keeps its
``_CANDIDATES`` cheapest outgoing arcs, a move's new arcs are drawn from
those lists while the partial gain stays positive, and don't-look bits
confine each descent to the points whose arcs a move or a restart changed.

Nearest-neighbor reads a full ``DirectedCostGraph`` or the lazy travel
arcs of the one-to-one baseline, through the members it names.  Each point
gets a window of ``_WINDOW`` near targets, priced in bulk, with a floor
under every arc it leaves out, so most steps settle in plain Python; the
rest price only the arcs whose lower bound a step cannot rule out.
"""

from __future__ import annotations

import math
import random
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import MalformedTourError, ValidationError

_GAIN_EPS = 1e-9
_CANDIDATES = 10  # outgoing candidate arcs kept per point
_WINDOW = 8  # near targets per point that greedy_tour prices in one kernel call
_HELD_KARP_MAX = 14


@dataclass(frozen=True)
class DirectedCostGraph:
    cost: np.ndarray  # (n, n) directed costs, zero diagonal
    next_hop: np.ndarray  # (n, n) first hop of a cheapest path, identity-ish

    @property
    def n(self) -> int:
        return self.cost.shape[0]

    def arc_costs(self, i: int, js) -> np.ndarray:
        return self.cost[i].take(js)

    lower_bounds = arc_costs  # a full matrix is its own bound

    def window(self, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each point's w cheapest outgoing arcs, their costs and a floor.

        A cost row is its own bound, so the (w+1)-th cheapest arc is the
        floor of every arc left out; a window of every other point leaves
        nothing out, and its floor is inf.
        """
        n = self.n
        cost = self.cost.copy()
        np.fill_diagonal(cost, np.nan)  # sorts after every cost: never a point's own target
        part = np.argpartition(cost, w, axis=1)
        targets = np.sort(part[:, :w], axis=1)
        if w < n - 1:
            floor = np.take_along_axis(cost, part[:, w : w + 1], axis=1)[:, 0]
        else:
            floor = np.full(n, np.inf)
        return targets, np.take_along_axis(cost, targets, axis=1), floor


@dataclass(frozen=True)
class Tour:
    order: tuple[int, ...]  # starts and ends at 0
    cost: float


def cost_graph(cost: np.ndarray) -> DirectedCostGraph:
    """Wrap a raw cost matrix; next hops start out as the direct arcs.

    Costs must be finite and nonnegative.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValidationError("cost matrix must be square")
    if not np.all(np.isfinite(cost)):
        raise ValidationError("directed costs must be finite")
    if np.any(cost < 0):
        raise ValidationError("directed costs must be nonnegative")
    n = cost.shape[0]
    cost = cost.copy()
    np.fill_diagonal(cost, 0.0)
    hop = np.broadcast_to(np.arange(n), (n, n)).copy()
    return DirectedCostGraph(cost, hop)


def _in_order_sum(values: np.ndarray) -> float:
    """0.0 + values[0] + values[1] + ..., added left to right as a running ``+=`` adds them.

    ``cumsum`` adds in that order from values[0]; the sums differ only where
    all of them are -0.0, which adding 0.0 last turns into the running 0.0.
    A sum beyond a float is inf, without a warning, as a Python float's is.
    """
    if not values.size:
        return 0.0
    with np.errstate(over="ignore"):
        return float(np.cumsum(values)[-1]) + 0.0


def tour_cost(order: list[int] | tuple[int, ...], cost: np.ndarray) -> float:
    """The costs of the tour's arcs, added in tour order."""
    at = np.asarray(order, dtype=np.intp)
    return _in_order_sum(cost[at[:-1], at[1:]])


def _check_closed_tour(order) -> None:
    if len(order) < 2 or order[0] != 0 or order[-1] != 0:
        raise MalformedTourError("tour must start and end at index 0")


def metric_closure(g: DirectedCostGraph) -> DirectedCostGraph:
    """All-pairs cheapest directed costs with first-hop witnesses."""
    cost = g.cost.copy()
    hop = g.next_hop.copy()
    n = g.n
    for k in range(n):
        via = cost[:, k, None] + cost[None, k, :]
        better = via < cost
        cost = np.where(better, via, cost)
        hop = np.where(better, hop[:, k, None], hop)
    return DirectedCostGraph(cost, hop)


def expand_tour(tour: Tour, closed: DirectedCostGraph) -> Tour:
    """Replace every closure arc by its witness path; cost is unchanged."""
    _check_closed_tour(tour.order)
    order = [tour.order[0]]
    for target in tour.order[1:]:
        at = order[-1]
        while at != target:
            at = int(closed.next_hop[at, target])
            order.append(at)
    return Tour(tuple(order), tour_cost(order, closed.cost))


def greedy_tour(g) -> Tour:
    """Nearest-neighbor cycle from index 0 on outgoing costs, lowest index on ties.

    ``g`` has ``n`` points; ``g.arc_costs(i, js)`` are the exact costs of
    the arcs from i to js and ``g.lower_bounds(i, js)`` never exceed them.
    ``g.window(w)``, 1 <= w < n, gives ``(targets, costs, floor)``: per
    point the ascending indices of w others, those arcs' exact costs, and
    a value (or -inf) no greater than any arc to a point outside the row.

    Every point first gets a window of ``_WINDOW`` near targets with their
    exact costs and a floor under the cost of every arc it leaves out
    (``g.window``).  A step scans the window of the current point for the
    cheapest unvisited target, the lowest index on ties, and takes it
    outright when its cost is below the floor.  Otherwise one rule settles
    the step: a window with no unvisited target first prices the point of
    lowest bound, and then one ``arc_costs`` call prices every other
    unvisited point outside the window whose lower bound does not exceed
    the cost found.  Each rule skips only points that cannot win or tie,
    so the tour is the one a scan of every exact cost gives.  The closing
    arc to 0 is computed once.
    """
    n = g.n
    if n == 1:
        return Tour((0, 0), 0.0)
    targets, costs, floor = (a.tolist() for a in g.window(min(_WINDOW, n - 1)))
    left = np.ones(n, dtype=bool)  # the points not yet visited, for the bounds
    left[0] = False
    seen = [False] * n
    seen[0] = True
    order = [0]
    total = 0.0
    for _ in range(n - 1):
        here = order[-1]
        best, nxt = math.inf, -1
        for j, c in zip(targets[here], costs[here]):
            if c < best and not seen[j]:  # the row ascends: ties keep the lowest index
                best, nxt = c, j
        if nxt < 0 or not best < floor[here]:
            unvisited = np.flatnonzero(left)  # ascending, so argmin ties go to the lowest index
            bound = g.lower_bounds(here, unvisited)
            if nxt < 0:  # a spent window
                nxt = int(unvisited[bound.argmin()])
                best = float(g.arc_costs(here, [nxt])[0])
                if not math.isfinite(best):
                    raise ValidationError("directed costs must be finite")
            # only a point not yet priced can still win or tie
            near = targets[here]
            rivals = [j for j in unvisited[bound <= best].tolist() if j != nxt and j not in near]
            if rivals:
                prices = g.arc_costs(here, rivals)
                k = int(prices.argmin())  # rivals ascend: the lowest index of the cheapest
                if prices[k] < best or (prices[k] == best and rivals[k] < nxt):
                    nxt, best = rivals[k], float(prices[k])
        order.append(nxt)
        total += best
        seen[nxt] = True
        left[nxt] = False
    total += float(g.arc_costs(order[-1], [0])[0])
    order.append(0)
    return Tour(tuple(order), total)


def _candidates(cost: np.ndarray) -> list[list[int]]:
    """The ``_CANDIDATES`` cheapest outgoing arcs of every point, cheapest first.

    The stable sort sends ties to the smaller index; a point is never its
    own candidate.
    """
    n = cost.shape[0]
    out = cost.copy()
    np.fill_diagonal(out, np.inf)
    return np.argsort(out, axis=1, kind="stable")[:, : min(_CANDIDATES, n - 1)].tolist()


def _improving_swap(
    cost: list[list[float]], cand: list[list[int]], t: list[int], pos: list[int], a: int
) -> tuple[int, int] | None:
    """The first improving segment swap whose first cut is a, as its cuts (b, c).

    Cuts a, b, c in cyclic order swap the segments after a and after b: the
    arcs t_a -> t_{b+1}, t_b -> t_{c+1} and t_c -> t_{a+1} replace the arcs
    out of t_a, t_b and t_c.  t_{b+1} runs over the candidates of t_a and
    t_{c+1} over those of t_b, each list only while the partial gain stays
    positive; the first move gaining more than ``_GAIN_EPS`` is returned.
    Every swap of positive gain has a rotation of its cuts whose partial
    gains are all positive, so with full lists none is missed.
    """
    n = len(t)
    ta = t[a]
    ca = cost[ta]
    ta1 = t[a + 1 - n]
    for tb1 in cand[ta]:
        g1 = ca[ta1] - ca[tb1]
        if g1 <= 0.0:
            return None
        b = pos[tb1] - 1
        rb = (b - a) % n
        cb = cost[t[b]]
        for tc1 in cand[t[b]]:
            g2 = g1 + cb[tb1] - cb[tc1]
            if g2 <= 0.0:
                break
            c = pos[tc1] - 1
            if (c - a) % n <= rb:
                continue  # c must lie strictly between b and a
            cc = cost[t[c]]
            if g2 + cc[tc1] - cc[ta1] > _GAIN_EPS:
                return b % n, c % n
    return None


def _descend(
    cost: list[list[float]],
    cand: list[list[int]],
    t: list[int],
    pos: list[int],
    active: Iterable[int],
) -> int:
    """Apply improving segment swaps from the active points until none is active.

    ``t`` is the tour without its closing 0 and ``pos[x]`` the index of x in
    it; both change in place.  Active points wait in a queue; a popped point
    that finds no move stays inactive (its don't-look bit) until a move
    changes an arc at it, and after a move the six ends of its changed arcs
    join the queue again.  Returns the number of moves applied.
    """
    n = len(t)
    queue = deque(dict.fromkeys(active))
    queued = [False] * n
    for x in queue:
        queued[x] = True
    moves = 0
    while queue:
        ta = queue.popleft()
        queued[ta] = False
        a = pos[ta]
        move = _improving_swap(cost, cand, t, pos, a)
        if move is None:
            continue
        b, c = move
        ends = [t[x - n] for x in (a, a + 1, b, b + 1, c, c + 1)]
        i, j, k = sorted((a, b, c))
        t[i + 1 : k + 1] = t[j + 1 : k + 1] + t[i + 1 : j + 1]
        for at in range(i + 1, k + 1):
            pos[t[at]] = at
        moves += 1
        for x in ends:
            if not queued[x]:
                queued[x] = True
                queue.append(x)
    return moves


def _double_bridge(order: list[int], rng: random.Random) -> tuple[list[int], list[int]]:
    """Swap two random consecutive segments of the closed tour.

    Returns the kicked tour and the ends of its three new arcs.
    """
    n = len(order) - 1
    if n < 4:
        return list(order), []
    p, q, r = sorted(rng.sample(range(1, n), 3))
    kicked = order[:p] + order[q:r] + order[p:q] + order[r:n] + [order[0]]
    return kicked, [order[p - 1], order[q], order[r - 1], order[p], order[q - 1], order[r]]


def lk_tour(g: DirectedCostGraph, seed: int = 0, budget: int = 20) -> Tour:
    """Local-search tour: greedy start, candidate-list segment swaps, seeded restarts.

    Descends from the greedy tour with every point queued (see
    ``_descend``), then restarts from double-bridge perturbations of the
    best tour with only the ends of the bridges' new arcs queued, stacking
    more bridges the longer no restart improves; gives up after ``budget``
    consecutive non-improving restarts; ``tour_cost`` prices the start and
    every restart.  The best tour is then descended again with every point
    queued until a whole pass applies no move, so with full candidate lists
    (n <= ``_CANDIDATES`` + 1) no segment swap improves it.  Deterministic
    for a fixed (graph, seed, budget).
    """
    start = greedy_tour(g)
    n = g.n
    if n < 3:
        return start
    cost = g.cost.tolist()
    cand = _candidates(g.cost)

    def descend(order: list[int] | tuple[int, ...], active: Iterable[int]) -> tuple[list[int], int]:
        t = list(order[:n])
        pos = [0] * n
        for at, x in enumerate(t):
            pos[x] = at
        moves = _descend(cost, cand, t, pos, active)
        return t + [t[0]], moves

    best, _ = descend(start.order, start.order[:n])
    best_cost = tour_cost(best, g.cost)
    rng = random.Random(seed)
    misses = 0
    while misses < budget:
        kicked, active = best, []
        for _ in range(1 + misses // 4):
            kicked, ends = _double_bridge(kicked, rng)
            active += ends
        candidate, _ = descend(kicked, active)
        candidate_cost = tour_cost(candidate, g.cost)
        if candidate_cost < best_cost - _GAIN_EPS:
            best, best_cost = candidate, candidate_cost
            misses = 0
        else:
            misses += 1
    moves = 1
    while moves:  # confirm the best tour from every point
        best, moves = descend(best, best[:n])
    return Tour(tuple(best), tour_cost(best, g.cost))


def held_karp(g: DirectedCostGraph) -> Tour:
    """Exact minimum Hamiltonian cycle by subset dynamic programming."""
    n = g.n
    if n > _HELD_KARP_MAX:
        raise ValidationError(f"exact solver limited to {_HELD_KARP_MAX} points, got {n}")
    if n == 1:
        return Tour((0, 0), 0.0)
    cost = g.cost
    size = 1 << n
    dp = np.full((size, n), np.inf)
    parent = np.full((size, n), -1, dtype=np.int16)
    dp[1, 0] = 0.0
    targets = np.arange(n)
    for mask in range(1, size):
        if not mask & 1:
            continue
        lasts = np.flatnonzero(np.isfinite(dp[mask]))
        if lasts.size == 0:
            continue
        free = targets[(mask >> targets) & 1 == 0]
        if free.size == 0:
            continue
        cand = dp[mask, lasts][:, None] + cost[np.ix_(lasts, free)]
        pick = cand.argmin(axis=0)
        vals = cand[pick, np.arange(free.size)]
        tmasks = mask | (1 << free)
        improved = vals < dp[tmasks, free]
        dp[tmasks[improved], free[improved]] = vals[improved]
        parent[tmasks[improved], free[improved]] = lasts[pick[improved]]

    full = size - 1
    totals = dp[full] + cost[:, 0]
    totals[0] = np.inf
    last = int(totals.argmin())
    order = [0, last]
    mask = full
    while last != 0:
        prev = int(parent[mask, last])
        mask ^= 1 << last
        order.append(prev)
        last = prev
    order.reverse()
    return Tour(tuple(order), tour_cost(order, cost))


@dataclass(frozen=True)
class SymmetricReformulation:
    """Node-doubled symmetric instance of a directed tour problem.

    Point i pairs with a mirror point i + n at stored cost 0; the directed
    arc cost from i to j is carried by the (mirror i, j) edge shifted up by a
    constant bonus so no stored cost is negative; every other pairing gets a
    prohibitive sentinel.  Decoded tour costs subtract n * bonus.
    """

    cost: np.ndarray  # (2n, 2n) symmetric
    n: int
    bonus: float
    sentinel: float

    def decode(self, order: tuple[int, ...], directed_cost: np.ndarray) -> Tour:
        """Recover the directed tour from a mirror-alternating cycle."""
        _check_closed_tour(order)
        n = self.n
        cycle = list(order[:-1])
        if len(cycle) != 2 * n:
            raise MalformedTourError("reformulated tour must visit all doubled points")
        pos = cycle.index(0)
        cycle = cycle[pos:] + cycle[:pos]
        if n > 1 and cycle[1] != n:  # mirror of 0 must follow 0; otherwise flip
            cycle = [cycle[0]] + cycle[1:][::-1]
        directed = [0]
        for step in range(1, n):
            mirror, nxt = cycle[2 * step - 1], cycle[2 * step]
            if mirror != directed[-1] + n or nxt >= n:
                raise MalformedTourError("tour does not alternate points and mirrors")
            directed.append(nxt)
        if cycle[-1] != directed[-1] + n:
            raise MalformedTourError("tour does not alternate points and mirrors")
        directed.append(0)
        return Tour(tuple(directed), tour_cost(directed, directed_cost))


def to_symmetric(g: DirectedCostGraph) -> SymmetricReformulation:
    """Double the points so a symmetric solver can handle directed costs."""
    n = g.n
    if not np.all(np.isfinite(g.cost)):
        raise ValidationError("directed costs must be finite")
    bonus = float(g.cost.sum()) + 1.0
    shifted = g.cost + bonus
    off_diag_total = float(shifted.sum()) - float(np.trace(shifted))
    sentinel = 2.0 * (2.0 * off_diag_total) + 1.0
    sym = np.full((2 * n, 2 * n), sentinel)
    # mirror i + n meets point j at the shifted cost of i -> j, its own i at 0
    sym[n:, :n] = shifted
    sym[:n, n:] = shifted.T
    np.fill_diagonal(sym[n:, :n], 0.0)
    np.fill_diagonal(sym[:n, n:], 0.0)
    np.fill_diagonal(sym, 0.0)
    if not np.all(np.isfinite(sym)):
        raise ValidationError("sentinel arithmetic overflowed")
    return SymmetricReformulation(cost=sym, n=n, bonus=bonus, sentinel=sentinel)
