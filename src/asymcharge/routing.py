"""Loop tour construction over directed movement-energy costs.

Sub-loop tours are handled by taking the metric closure first (all-pairs
shortest directed paths) and expanding closure arcs back into witness paths
afterwards.  Solvers: nearest-neighbor, a k-opt style local search with
seeded double-bridge restarts, an exact subset-DP oracle for small point
counts, and a symmetric node-doubling reformulation of the directed problem.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import MalformedTourError, ValidationError

_GAIN_EPS = 1e-9
_HELD_KARP_MAX = 14


@dataclass(frozen=True)
class DirectedCostGraph:
    cost: np.ndarray  # (n, n) directed costs, zero diagonal
    next_hop: np.ndarray  # (n, n) first hop of a cheapest path, identity-ish

    @property
    def n(self) -> int:
        return self.cost.shape[0]


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


def tour_cost(order: list[int] | tuple[int, ...], cost: np.ndarray) -> float:
    total = 0.0
    for a, b in zip(order, order[1:]):
        total += cost[a, b]
    return total


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


def greedy_tour(g: DirectedCostGraph) -> Tour:
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
    return Tour(tuple(order), tour_cost(order, g.cost))


def _best_3opt_move(cost: np.ndarray, order: list[int]) -> tuple[float, int, int, int] | None:
    """Best orientation-preserving segment swap over all cut triples.

    Cutting after positions i < j < k and reconnecting the three directed
    segments in swapped order changes exactly three arcs; every segment keeps
    its internal orientation, so the move is valid under asymmetric costs.
    Covers single-segment reinsertion (any length) as a special case.

    The scan runs over the middle cut j: one block holds the gains of every
    i < j and k > j, summed in a fixed order from two matrices built once per
    call.  The result is the largest gain strictly above ``_GAIN_EPS``, at the
    lexicographically smallest (i, j, k) among exact ties: a block's row-major
    argmax is its smallest (i, k), and a later block replaces the best move
    only with a larger gain, or an equal one at a smaller i.
    """
    n = len(order) - 1  # order[-1] == order[0]
    if n < 3:
        return None
    t = np.array(order[:n])
    nxt = np.array(order[1 : n + 1])
    removed = cost[t, nxt]
    arc = cost[t[:, None], nxt[None, :]]  # arc[x, y] = cost(t_x -> t_{y+1})
    # gain(i, j, k) = (first[i, j] + last[i, k]) - arc[j, k], where
    # first[i, j] = removed_i + (removed_j - arc(i -> j+1)) and
    # last[i, k] = removed_k - arc(k -> i+1); first is stored transposed
    first = removed[None, :] + (removed[:, None] - arc.T)
    last = removed[None, :] - arc.T
    best_gain = _GAIN_EPS
    best = None
    for j in range(1, n - 1):
        gain = first[j, :j, None] + last[:j, j + 1 :]
        gain -= arc[j, j + 1 :]
        flat = int(gain.argmax())
        g = gain.item(flat)
        i, k = divmod(flat, n - j - 1)
        if g > best_gain or (g == best_gain and best is not None and i < best[1]):
            best_gain = g
            best = (g, i, j, j + 1 + k)
    return best


def _apply_3opt(order: list[int], i: int, j: int, k: int) -> list[int]:
    n = len(order) - 1
    return order[: i + 1] + order[j + 1 : k + 1] + order[i + 1 : j + 1] + order[k + 1 : n] + [order[0]]


def _local_search(cost: np.ndarray, order: list[int]) -> list[int]:
    while True:
        move = _best_3opt_move(cost, order)
        if move is None:
            return order
        _, i, j, k = move
        order = _apply_3opt(order, i, j, k)


def _double_bridge(order: list[int], rng: random.Random) -> list[int]:
    n = len(order) - 1
    if n < 4:
        return list(order)
    p, q, r = sorted(rng.sample(range(1, n), 3))
    return order[:p] + order[q:r] + order[p:q] + order[r:n] + [order[0]]


def lk_tour(g: DirectedCostGraph, seed: int = 0, budget: int = 20) -> Tour:
    """Local-search tour: greedy start, segment-swap descent, seeded restarts.

    Descends with the best improving orientation-preserving 3-opt move until
    none exists, then restarts from double-bridge perturbations of the best
    tour, stacking more bridges the longer no restart improves; gives up
    after ``budget`` consecutive non-improving restarts.  Deterministic for a
    fixed (graph, seed, budget).
    """
    start = greedy_tour(g)
    if g.n <= 3:
        return start
    cost = g.cost
    best = _local_search(cost, list(start.order))
    best_cost = tour_cost(best, cost)
    rng = random.Random(seed)
    misses = 0
    while misses < budget:
        kicked = list(best)
        for _ in range(1 + misses // 4):
            kicked = _double_bridge(kicked, rng)
        candidate = _local_search(cost, kicked)
        candidate_cost = tour_cost(candidate, cost)
        if candidate_cost < best_cost - _GAIN_EPS:
            best, best_cost = candidate, candidate_cost
            misses = 0
        else:
            misses += 1
    return Tour(tuple(best), best_cost)


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
    for i in range(n):
        sym[i, i + n] = sym[i + n, i] = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                sym[i + n, j] = sym[j, i + n] = shifted[i, j]
    np.fill_diagonal(sym, 0.0)
    if not np.all(np.isfinite(sym)):
        raise ValidationError("sentinel arithmetic overflowed")
    return SymmetricReformulation(cost=sym, n=n, bonus=bonus, sentinel=sentinel)
