"""Domain types and closed-form energy models for sector-charging tours.

All functions here are pure; routing asymmetry enters through a deterministic
hash-seeded coefficient field so that every algorithm run against the same
instance sees one consistent world, including at charging positions that only
exist after an algorithm has chosen them.

A ``NetworkInstance`` holds its nodes as five read-only numpy columns (x, y,
e_b, e_d, e_c), which every producer fills and every stage reads, and
``check_nodes`` checks them with one array pass per check.  ``TravelArcs``
takes its points as x and y columns too.

It is the one module that rounds: ``AsymmetryField.cells`` is the grid cell
rule, and ``snap9``, ``snap9_down`` and ``rounding9`` (half a unit in the
9th digit, the replay's tolerance) are the file's 9-digit rules, whose
numpy forms share one power table and one certified-decade step.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from decimal import ROUND_DOWN, Context, Decimal

import numpy as np

from .errors import ValidationError

TWO_PI = 2.0 * math.pi
_CELL_LIMIT = 2.0**63  # grid cells must fit a signed 64-bit int

Point = tuple[float, float]


def snap9(x: float) -> float:
    """Round to the 9-significant-digit value the file formats store.

    Instances, schedules and charger parameters hold snapped values from
    construction, so a serialize/parse round trip reproduces them exactly.
    """
    return float(format(float(x), ".9g"))


def snap9_point(p: Point) -> Point:
    return (snap9(p[0]), snap9(p[1]))


_SNAP9_DOWN = Context(prec=9, rounding=ROUND_DOWN)


def snap9_down(x: float) -> float:
    """Snap to 9 significant digits rounding toward zero (never upward)."""
    return float(_SNAP9_DOWN.plus(Decimal(x)))


def rounding9(x: float) -> float:
    """Half a unit in the 9th significant digit of ``x``: the most a file's rounding moves it."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 8) if x else 0.0


# _POWERS[k] is the double 10.0**k for -315 <= k <= 308; a negative k indexes from the end
_POWERS = np.array([10.0**k for k in (*range(309), *range(-315, 0))])


def _decades(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(e, sure)``: e = floor(log10|x|) from numpy, and where e is certainly exact.

    Where |x| lies more than a relative 1e-12 inside [10**e, 10**(e + 1)),
    for e in -307..307, the exact logarithm is more than 4e-13 from an
    integer, many ulps more than ``math.log10`` or ``np.log10`` can be off,
    so ``math.floor`` gives e as well.  Elsewhere e is 0 and not sure.
    """
    mag = np.abs(x)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(mag))
    sure = np.abs(e) <= 307.0
    e = np.where(sure, e, 0.0).astype(np.intp)
    sure &= (mag > _POWERS[e] * (1.0 + 1e-12)) & (mag < _POWERS[e + 1] * (1.0 - 1e-12))
    return e, sure


def snap9_array(x: np.ndarray) -> np.ndarray:
    """``snap9`` of every value, bit for bit, rounded in numpy where that is sure.

    For x of a certain decade e (``_decades``), -14 <= e <= 8, take
    q = x * 10**(8 - e), the exact product rounded once, and r = rint(q).
    Where q is more than 1e-6 from a half-integer, r holds the 9 digits
    ``format(x, ".9g")`` prints, and r / 10**(8 - e), of two exact operands
    rounded once, is their double.  Zeros stay as they are; every other
    value, ties among them, goes through ``snap9``.
    """
    x = np.asarray(x, dtype=float)
    e, sure = _decades(x)
    sure &= (e >= -14) & (e <= 8)  # 10**(8 - e) is exact up to 10**22
    scale = _POWERS[np.where(sure, 8 - e, 0)]
    with np.errstate(all="ignore"):
        q = x * scale
        r = np.rint(q)
        sure &= np.abs(q - r) < 0.5 - 1e-6
    out = np.where(sure, r / scale, x)
    unsure = ~sure & (x != 0.0)
    out[unsure] = [snap9(v) for v in x[unsure].tolist()]
    return out


def rounding9_array(x: np.ndarray) -> np.ndarray:
    """``rounding9`` of every finite value, bit for bit; 0.0 for the others.

    Where ``_decades`` is sure of e, that is ``0.5 * 10.0 ** (e - 8)`` from
    the table; every other nonzero finite value goes through ``rounding9``.
    """
    e, sure = _decades(x)
    out = np.where(sure, 0.5 * _POWERS[e - 8], 0.0)
    unsure = ~sure & np.isfinite(x) & (x != 0.0)
    out[unsure] = [rounding9(v) for v in x[unsure].tolist()]
    return out


def check_nodes(
    x: np.ndarray, y: np.ndarray, e_b: np.ndarray, e_d: np.ndarray, e_c: np.ndarray
) -> None:
    """Raise the fault of the lowest faulty node of the columns, one array pass per check.

    A node's position and energies must be finite, its energies
    nonnegative and its capacity positive, and its initial energy plus
    demand may exceed its capacity by 1e-9 at most.  The lowest node that
    fails any check is named with the first check it fails, in that order.
    """
    with np.errstate(all="ignore"):  # a non-finite node's sums are never read
        nonfinite = ~np.isfinite(x) | ~np.isfinite(y)
        for column in (e_b, e_d, e_c):
            nonfinite |= ~np.isfinite(column)
        negative = (e_b < 0) | (e_d < 0)
        empty = e_c <= 0
        over = e_b + e_d > e_c + 1e-9
    fault = nonfinite | negative | empty | over
    if not fault.any():
        return
    i = int(fault.argmax())
    if nonfinite[i]:
        raise ValidationError(f"node {i}: position and energies must be finite")
    if negative[i]:
        raise ValidationError(f"node {i}: energies must be nonnegative")
    if empty[i]:
        raise ValidationError(f"node {i}: capacity must be positive")
    raise ValidationError(
        f"node {i}: initial energy + demand exceeds capacity "
        f"({e_b[i].item()} + {e_d[i].item()} > {e_c[i].item()})"
    )


@dataclass(frozen=True)
class DmcParams:
    """Charger hardware parameters: transmitter, battery, drivetrain, sector."""

    p0: float = 4.0  # transmission power (W)
    e_b0: float = 5.0e5  # initial battery energy (J)
    v_bar: float = 1.0  # moving speed (m/s)
    w0: float = 4.0  # base movement energy rate (J/m)
    d_max: float = 20.0  # charge distance (m)
    phi: float = math.pi / 4  # sector angle (rad)
    delta: float = 4000.0  # transfer model numerator
    alpha: float = 100.0  # transfer model distance offset (m)
    beta: float = 2.0  # transfer model exponent

    def __post_init__(self):
        for name in ("p0", "e_b0", "v_bar", "w0", "d_max", "phi", "delta", "alpha", "beta"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValidationError(f"dmc parameter {name} must be positive and finite")
            # the 9 digits a file stores, so a plan replays the same from one
            object.__setattr__(self, name, snap9(value))
        if not self.phi < TWO_PI:
            raise ValidationError("sector angle must be below a full turn")
        # the coefficient falls with d, so its values at 0 and d_max bound it
        try:
            ends = (self.apex_coefficient, self.delta / (self.alpha + self.d_max) ** self.beta)
            bounded = all(math.isfinite(c) and c > 0.0 for c in ends)
        except (OverflowError, ZeroDivisionError):
            bounded = False
        if not bounded:
            raise ValidationError("transfer coefficient must be positive and finite up to d_max")
        if not self.p0 * ends[1] > 0.0:
            raise ValidationError("p0 times the transfer coefficient must be positive up to d_max")

    @property
    def apex_coefficient(self) -> float:
        """Transfer coefficient at zero distance, delta / alpha**beta."""
        return self.delta / self.alpha**self.beta


@dataclass(frozen=True)
class AsymmetryField:
    """Deterministic per-pair travel coefficients over quantized coordinates.

    Coefficients for an ordered point pair are drawn from a keyed hash of the
    seed and the two grid-quantized coordinates, then scaled into the
    configured ranges.  Identical (seed, from, to) always yields identical
    values, in-process and across processes.
    """

    seed: int
    k_dis_range: tuple[float, float] = (0.5, 1.5)
    k_egy_range: tuple[float, float] = (1.0, 1.0)
    grid: float = 0.01
    # optional exact per-cell-pair coefficients, e.g. for replaying a published
    # coefficient table; not part of the file format, so ``cli.instance_to_text`` refuses them
    overrides: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.k_dis_range, *self.k_egy_range, self.grid))):
            raise ValidationError("coefficient ranges and grid must be finite")
        for name in ("k_dis_range", "k_egy_range"):  # 9 digits, as in ``DmcParams``
            object.__setattr__(self, name, tuple(map(snap9, getattr(self, name))))
        object.__setattr__(self, "grid", snap9(self.grid))
        for lo, hi in (self.k_dis_range, self.k_egy_range):
            if lo <= 0 or hi <= 0:
                raise ValidationError("coefficient range bounds must be positive")
            if lo > hi:
                raise ValidationError("coefficient range must satisfy lo <= hi")
        if self.grid <= 0:
            raise ValidationError("quantization grid must be positive")
        # a lower bound on every coefficient is what lets a tour skip arcs
        for hit in (self.overrides or {}).values():
            if not all(math.isfinite(c) and c >= 0.0 for c in hit):
                raise ValidationError("coefficient overrides must be finite and nonnegative")

    def off_grid(self, x: np.ndarray, y: np.ndarray) -> int | None:
        """Index of the first point (x[k], y[k]) whose cell leaves int64, or None.

        Within 2**62 grid steps (a power of two, so an exact limit) no
        quotient can leave int64, which settles most arrays without one.
        """
        limit = self.grid * 2.0**62
        if np.abs(x).max(initial=0.0) <= limit and np.abs(y).max(initial=0.0) <= limit:  # NaN fails
            return None
        with np.errstate(over="ignore"):  # an inf quotient fails the range test
            qx, qy = x / self.grid, y / self.grid
        inside = (qx >= -_CELL_LIMIT) & (qx < _CELL_LIMIT) & (qy >= -_CELL_LIMIT) & (qy < _CELL_LIMIT)
        return None if inside.all() else int(inside.argmin())

    def off_grid_error(self, p: Point) -> ValidationError:
        """The fault of a point whose cell ``off_grid`` rejects."""
        return ValidationError(f"point {p} lies outside the quantization grid's 64-bit range")

    def cells(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The (n, 2) int64 cells of the points (x[k], y[k]): their quotients by
        ``grid``, rounded half to even.  Hash keys pack each cell as two signed
        64-bit ints, and the first point ``off_grid`` rejects raises."""
        if (off := self.off_grid(x, y)) is not None:
            raise self.off_grid_error((x[off].item(), y[off].item()))
        return np.rint(np.column_stack((x, y)) / self.grid).astype("<i8")


_NODE_COLUMNS = ("x", "y", "e_b", "e_d", "e_c")


class NetworkInstance:
    """A complete problem input: node columns, base station, charger, asymmetry.

    The nodes are five read-only float columns with one entry per node id:
    ``x`` and ``y`` the position, ``e_b`` the initial stored energy,
    ``e_d`` the demand and ``e_c`` the battery capacity.  The constructor
    holds ``snap9`` copies of the columns and the base station, the digits
    an instance file stores, and runs ``check_nodes`` over the copies.
    """

    __slots__ = (*_NODE_COLUMNS, "bs_pos", "dmc", "asym")

    def __init__(self, x, y, e_b, e_d, e_c, bs_pos: Point, dmc: DmcParams, asym: AsymmetryField):
        columns = [np.array(column, dtype=float) for column in (x, y, e_b, e_d, e_c)]
        if any(column.shape != columns[0].shape or column.ndim != 1 for column in columns):
            raise ValidationError("node columns must be vectors of one length")
        columns = snap9_array(np.stack(columns))
        check_nodes(*columns)
        if len(columns[0]) < 1:
            raise ValidationError("instance needs at least one node")
        if len(bs_pos) != 2 or not all(map(math.isfinite, bs_pos)):
            raise ValidationError("base station position must be two finite numbers")
        columns.setflags(write=False)
        for name, column in zip(_NODE_COLUMNS, columns):
            setattr(self, name, column)
        self.bs_pos, self.dmc, self.asym = snap9_point(bs_pos), dmc, asym

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True, eq=False)  # arrays: compared and hashed by identity
class RoutingMatrices:
    """Directed travel distances and movement energies among the n points ``positions``.

    ``positions`` is an (n, 2) float array, row k the x and y of point k, and
    index 0 is the base station by convention.  Neither matrix is symmetric.
    """

    positions: np.ndarray
    dist: np.ndarray  # (n, n) directed distances (m)
    cost: np.ndarray  # (n, n) directed movement energies (J)


# a squared distance is correct to a few ulps away from under- and overflow:
# the shrink takes its root below math.hypot of every farther point
_ROOT_SHRINK = 1.0 - 1e-12
_ROOT_OFFSET = 1e-300


class TravelArcs:
    """Directed travel among the points (x[k], y[k]), computed one origin row on demand.

    Index 0 is the base station by convention.  ``row`` is the one hashing
    kernel behind ``build_routing_matrices``, the nearest-neighbor tour of
    ``one_to_one_schedule`` and the replay's check of every move.  For that
    tour an arc's key is its squared distance (``keys``), ``bound`` turns a
    squared distance into a floor under the cost of every arc at least that
    long, and ``arc_costs`` prices arcs through ``row``.  The schedule and
    the replay each ask ``row`` once for all their moves, one origin per
    move.  ``AsymmetryField.cells`` checks and quantizes the points in one
    numpy pass, and one more packs and numbers the cells.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, asym: AsymmetryField, dmc: DmcParams):
        self.asym = asym
        self.w0 = dmc.w0
        self._xs = np.asarray(x, dtype=float)
        self._ys = np.asarray(y, dtype=float)
        cells = asym.cells(self._xs, self._ys)
        # a pair's hash key packs the seed's low 64 bits, the origin cell (the
        # head) and the target cell (the tail), each cell as two signed 64-bit ints
        self._seed = struct.pack("<Q", asym.seed & 0xFFFFFFFFFFFFFFFF)
        self._tails = np.frombuffer(cells.tobytes(), "V16").tolist()  # one bytes object per cell
        ids: dict[bytes, int] = {}
        self._cell_ids = np.array([ids.setdefault(tail, len(ids)) for tail in self._tails])
        self._cells = None if asym.overrides is None else list(map(tuple, cells.tolist()))
        # a hash word w scales to lo + w / 2**64 * (hi - lo) in its range
        (d_lo, d_hi), (e_lo, e_hi) = asym.k_dis_range, asym.k_egy_range
        self._lows = np.array([d_lo, e_lo])
        self._widths = np.array([d_hi - d_lo, e_hi - e_lo])
        # that adds a nonnegative term to lo, same-cell pairs are 1 and
        # overrides are what they say, so no coefficient falls below these
        k_dis = [d_lo, 1.0]
        k_egy = [e_lo, 1.0]
        for hit in (asym.overrides or {}).values():
            k_dis.append(hit[0])
            k_egy.append(hit[1])
        self._bound_scale = (min(k_dis), min(k_egy) * dmc.w0)

    @property
    def n(self) -> int:
        return len(self._xs)

    def row(self, i, js) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(k_dis, span, k_egy)`` of the arcs from origin i to each point of js.

        ``i`` is one origin index, or an integer array of one origin index
        per point of ``js``.  This is the one code that turns a pair of
        points into travel coefficients.  A pair's coefficients come from one
        keyed blake2b of the seed and both grid cells, scaled into the
        field's ranges; a same-cell pair (the arc from a point to itself
        among them) is (1, 1), and an ``overrides`` hit is what it says.
        Each run of equal origins hashes the ``seed || origin`` key head once
        and copies that state for each target's packed cell, and all digests
        decode in one numpy pass.  ``span`` is the ``math.hypot`` distance;
        an arc's travel distance is ``k_dis * span`` and its energy rate
        ``k_egy * w0``.
        """
        pick = np.asarray(js, dtype=np.intp)
        targets = pick.tolist()
        if isinstance(i, np.ndarray):
            first = np.ones(len(targets), dtype=bool)  # where a run of equal origins starts
            first[1:] = i[1:] != i[:-1]
            starts = np.flatnonzero(first).tolist()
            bounds = zip(starts, starts[1:] + [len(targets)])
            runs = list(zip(i[starts].tolist(), (targets[lo:hi] for lo, hi in bounds)))
        else:
            runs = [(i, targets)]
        x, y = self._xs[i], self._ys[i]
        seed, tails = self._seed, self._tails
        digests = []
        for origin, run in runs:
            # hashing the head once and copying the state is the same blake2b
            # as hashing head + tail, at half the cost per pair
            head = hashlib.blake2b(seed + tails[origin], digest_size=16)
            for j in run:
                h = head.copy()
                h.update(tails[j])
                digests.append(h.digest())
        words = np.frombuffer(b"".join(digests), "<u8").reshape(len(targets), 2)
        k = words / 2.0**64 * self._widths + self._lows
        k_dis, k_egy = k[:, 0], k[:, 1]
        same = self._cell_ids[pick] == self._cell_ids[i]
        if same.any():
            k_dis[same] = 1.0
            k_egy[same] = 1.0
        overrides = self.asym.overrides
        if overrides is not None:
            cells = self._cells
            pairs = ((origin, j) for origin, run in runs for j in run)
            for at, (origin, j) in enumerate(pairs):
                hit = None if same[at] else overrides.get((cells[origin], cells[j]))
                if hit is not None:
                    k_dis[at], k_egy[at] = hit
        # math.hypot, not np.hypot: the two differ in the last bit on some pairs
        dx = (x - self._xs[pick]).tolist()
        dy = (y - self._ys[pick]).tolist()
        span = np.fromiter(map(math.hypot, dx, dy), dtype=float, count=len(targets))
        return k_dis, span, k_egy

    def keys(self, i, js) -> np.ndarray:
        """Squared distances from origins i to points js, broadcast as ``xs[i] - xs[js]`` is.

        A square beyond a float overflows with numpy's warning, which
        callers silence.
        """
        dx = self._xs[i] - self._xs[js]
        dy = self._ys[i] - self._ys[js]
        return dx * dx + dy * dy

    def bound(self, d2: np.ndarray) -> np.ndarray:
        """The floor under the cost of every arc at least ``sqrt(d2)`` long.

        The lowest coefficients times the root of the squared distance
        ``d2``, shrunk by a relative 1e-12 and by ``_ROOT_OFFSET``: within
        [1e-290, 1e300] ``d2`` is correct to a few ulps, so the shrunk root
        lies below ``math.hypot`` of each such arc, and IEEE rounding is
        monotone.  Above 1e300 the root is taken of 1e300, and every such
        arc, its square overflowed or not, is longer than that root.  Below
        1e-290 ``d2`` may have underflowed, and the floor is -inf.
        """
        scale, rate = self._bound_scale
        floor = scale * (np.sqrt(np.minimum(d2, 1e300)) * _ROOT_SHRINK - _ROOT_OFFSET) * rate
        floor[~(d2 >= 1e-290)] = -np.inf
        return floor

    def arc_costs(self, i, js) -> np.ndarray:
        """Movement energy of the arcs from origin i to each point of js, as ``row`` takes them."""
        k_dis, span, k_egy = self.row(i, js)
        return k_dis * span * (k_egy * self.w0)


def build_routing_matrices(
    x: np.ndarray, y: np.ndarray, asym: AsymmetryField, dmc: DmcParams
) -> RoutingMatrices:
    """Directed travel matrices among the points (x[k], y[k]), one ``TravelArcs.row`` per origin.

    An arc's movement energy is its distance times its rate ``k_egy * w0``;
    a point's arc to itself is (1, 1) times span 0, so both diagonals are 0.
    A value beyond a float is inf, without a warning; the cost graph rejects it.
    """
    arcs = TravelArcs(x, y, asym, dmc)
    n = arcs.n
    dist = np.zeros((n, n))
    cost = np.zeros((n, n))
    every = np.arange(n)
    with np.errstate(over="ignore"):
        for i in range(n):
            k_dis, span, k_egy = arcs.row(i, every)
            dist[i] = k_dis * span
            cost[i] = dist[i] * (k_egy * dmc.w0)
    return RoutingMatrices(np.column_stack((x, y)), dist, cost)
