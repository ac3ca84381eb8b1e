"""Domain types and closed-form energy models for sector-charging tours.

All functions here are pure; routing asymmetry enters through a deterministic
hash-seeded coefficient field so that every algorithm run against the same
instance sees one consistent world, including at charging positions that only
exist after an algorithm has chosen them.
"""

from __future__ import annotations

import hashlib
import math
import struct
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError

TWO_PI = 2.0 * math.pi
_CELL_LIMIT = 2.0**63  # grid cells must fit a signed 64-bit int

Point = tuple[float, float]


def normalize_angle(a: float) -> float:
    """Map an angle to [0, 2*pi)."""
    a = math.fmod(a, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    return 0.0 if a >= TWO_PI else a


def angular_distance(a: float, b: float) -> float:
    """Circular distance between two angles, in [0, pi]."""
    d = abs(normalize_angle(a) - normalize_angle(b))
    return min(d, TWO_PI - d)


def euclidean(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def snap9(x: float) -> float:
    """Round to the 9-significant-digit value the file formats store.

    Coordinates that appear in schedule files are snapped at construction so
    a serialize/parse round trip reproduces them exactly.
    """
    return float(format(float(x), ".9g"))


def snap9_point(p: Point) -> Point:
    return (snap9(p[0]), snap9(p[1]))


@dataclass(frozen=True)
class Node:
    """A rechargeable node: position plus its energy state and demand."""

    id: int
    pos: Point
    e_b: float  # initial stored energy (J)
    e_d: float  # demanded energy (J)
    e_c: float  # battery capacity (J)

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.pos, self.e_b, self.e_d, self.e_c))):
            raise ValidationError(f"node {self.id}: position and energies must be finite")
        if self.e_b < 0 or self.e_d < 0:
            raise ValidationError(f"node {self.id}: energies must be nonnegative")
        if self.e_c <= 0:
            raise ValidationError(f"node {self.id}: capacity must be positive")
        if self.e_b + self.e_d > self.e_c + 1e-9:
            raise ValidationError(
                f"node {self.id}: initial energy + demand exceeds capacity "
                f"({self.e_b} + {self.e_d} > {self.e_c})"
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
        if not self.phi < TWO_PI:
            raise ValidationError("sector angle must be below a full turn")

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
    # coefficient table; not part of the serialized format
    overrides: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.k_dis_range, *self.k_egy_range, self.grid))):
            raise ValidationError("coefficient ranges and grid must be finite")
        for lo, hi in (self.k_dis_range, self.k_egy_range):
            if lo <= 0 or hi <= 0:
                raise ValidationError("coefficient range bounds must be positive")
            if lo > hi:
                raise ValidationError("coefficient range must satisfy lo <= hi")
        if self.grid <= 0:
            raise ValidationError("quantization grid must be positive")

    def quantize(self, p: Point) -> tuple[int, int]:
        """Grid cell of a point; hash keys pack it as two signed 64-bit ints."""
        x = p[0] / self.grid
        y = p[1] / self.grid
        if not (-_CELL_LIMIT <= x < _CELL_LIMIT and -_CELL_LIMIT <= y < _CELL_LIMIT):
            raise ValidationError(f"point {p} lies outside the quantization grid's 64-bit range")
        return (round(x), round(y))


def _key_head(asym: AsymmetryField, q: tuple[int, int]) -> bytes:
    """First half of a pair's hash key: the seed and the origin cell."""
    return struct.pack("<Q2q", asym.seed & 0xFFFFFFFFFFFFFFFF, q[0], q[1])


def _key_tail(q: tuple[int, int]) -> bytes:
    """Second half of a pair's hash key: the destination cell."""
    return struct.pack("<2q", q[0], q[1])


def _scale(word, bounds: tuple[float, float]):
    """Map a 64-bit hash word (an int, or a uint64 array) into [lo, hi]."""
    lo, hi = bounds
    return lo + word / 2.0**64 * (hi - lo)


def ra_coefficients(asym: AsymmetryField, a: Point, b: Point) -> tuple[float, float]:
    """Distance and energy-rate coefficients for travel from ``a`` to ``b``.

    A self-pair (after quantization) is neutral: (1, 1).
    """
    qa = asym.quantize(a)
    qb = asym.quantize(b)
    if qa == qb:
        return (1.0, 1.0)
    if asym.overrides is not None:
        hit = asym.overrides.get((qa, qb))
        if hit is not None:
            return hit
    digest = hashlib.blake2b(_key_head(asym, qa) + _key_tail(qb), digest_size=16).digest()
    return (
        _scale(int.from_bytes(digest[:8], "little"), asym.k_dis_range),
        _scale(int.from_bytes(digest[8:], "little"), asym.k_egy_range),
    )


@dataclass(frozen=True)
class NetworkInstance:
    """A complete problem input: nodes, base station, charger, asymmetry."""

    nodes: tuple[Node, ...]
    bs_pos: Point
    dmc: DmcParams
    asym: AsymmetryField

    def __post_init__(self):
        if len(self.nodes) < 1:
            raise ValidationError("instance needs at least one node")
        if not all(map(math.isfinite, self.bs_pos)):
            raise ValidationError("base station position must be finite")
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise ValidationError(f"node ids must be 0..n-1 in order (got {node.id} at {i})")

    @property
    def n(self) -> int:
        return len(self.nodes)

    @cached_property
    def node_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """Node x and y coordinates as float arrays, built once per instance."""
        return (
            np.array([u.pos[0] for u in self.nodes], dtype=float),
            np.array([u.pos[1] for u in self.nodes], dtype=float),
        )

    def e_b_vector(self) -> np.ndarray:
        return np.array([u.e_b for u in self.nodes], dtype=float)

    def e_d_vector(self) -> np.ndarray:
        return np.array([u.e_d for u in self.nodes], dtype=float)

    def e_c_vector(self) -> np.ndarray:
        return np.array([u.e_c for u in self.nodes], dtype=float)


@dataclass(frozen=True)
class RoutingMatrices:
    """Directed travel distances and energy rates over an ordered point list.

    Index 0 is the base station by convention.  Neither matrix is symmetric
    in general.
    """

    positions: tuple[Point, ...]
    dist: np.ndarray  # (n, n) directed distances (m)
    egy_rate: np.ndarray  # (n, n) directed energy rates (J/m)

    def move_cost(self) -> np.ndarray:
        """Directed movement energy matrix (J), elementwise dist * rate."""
        return self.dist * self.egy_rate


def build_routing_matrices(
    positions: list[Point], asym: AsymmetryField, dmc: DmcParams
) -> RoutingMatrices:
    """Directed travel matrices, built one origin row at a time.

    Every entry is bit-identical to ``ra_coefficients`` times ``euclidean``
    for its pair: each point is quantized and packed once, each row hashes
    the shared ``seed || origin`` prefix of the scalar key followed by every
    destination's packed cell, and the row's digests are decoded in one numpy
    call.  Same-cell pairs and ``overrides`` hits keep their scalar values.
    """
    n = len(positions)
    dist = np.zeros((n, n))
    rate = np.zeros((n, n))
    cells = [asym.quantize(p) for p in positions]
    tails = [_key_tail(q) for q in cells]
    by_cell: dict[tuple[int, int], list[int]] = {}
    for j, q in enumerate(cells):
        by_cell.setdefault(q, []).append(j)
    xs = np.array([p[0] for p in positions], dtype=float)
    ys = np.array([p[1] for p in positions], dtype=float)
    for i, a in enumerate(positions):
        # hashing the head once and copying the state is the same blake2b
        # as hashing head + tail, at half the cost per pair
        head = hashlib.blake2b(_key_head(asym, cells[i]), digest_size=16)
        digests = []
        for tail in tails:
            h = head.copy()
            h.update(tail)
            digests.append(h.digest())
        words = np.frombuffer(b"".join(digests), "<u8").reshape(n, 2)
        k_dis = _scale(words[:, 0], asym.k_dis_range)
        k_egy = _scale(words[:, 1], asym.k_egy_range)
        same = by_cell[cells[i]]
        k_dis[same] = 1.0
        k_egy[same] = 1.0
        if asym.overrides is not None:
            for j, q in enumerate(cells):
                hit = asym.overrides.get((cells[i], q)) if q != cells[i] else None
                if hit is not None:
                    k_dis[j], k_egy[j] = hit
        # math.hypot, not np.hypot: the two differ in the last bit on some pairs
        span = map(math.hypot, (a[0] - xs).tolist(), (a[1] - ys).tolist())
        dist[i] = k_dis * np.fromiter(span, dtype=float, count=n)
        rate[i] = k_egy * dmc.w0
        dist[i, i] = 0.0
        rate[i, i] = 0.0
    return RoutingMatrices(tuple(positions), dist, rate)


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


def final_node_energy(e_b: np.ndarray, e_r: np.ndarray, e_c: np.ndarray) -> np.ndarray:
    """Stored energy after charging: capacity-clipped elementwise minimum."""
    e_b, e_r, e_c = (np.asarray(v, dtype=float) for v in (e_b, e_r, e_c))
    if not (e_b.shape == e_r.shape == e_c.shape):
        raise ValidationError("energy vectors must have equal length")
    return np.minimum(e_b + e_r, e_c)


@dataclass(frozen=True)
class EnergyBreakdown:
    """All schedule-level energy totals derived from one set of inputs."""

    e_mc_tran: float  # charger energy spent transmitting (J)
    e_mc_move: float  # charger energy spent moving (J)
    e_mc_total: float  # charger energy spent in total (J)
    e_f0: float  # charger battery after the schedule (J)
    e_f: np.ndarray  # per-node stored energy after the schedule (J)
    e_nodes_rcv: float  # energy actually banked by the nodes (J)
    e_wpt_loss: float  # transmitted minus banked (J)
    e_total_loss: float  # all energy that ended up nowhere useful (J)
    dmc_energy_ok: bool  # charger battery stayed nonnegative


def energy_accounting(
    e_b: np.ndarray,
    e_c: np.ndarray,
    received_raw: np.ndarray,
    tran_time_total: float,
    move_energy: float,
    dmc: DmcParams,
) -> EnergyBreakdown:
    """Evaluate the energy ledger of a schedule from its aggregate quantities.

    ``received_raw`` is the pre-clipping per-node received energy; banking is
    capacity-limited, and anything transmitted but not banked counts as loss.
    """
    e_b = np.asarray(e_b, dtype=float)
    e_c = np.asarray(e_c, dtype=float)
    e_mc_tran = dmc.p0 * tran_time_total
    e_mc_total = e_mc_tran + move_energy
    e_f0 = dmc.e_b0 - e_mc_total
    ok = e_f0 >= 0.0
    if not ok:
        warnings.warn(
            f"charger battery deficit: needs {e_mc_total:.3f} J but starts with {dmc.e_b0:.3f} J",
            stacklevel=2,
        )
    e_f = final_node_energy(e_b, received_raw, e_c)
    e_nodes_rcv = float(np.sum(e_f - e_b))
    e_wpt_loss = e_mc_tran - e_nodes_rcv
    e_total_loss = e_mc_total - e_nodes_rcv
    return EnergyBreakdown(
        e_mc_tran=e_mc_tran,
        e_mc_move=move_energy,
        e_mc_total=e_mc_total,
        e_f0=e_f0,
        e_f=e_f,
        e_nodes_rcv=e_nodes_rcv,
        e_wpt_loss=e_wpt_loss,
        e_total_loss=e_total_loss,
        dmc_energy_ok=ok,
    )
