"""Scalar reference loops for the vectorized routing-matrix build and replay.

These are the straightforward one-pair-at-a-time and one-node-at-a-time
versions that ``model.ra_coefficients``, ``model.build_routing_matrices`` and
``pipeline.execute_schedule`` must reproduce bit for bit on every valid input.
"""

import hashlib
import math
import struct

import numpy as np

from asymcharge import model
from asymcharge.model import AsymmetryField, DmcParams, NetworkInstance, Point
from asymcharge.errors import MalformedScheduleError
from asymcharge.pipeline import MOVE, TRANSMIT, OperationSchedule, ScheduleMetrics


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


def reference_execute_schedule(
    instance: NetworkInstance, schedule: OperationSchedule
) -> ScheduleMetrics:
    """Replay that checks every node against every transmission."""
    dmc = instance.dmc
    here = instance.bs_pos
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
