"""Instance generation, file formats, experiment sweeps, and the command line.

Files are JSON with floats written at 9 significant digits; serialize ->
parse -> serialize is byte-identical.  The readers convert every number in
file order, so the first bad value raises (a float field must be a JSON
number), and snap them to 9 digits in one ``snap9_array`` pass into the
numpy columns an instance or a schedule holds; an invalid node before a
bad value raises first.  The writers print those columns with one
``str.format`` template per row.  The generator draws the node columns in
whole arrays, the same values a node-by-node draw gives.  Experiment runs
derive their seeds from (master seed, node count, repeat index), so results
do not depend on worker scheduling.

Two tables make the command line's choices: ``_SCHEDULERS`` maps each
algorithm name to the function that plans an instance with it, and
``_TOUR_SOLVERS`` maps each ``atsp-bench`` solver name to the function that
finds a tour of a closed cost graph.  ``_text`` says how every value prints
in a file or on stdout (the writers' row templates print column values the
same way), and ``_run_row`` builds every run row.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import struct
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from decimal import ROUND_DOWN, Context, Decimal

import numpy as np

from . import routing
from .errors import SchedulingError, ValidationError
from .model import (
    AsymmetryField,
    DmcParams,
    NetworkInstance,
    build_routing_matrices,
    check_nodes,
    snap9,
    snap9_array,
)
from .pipeline import (
    MOVE,
    TRANSMIT,
    OperationSchedule,
    ScheduleMetrics,
    execute_schedule,
    one_to_one_schedule,
    plan_schedule,
)
from .routing import (
    cost_graph,
    expand_tour,
    greedy_tour,
    held_karp,
    lk_tour,
    metric_closure,
    to_symmetric,
    tour_cost,
)

# each algorithm, called with (instance, seed), returns (schedule, metrics)
_SCHEDULERS = {
    "ra_dmcs": lambda instance, seed: plan_schedule(instance, seed=seed),
    "o2o_greedy": lambda instance, seed: one_to_one_schedule(instance),
}
ALGORITHMS = tuple(_SCHEDULERS)


def _on_symmetric(solve, closed, seed):
    """``solve``'s tour of the symmetric transform of ``closed``, decoded back."""
    sym = to_symmetric(closed)
    return sym.decode(solve(cost_graph(sym.cost), seed).order, closed.cost)


# each tour solver, called with (closed cost graph, seed), returns a tour
_TOUR_SOLVERS = {
    "greedy": lambda closed, seed: greedy_tour(closed),
    "lk": lambda closed, seed: lk_tour(closed, seed=seed),
    "held_karp": lambda closed, seed: held_karp(closed),
    "transform_lk": lambda closed, seed: _on_symmetric(_TOUR_SOLVERS["lk"], closed, seed),
    "transform_greedy": lambda closed, seed: _on_symmetric(_TOUR_SOLVERS["greedy"], closed, seed),
}
ATSP_SOLVERS = tuple(_TOUR_SOLVERS)
METRIC_FIELDS = tuple(f.name for f in dataclasses.fields(ScheduleMetrics))
DETAIL_FIELDS = ("algorithm", "n", "repeat", "seed", "status", *METRIC_FIELDS)
SUMMARY_FIELDS = (
    "algorithm", "n", "runs",
    *(f"{name}_{stat}" for name in METRIC_FIELDS for stat in ("mean", "ci95")),
)


_SNAP9_DOWN = Context(prec=9, rounding=ROUND_DOWN)


def _snap9_down(x: float) -> float:
    """Snap to 9 significant digits rounding toward zero (never upward)."""
    return float(_SNAP9_DOWN.plus(Decimal(x)))


def _draw_energies(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Snapped e_b, e_d and e_c columns of n nodes, each demand clamped to its headroom.

    Each node's capacity, initial energy and demand are drawn in that order
    from [60, 90], [6, 36] and [18, 75] J.  One (n, 3) draw scaled as
    ``lo + span * u`` per column gives the values ``rng.uniform(lo, lo +
    span)`` gives drawn node by node; a demand above its node's headroom
    becomes the headroom snapped toward zero.
    """
    lo, span = np.array([60.0, 6.0, 18.0]), np.array([30.0, 30.0, 57.0])
    e_c, e_b, e_d = snap9_array(lo + span * rng.random((n, 3))).T
    headroom = e_c - e_b
    over = e_d > headroom
    e_d[over] = [_snap9_down(h) for h in headroom[over].tolist()]
    return e_b, e_d, e_c


def derive_seed(master: int, *parts: int) -> int:
    """Stable 63-bit sub-seed from a master seed and integer labels."""
    words = [v & 0xFFFFFFFFFFFFFFFF for v in (master, *parts)]
    key = struct.pack(f"<{len(words)}Q", *words)
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


# ---------------------------------------------------------------------------
# instance generation


# Draws per node before ``avoid_bs_disc`` gives up.  Each node needs one draw
# without it; with it, a square whose outside share is 1% needs 100 on
# average, and one that runs out has an outside sliver far below that.
_AVOID_DRAWS = 10_000


def generate_instance(
    n: int,
    seed: int,
    area: float = 200.0,
    avoid_bs_disc: bool = False,
) -> NetworkInstance:
    """Random instance: uniform nodes, centered base station, default charger.

    Capacities are drawn from [60, 90] J, initial energies from [6, 36] J,
    demands from [18, 75] J clamped to the remaining headroom.  With
    ``avoid_bs_disc`` nodes are re-drawn until none lies within charge
    distance of the base station; a square that disc covers raises
    ``ValidationError`` before any draw, and one where ``_AVOID_DRAWS``
    draws per node place too few nodes outside it raises after them.
    Each round draws the positions of all the nodes still missing at once,
    within the draws left, and the energies of all nodes come from one
    draw after the positions: the same values, in the same order, as
    drawing node by node.
    """
    if n < 1:
        raise ValidationError("need at least one node")
    if not (math.isfinite(area) and area >= 0.0):
        raise ValidationError(f"area must be finite and nonnegative, got {area}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    dmc = DmcParams()
    bs = (snap9(area / 2.0), snap9(area / 2.0))
    if avoid_bs_disc and all(
        math.hypot(x - bs[0], y - bs[1]) <= dmc.d_max for x in (0.0, area) for y in (0.0, area)
    ):
        # the disc holds every corner, so it holds the whole square
        raise ValidationError(
            f"no point of the {area} m square lies farther than {dmc.d_max} m from the base station"
        )
    rng = np.random.default_rng(seed)
    limit = _AVOID_DRAWS * n
    placed: list[np.ndarray] = []  # the kept (x, y) rows of each round
    count = draws = 0
    while count < n:
        if draws == limit:
            raise ValidationError(
                f"{limit} draws placed only {count} of {n} nodes farther "
                f"than {dmc.d_max} m from the base station in the {area} m square"
            )
        need = min(n - count, limit - draws)
        xy = rng.uniform(0.0, area, size=(need, 2))
        draws += need
        if avoid_bs_disc:
            dx, dy = (xy - bs).T.tolist()
            xy = xy[np.fromiter(map(math.hypot, dx, dy), float, need) > dmc.d_max]
        placed.append(xy)
        count += len(xy)
    x, y = snap9_array(np.concatenate(placed)).T
    e_b, e_d, e_c = _draw_energies(rng, n)
    return NetworkInstance(x, y, e_b, e_d, e_c, bs, dmc, AsymmetryField(seed=seed))


# ---------------------------------------------------------------------------
# file formats


def _text(value) -> str:
    """How a value prints in a file or on stdout: bools as true or false, floats at 9 digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _json_document(members: dict[str, str]) -> str:
    """A file's text: one JSON object of the already printed ``members``, two-space indents."""
    return "{\n" + ",\n".join(f'  "{k}": {v}' for k, v in members.items()) + "\n}\n"


def _json_object(values: dict, pad: str) -> str:
    """A JSON object of scalars at indent ``pad``, each value as ``_text`` prints it."""
    body = ",\n".join(f'{pad}  "{k}": {_text(v)}' for k, v in values.items())
    return "{\n" + body + "\n" + pad + "}"


def _json_rows(columns: dict[str, np.ndarray], pad: str) -> str:
    """A JSON list at indent ``pad`` of one object per row of the equal-length ``columns``.

    One ``str.format`` template prints every row: integer columns as
    ``str`` prints them and the others at 9 significant digits, as
    ``_text`` prints each value.
    """
    inner = pad + "  "
    fields = ",\n".join(
        f'{inner}  "{key}": {{{"" if column.dtype.kind in "iu" else ":.9g"}}}'
        for key, column in columns.items()
    )
    template = inner + "{{\n" + fields + "\n" + inner + "}}"
    rows = zip(*(column.tolist() for column in columns.values()))
    body = ",\n".join(itertools.starmap(template.format, rows))
    return "[\n" + body + "\n" + pad + "]" if body else "[]"


_NODE_FIELDS = ("x", "y", "e_b", "e_d", "e_c")
_ITEM_FIELDS = ("x", "y", "psi", "t")  # and each item's integer "state" ahead of them
# each charger parameter's key in a file, in file order
_DMC_KEYS = {"p0": "p0", "e_b0": "e_b0", "d_max": "d", "phi": "phi", "v_bar": "v", "w0": "w0",
             "delta": "delta", "alpha": "alpha", "beta": "beta"}
_ASYM_KEYS = ("k_dis_lo", "k_dis_hi", "k_egy_lo", "k_egy_hi", "grid")  # after "seed"


def instance_to_text(instance: NetworkInstance) -> str:
    dmc, asym = instance.dmc, instance.asym
    if asym.overrides:  # the file would replay other coefficients
        raise ValidationError("coefficient overrides are not part of the instance format")
    return _json_document({
        "nodes": _json_rows({k: getattr(instance, k) for k in _NODE_FIELDS}, "  "),
        "bs": _json_object({"x": instance.bs_pos[0], "y": instance.bs_pos[1]}, "  "),
        "dmc": _json_object({key: getattr(dmc, name) for name, key in _DMC_KEYS.items()}, "  "),
        "asym": _json_object({
            "seed": asym.seed,
            **dict(zip(_ASYM_KEYS, (*asym.k_dis_range, *asym.k_egy_range, asym.grid))),
        }, "  "),
    })


# what reading a file's JSON and converting its values can raise; a number
# too large for a float (an integer of 309 digits, or int() of Infinity)
# raises OverflowError, and JSON nested deeper than the recursion limit
# raises RecursionError
_BAD_VALUE = (KeyError, TypeError, ValueError, OverflowError, RecursionError)


def _integer(value, name: str) -> int:
    """``int(value)`` of a JSON integer, or of a float equal to one.

    ``int`` runs first, so a value it rejects keeps its message; a bool, a
    string or a float with a fraction then raises ``ValueError``, which
    the readers report as a bad file.
    """
    whole = int(value)
    if isinstance(value, (bool, str)) or whole != value:
        raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")
    return whole


_NUMBER_TYPES = {int, float}  # what json.loads gives a JSON number; a bool is neither


def _numbers(row: dict, keys, what: str, at: int | None = None) -> list[float]:
    """``float`` of ``row``'s ``keys`` in turn; ``float``'s own errors come first, as in ``_integer``.

    A value that is not a JSON number (a string, or a bool) then raises
    ``ValueError`` naming ``what``, ``at`` and the key.
    """
    got = []
    for key in keys:
        value = row[key]
        got.append(float(value))
        if type(value) not in _NUMBER_TYPES:
            where = what if at is None else f"{what} {at}"
            raise ValueError(f"{where} {key} must be a number, got {json.dumps(value)}")
    return got


def _read(path: str, kind: str) -> str:
    """The text of an input file; a byte outside ASCII raises ``ValidationError``."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"bad {kind} file: {exc}") from exc


def instance_from_text(text: str) -> NetworkInstance:
    values: list[float] = []  # x, y, e_b, e_d, e_c of each node in turn
    try:
        doc = json.loads(text)
        try:
            for at, u in enumerate(doc["nodes"]):
                values += _numbers(u, _NODE_FIELDS, "node", at)
            bs = tuple(map(snap9, _numbers(doc["bs"], ("x", "y"), "bs")))
            d = doc["dmc"]
            dmc = DmcParams(**dict(zip(_DMC_KEYS, _numbers(d, _DMC_KEYS.values(), "dmc"))))
            a = doc["asym"]
            seed = _integer(a["seed"], "asym seed")
            k = _numbers(a, _ASYM_KEYS, "asym")
            asym = AsymmetryField(seed, (k[0], k[1]), (k[2], k[3]), k[4])
        except (*_BAD_VALUE, ValidationError):
            check_nodes(*_node_columns(values))  # an invalid node before the fault raises first
            raise
    except _BAD_VALUE as exc:
        raise ValidationError(f"bad instance file: {exc}") from exc
    return NetworkInstance(*_node_columns(values), bs, dmc, asym)


def _node_columns(values: list[float]) -> np.ndarray:
    """The x, y, e_b, e_d and e_c rows of the whole nodes among ``values``, snapped in one pass.

    The format carries 9 significant digits; snapping makes a hand-edited
    file with extra digits behave as its re-serialized form.
    """
    whole = np.array(values, dtype=float)[: len(values) - len(values) % 5]
    return snap9_array(whole).reshape(-1, 5).T


def schedule_to_text(schedule: OperationSchedule) -> str:
    names = ("state", *_ITEM_FIELDS)
    return _json_document({"items": _json_rows({k: getattr(schedule, k) for k in names}, "  ")})


def schedule_from_text(text: str) -> OperationSchedule:
    try:
        doc = json.loads(text)
        states: list[int] = []
        values: list[float] = []  # x, y, psi, t of each item in turn
        for at, i in enumerate(doc["items"]):
            state = i["state"]  # a JSON integer, not a bool, is read as it is
            states.append(state if type(state) is int else _integer(state, "state"))
            values += _numbers(i, _ITEM_FIELDS, "item", at)
    except _BAD_VALUE as exc:
        raise ValidationError(f"bad schedule file: {exc}") from exc
    if not set(states) <= {MOVE, TRANSMIT}:
        state = next(s for s in states if s not in (MOVE, TRANSMIT))
        raise ValidationError(f"bad schedule file: unknown state {state}")
    x, y, psi, t = snap9_array(np.array(values, dtype=float)).reshape(-1, 4).T
    return OperationSchedule(np.array(states, dtype=np.int64), x, y, psi, t)


def _run_row(algorithm: str, n: int, repeat: int, seed: int, status: str,
             metrics: ScheduleMetrics | None = None) -> dict:
    """One row of ``DETAIL_FIELDS``; a failed run has no metric cells."""
    row = {"algorithm": algorithm, "n": n, "repeat": repeat, "seed": seed, "status": status}
    if metrics is not None:
        row.update(dataclasses.asdict(metrics))
    return row


def _csv_file(path):
    return open(path, "w", newline="", encoding="ascii")


def _write_rows(f, rows: list[dict], fieldnames: list[str] | tuple[str, ...]) -> None:
    writer = csv.DictWriter(f, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _text(row.get(k, "")) for k in fieldnames})


def write_csv(path, rows: list[dict], fieldnames: list[str] | tuple[str, ...]) -> None:
    with _csv_file(path) as f:
        _write_rows(f, rows, fieldnames)


# ---------------------------------------------------------------------------
# experiment sweeps


@dataclass
class ExperimentConfig:
    n_values: list[int]
    repeats: int = 50
    area: float = 200.0
    seed: int = 0
    algorithms: tuple[str, ...] = ALGORITHMS
    atsp_solvers: tuple[str, ...] = ATSP_SOLVERS
    workers: int = 1

    def __post_init__(self):
        if not self.n_values:
            raise ValidationError("need at least one node count")
        if any(n < 1 for n in self.n_values):
            raise ValidationError("node counts must be positive")
        if self.repeats < 1:
            raise ValidationError("repeats must be at least 1")
        if self.workers < 1:
            raise ValidationError("workers must be at least 1")
        if not (math.isfinite(self.area) and self.area >= 0.0):
            raise ValidationError(f"area must be finite and nonnegative, got {self.area}")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValidationError(f"unknown algorithm {a!r}")
        for s in self.atsp_solvers:
            if s not in ATSP_SOLVERS:
                raise ValidationError(f"unknown solver {s!r}")
        # a repeated name would plan the same seeded runs twice and count
        # them as independent
        for what, names in (("node count", self.n_values), ("algorithm", self.algorithms),
                            ("solver", self.atsp_solvers)):
            repeated = [x for at, x in enumerate(names) if x in names[:at]]
            if repeated:
                raise ValidationError(f"{what} {repeated[0]!r} given more than once")


def _experiment_job(args):
    algorithm, n, repeat, master_seed, area = args
    run_seed = derive_seed(master_seed, n, repeat)
    try:
        _, metrics = _SCHEDULERS[algorithm](generate_instance(n, run_seed, area=area), run_seed)
        return _run_row(algorithm, n, repeat, run_seed, "ok", metrics)
    except Exception as exc:  # noqa: BLE001 - a failed run must not kill the sweep
        return _run_row(algorithm, n, repeat, run_seed, f"error: {exc}")


def _pmap(fn, jobs: list, workers: int):
    # the pool forks all of its workers at once, so it gets no more than there are jobs
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def summarize(detail_rows: list[dict], group_keys: tuple[str, ...], value_keys: tuple[str, ...]) -> list[dict]:
    """Mean and normal-approximation 95% CI per group; single runs get CI 0."""
    groups: dict[tuple, list[dict]] = {}
    for row in detail_rows:
        if row.get("status", "ok") != "ok":
            continue
        groups.setdefault(tuple(row[k] for k in group_keys), []).append(row)
    out = []
    for key in sorted(groups):
        rows = groups[key]
        summary = dict(zip(group_keys, key))
        summary["runs"] = len(rows)
        for vk in value_keys:
            vals = np.array([float(r[vk]) for r in rows])
            mean = float(vals.mean())
            ci = float(1.96 * vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
            summary[f"{vk}_mean"] = mean
            summary[f"{vk}_ci95"] = ci
        out.append(summary)
    return out


def run_experiment(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    """Schedule both algorithms over seeded random instances; emit summary + detail."""
    jobs = [
        (algorithm, n, repeat, cfg.seed, cfg.area)
        for algorithm in cfg.algorithms
        for n in cfg.n_values
        for repeat in range(cfg.repeats)
    ]
    detail = _pmap(_experiment_job, jobs, cfg.workers)
    return summarize(detail, ("algorithm", "n"), METRIC_FIELDS), detail


def _timed(solver: str, closed, seed: int):
    """``solver``'s tour of the closed cost graph and the seconds it took."""
    started = time.perf_counter()
    tour = _TOUR_SOLVERS[solver](closed, seed)
    return tour, time.perf_counter() - started


def _bench_job(args):
    n, repeat, master_seed, area, solvers = args
    run_seed = derive_seed(master_seed, n, repeat)
    rng = np.random.default_rng(run_seed)
    points = [(float(x), float(y)) for x, y in rng.uniform(0.0, area, size=(n, 2))]
    dmc = DmcParams()
    asym = AsymmetryField(seed=run_seed)
    mats = build_routing_matrices(points, asym, dmc)
    closed = metric_closure(cost_graph(mats.cost))
    # within the exact solver's limit its one timed run is both the
    # held_karp row and the reference of every row's gap
    exact = _timed("held_karp", closed, run_seed) if n <= routing._HELD_KARP_MAX else None

    rows = []
    for solver in solvers:
        if solver == "held_karp" and exact is None:
            continue
        row = {"solver": solver, "n": n, "repeat": repeat, "seed": run_seed, "status": "ok"}
        try:
            tour, runtime = exact if solver == "held_karp" else _timed(solver, closed, run_seed)
            expanded = expand_tour(tour, closed)
            distance = tour_cost(expanded.order, mats.dist)
            row["tour_energy"] = tour.cost
            row["moving_time"] = distance / dmc.v_bar
            row["runtime"] = runtime
            if exact is not None:
                hk_cost = exact[0].cost
                row["held_karp_gap"] = (tour.cost - hk_cost) / hk_cost if hk_cost > 0 else 0.0
        except Exception as exc:  # noqa: BLE001
            row["status"] = f"error: {exc}"
        rows.append(row)
    return rows


def run_atsp_bench(cfg: ExperimentConfig) -> list[dict]:
    """Tour solver comparison on seeded asymmetric instances."""
    jobs = [
        (n, repeat, cfg.seed, cfg.area, tuple(cfg.atsp_solvers))
        for n in cfg.n_values
        for repeat in range(cfg.repeats)
    ]
    nested = _pmap(_bench_job, jobs, cfg.workers)
    return [row for rows in nested for row in rows]


# ---------------------------------------------------------------------------
# demo scenario with a published energy-rate table


_DEMO_RATE_TABLE = [
    # rows: from BS, A, B, C, D; columns: to BS, A, B, C, D
    [0.00, 1.11, 1.10, 1.14, 1.35],
    [0.89, 0.00, 1.03, 1.31, 1.43],
    [0.90, 0.97, 0.00, 1.33, 1.15],
    [0.86, 0.69, 0.67, 0.00, 1.11],
    [0.65, 0.57, 0.85, 0.89, 0.00],
]
_DEMO_BS = (50.0, 50.0)
_DEMO_CENTERS = [(20.0, 20.0), (80.0, 20.0), (20.0, 80.0), (80.0, 80.0)]


def demo_instance() -> NetworkInstance:
    """Ten nodes in four tight blobs; inter-blob travel rates come from a table.

    The blobs are placed so the clustering cover selects exactly their
    circumcenters, which makes the tabulated rates apply to the tour the
    scheduler actually drives.  Each 3-node blob keeps two members inside one
    sector window of its center, so a single direction can charge them
    together.
    """

    def ring(center, radius, degrees):
        return [
            (center[0] + radius * math.cos(math.radians(a)),
             center[1] + radius * math.sin(math.radians(a)))
            for a in degrees
        ]

    blobs = [
        ring(_DEMO_CENTERS[0], 5.0, [10.0, 30.0, 200.0]),
        ring(_DEMO_CENTERS[1], 5.0, [100.0, 120.0, 290.0]),
        ring(_DEMO_CENTERS[2], 5.0, [190.0, 210.0, 20.0]),
        [_DEMO_CENTERS[3]],
    ]
    x, y = snap9_array(np.array([p for blob in blobs for p in blob])).T
    e_b, e_d, e_c = _draw_energies(np.random.default_rng(7), len(x))

    specials = [_DEMO_BS] + _DEMO_CENTERS
    base = AsymmetryField(seed=7)
    overrides = {}
    for i, a in enumerate(specials):
        for j, b in enumerate(specials):
            if i != j:
                overrides[(base.quantize(a), base.quantize(b))] = (1.0, _DEMO_RATE_TABLE[i][j])
    asym = AsymmetryField(seed=7, overrides=overrides)
    return NetworkInstance(x, y, e_b, e_d, e_c, _DEMO_BS, DmcParams(), asym)


def demo_report() -> tuple[str, list[dict]]:
    instance = demo_instance()
    rows = []
    results = {}
    for algorithm, schedule in _SCHEDULERS.items():
        _, results[algorithm] = schedule(instance, 7)
        rows.append(_run_row(algorithm, instance.n, 0, 7, "ok", results[algorithm]))

    labels = [
        ("Energy loss (J)", "total_energy_loss"),
        ("Time span (s)", "time_span"),
        ("Charging energy loss (J)", "charging_energy_loss"),
        ("Movement energy consumption (J)", "movement_energy"),
        ("Charging time (s)", "charging_time"),
        ("Moving time (s)", "moving_time"),
    ]
    width = max(len(label) for label, _ in labels)
    lines = [f"{'Performance metric':<{width}}  {'ra_dmcs':>12}  {'o2o_greedy':>12}"]
    for label, attr in labels:
        a = getattr(results["ra_dmcs"], attr)
        b = getattr(results["o2o_greedy"], attr)
        lines.append(f"{label:<{width}}  {a:>12.2f}  {b:>12.2f}")
    return "\n".join(lines) + "\n", rows


# ---------------------------------------------------------------------------
# command line


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad integer list {text!r}") from exc


def _print_metrics(metrics: ScheduleMetrics) -> None:
    for name, value in dataclasses.asdict(metrics).items():
        print(f"{name} = {_text(value)}")


def _cmd_generate(args) -> int:
    instance = generate_instance(
        args.nodes, args.seed, area=args.area, avoid_bs_disc=args.avoid_bs_disc
    )
    with open(args.out, "w", encoding="ascii") as f:
        f.write(instance_to_text(instance))
    print(f"wrote {args.out} ({instance.n} nodes)")
    return 0


def _cmd_schedule(args) -> int:
    instance = instance_from_text(_read(args.instance, "instance"))
    schedule, metrics = _SCHEDULERS[args.algorithm](instance, args.seed)
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            f.write(schedule_to_text(schedule))
    if args.metrics_out:
        row = _run_row(args.algorithm, instance.n, 0, args.seed, "ok", metrics)
        write_csv(args.metrics_out, [row], DETAIL_FIELDS)
    _print_metrics(metrics)
    return 0


def _cmd_evaluate(args) -> int:
    instance = instance_from_text(_read(args.instance, "instance"))
    schedule = schedule_from_text(_read(args.schedule, "schedule"))
    metrics = execute_schedule(instance, schedule)
    if args.out:
        write_csv(args.out, [_run_row("evaluate", instance.n, 0, 0, "ok", metrics)], DETAIL_FIELDS)
    _print_metrics(metrics)
    return 0


def _sweep(args, **choice) -> ExperimentConfig:
    """The config of a sweep command; ``choice`` names the algorithms or solvers."""
    return ExperimentConfig(
        n_values=_parse_int_list(args.nodes), repeats=args.repeats, area=args.area,
        seed=args.seed, workers=args.workers, **choice,
    )


def _cmd_experiment(args) -> int:
    cfg = _sweep(args, algorithms=tuple(args.algorithms.split(",")))
    detail_path = _sibling(args.out, "_runs")
    # both files open before the sweep, so an unwritable path costs no planning
    with _csv_file(args.out) as out, _csv_file(detail_path) as runs:
        summary, detail = run_experiment(cfg)
        _write_rows(out, summary, SUMMARY_FIELDS)
        _write_rows(runs, detail, DETAIL_FIELDS)
    failed = sum(1 for row in detail if row["status"] != "ok")
    print(f"wrote {args.out} and {detail_path} ({len(detail)} runs, {failed} failed)")
    return 0


def _cmd_atsp_bench(args) -> int:
    cfg = _sweep(args, atsp_solvers=tuple(args.solvers.split(",")))
    fields = ["solver", "n", "repeat", "seed", "status",
              "tour_energy", "moving_time", "runtime", "held_karp_gap"]
    with _csv_file(args.out) as out:
        rows = run_atsp_bench(cfg)
        _write_rows(out, rows, fields)
    failed = sum(1 for row in rows if row["status"] != "ok")
    print(f"wrote {args.out} ({len(rows)} rows, {failed} failed)")
    return 0


def _cmd_demo_toy(args) -> int:
    report, rows = demo_report()
    print(report, end="")
    if args.out:
        write_csv(args.out, rows, DETAIL_FIELDS)
        print(f"wrote {args.out}")
    return 0


def _sibling(path: str, suffix: str) -> str:
    if path.endswith(".csv"):
        return path[: -len(".csv")] + suffix + ".csv"
    return path + suffix


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymcharge",
        description="Charge-tour scheduling for sector chargers under asymmetric travel costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random instance file")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--area", type=float, default=200.0)
    p.add_argument("--avoid-bs-disc", action="store_true",
                   help="keep nodes outside charge range of the base station")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("schedule", help="schedule one instance with one algorithm")
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="ra_dmcs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="schedule file to write")
    p.add_argument("--metrics-out", help="metrics CSV to write")
    p.set_defaults(fn=_cmd_schedule)

    p = sub.add_parser("evaluate", help="evaluate a schedule file against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--out", help="metrics CSV to write")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("experiment", help="sweep node counts over seeded instances")
    p.add_argument("--nodes", default="50,100,150,200,250,300,350,400,450",
                   help="comma-separated node counts")
    p.add_argument("--repeats", type=int, default=50, help="runs per node count (paper: 200)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--area", type=float, default=200.0)
    p.add_argument("--algorithms", default=",".join(ALGORITHMS))
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("atsp-bench", help="compare tour solvers on random instances")
    p.add_argument("--nodes", default="6,8,10,14,20", help="comma-separated point counts")
    p.add_argument("--repeats", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--area", type=float, default=200.0)
    p.add_argument("--solvers", default=",".join(ATSP_SOLVERS))
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_atsp_bench)

    p = sub.add_parser("demo-toy", help="run both schedulers on the tabulated demo scenario")
    p.add_argument("--out", help="metrics CSV to write")
    p.set_defaults(fn=_cmd_demo_toy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SchedulingError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
