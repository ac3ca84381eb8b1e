#!/usr/bin/env python3
"""Planner benchmark: one workload per process, every output checked.

    python3 planbench/run.py --workload dense --seed 1 --seconds 40 --trace 0

Each workload is a fixed batch of instances from ``cli.generate_instance``
whose seeds derive from ``--seed``.  Every instance runs the same closed
loop: schedule, write schedule and instance to text, parse both, replay the
parsed schedule with ``execute_schedule`` (the ``evaluate`` path, run
``EVALUATE_REPS`` times) and check the result.  The timed loop plans every
instance of the batch once and then keeps cycling through the batch until
``--seconds`` have passed.  An instance is one attempted operation; it fails
if any of its closed loops fails, so the counts do not depend on run length.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
instance of the first half of the batch untraced and then traced, with spans
recorded around the module functions the schedulers look up, and prints the
per-module metrics.
``--smoke`` shrinks every workload to a few small instances for tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report with sample counts and provenance.  Results and spans
are also written under ``planbench/out/``.
"""

import time

_STARTED = time.perf_counter()

import os

# Thread pools are sized when numpy loads, so pin them before that import.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import functools
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "planbench" / "out"
_SRC = ROOT / "src"
if not (_SRC / "asymcharge" / "__init__.py").is_file():
    sys.exit(f"error: asymcharge sources not found under {_SRC}")
sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from asymcharge import cli, model, pipeline, positions  # noqa: E402

SETUP_REPS = 5
EVALUATE_REPS = 3  # the evaluate path is short, so time it a few times per plan
# Printed in the report but left out of the JSON result.  failed_frac is 0 on
# two workloads (the JSON carries it as failed/attempted).  On a shared
# 2-vCPU machine identical calls swing up to 2x, in phases of seconds that
# can last a whole run, so times in seconds follow the machine; the same
# calls in units of the reference kernel (plan_ref, evaluate_ref) stay steady.
REPORT_ONLY = ("reference_s", "plans_per_s", "plan_p50_s", "evaluate_p50_s", "failed_frac")
REL_TOL = 1e-6  # round trip vs in-memory metrics; the text keeps 9 digits
IDENTITY_TOL = 1e-9  # total = charging + movement, span = charging + moving
MATCHED_FIELDS = (
    "total_energy_loss",
    "charging_energy_loss",
    "movement_energy",
    "tour_distance",
    "time_span",
    "charging_time",
    "moving_time",
    "received_total",
)


@dataclass(frozen=True)
class Workload:
    name: str
    scheduler: str  # "plan_schedule" or "one_to_one_schedule"
    n: int
    area: float
    batch: int  # instances per run, each planned at least once


# One pass over a batch takes about 32 s (dense), 30 s (sparse) and 4 s (o2o)
# at today's speed.  Plan cost differs up to 2.5x between instances of dense
# and sparse, so they take as many instances as one 40 s run can plan.
WORKLOADS = {
    "dense": Workload("dense", "plan_schedule", 450, 200.0, 18),
    "sparse": Workload("sparse", "plan_schedule", 100, 2000.0, 30),
    "o2o": Workload("o2o", "one_to_one_schedule", 450, 200.0, 6),
}


def smoke(wl: Workload) -> Workload:
    return replace(wl, n=max(4, wl.n // 15), batch=2)


def instance_seed(workload: str, seed: int, index: int | str) -> int:
    key = f"{workload}/{seed}/{index}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=4).digest(), "little")


def make_instance(wl: Workload, seed: int, index: int | str, n: int | None = None):
    s = instance_seed(wl.name, seed, index)
    return cli.generate_instance(n or wl.n, s, area=wl.area), s


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory: name, start, end, parent span, operation id, counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "counts": {},
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


class NoTrace:
    def span(self, name: str):
        return nullcontext({})


NO_TRACE = NoTrace()


def _one(key):
    return lambda args, result: {key: 1}


# (module, attribute the schedulers look up, span name, counts at the boundary)
HOOKS = (
    (pipeline, "select_charging_positions", "positions",
     lambda a, r: {"positions.count": len(r.positions)}),
    (positions, "kmeans", "positions.kmeans", _one("positions.kmeans_calls")),
    (positions, "min_enclosing_circle", "positions.welzl", _one("positions.welzl_calls")),
    (pipeline, "build_coefficient_matrix", "directions",
     lambda a, r: {"directions.rows": len(r.rows)}),
    (pipeline, "build_time_lp", "timing",
     lambda a, r: {"timing.lp_rows": r.a.shape[0], "timing.lp_cols": r.a.shape[1]}),
    (pipeline, "solve_lp", "timing", lambda a, r: {"timing.objective_s": r.objective}),
    (model, "build_routing_matrices", "model.matrices",
     lambda a, r: {"model.pairs": len(r.positions) * (len(r.positions) - 1)}),
    (pipeline, "metric_closure", "routing.closure", None),
    (pipeline, "lk_tour", "routing.tour", lambda a, r: {"routing.points": a[0].n}),
    (pipeline, "greedy_tour", "routing.tour", lambda a, r: {"routing.points": a[0].n}),
    (pipeline, "expand_tour", "routing.tour",
     lambda a, r: {"routing.revisits": len(r.order) - len(a[0].order)}),
    (pipeline, "execute_schedule", "pipeline.replay", None),
)


def _wrap(tracer: Tracer, original, name: str, count):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as counts:
            result = original(*args, **kwargs)
            if count is not None:
                counts.update(count(args, result))
        return result

    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Replace the hooked module attributes by span-recording wrappers."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in HOOKS]
    try:
        for (module, attr, name, count), (_, _, original) in zip(HOOKS, saved):
            setattr(module, attr, _wrap(tracer, original, name, count))
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


# Per-module self time: the span names each metric sums.
SELF_TIMES = {
    "positions.s": ("positions", "positions.kmeans", "positions.welzl"),
    "directions.s": ("directions",),
    "timing.s": ("timing",),
    "model.matrices.s": ("model.matrices",),
    "routing.closure.s": ("routing.closure",),
    "routing.tour.s": ("routing.tour",),
    "pipeline.replay.s": ("pipeline.replay",),
    "pipeline.glue.s": ("scheduler",),
    "cli.render.s": ("cli.render",),
    "cli.parse.s": ("cli.parse",),
}
COUNTS = (
    "positions.kmeans_calls",
    "positions.welzl_calls",
    "positions.count",
    "directions.rows",
    "timing.lp_rows",
    "timing.lp_cols",
    "timing.objective_s",
    "model.pairs",
    "routing.points",
    "routing.revisits",
    "pipeline.items",
    "pipeline.transmit_items",
    "cli.bytes",
)


def per_op_layers(spans: list[dict]) -> tuple[dict[int, dict[str, float]], list[str]]:
    """Self times and counts per operation, plus span-consistency problems."""
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    problems = []
    for i, s in enumerate(spans):
        p = s["parent"]
        if p is not None:
            child[p] += dur[i]
            parent = spans[p]
            if s["start"] < parent["start"] or s["end"] > parent["end"]:
                problems.append(f"span {s['name']} escapes its parent {parent['name']}")
    self_time = [d - c for d, c in zip(dur, child)]

    # every span below a scheduler span is accounted to it
    owner: list[int | None] = []
    for i, s in enumerate(spans):
        p = s["parent"]
        owner.append(i if s["name"] == "scheduler" else (owner[p] if p is not None else None))
    covered: dict[int, float] = {}
    for i, o in enumerate(owner):
        if o is not None:
            covered[o] = covered.get(o, 0.0) + self_time[i]
    for o, total in covered.items():
        if not math.isclose(total, dur[o], rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"scheduler span {dur[o]:.9f} s, self times sum to {total:.9f} s")

    by_name: dict[str, str] = {n: m for m, names in SELF_TIMES.items() for n in names}
    ops: dict[int, dict[str, float]] = {}
    for i, s in enumerate(spans):
        row = ops.setdefault(s["op"], dict.fromkeys((*SELF_TIMES, *COUNTS), 0.0))
        metric = by_name.get(s["name"])
        if metric is not None:
            row[metric] += self_time[i]
        for key, value in s["counts"].items():
            row[key] += value
    return ops, problems


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Op:
    index: int
    wall_s: float = 0.0
    plan_s: float | None = None
    evaluate_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)
    digest: str | None = None
    metrics: object = None
    problems: list[tuple[str, str]] = field(default_factory=list)

    @property
    def plan_ref(self) -> float:
        """Plan time over the mean of the reference times just before and after."""
        return self.plan_s / statistics.fmean(self.ref_s[:2])

    @property
    def evaluate_ref(self) -> list[float]:
        """Each evaluate time over the reference times around it."""
        return [t / statistics.fmean(self.ref_s[k + 1:k + 3]) for k, t in enumerate(self.evaluate_s)]

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def wrong(self) -> bool:
        """A problem other than an infeasible plan: the outputs disagree."""
        return any(kind != "infeasible" for kind, _ in self.problems)


def check(metrics, replayed) -> list[tuple[str, str]]:
    """Compare in-memory and round-trip metrics and test their identities."""
    problems = []
    for name in MATCHED_FIELDS:
        a, b = getattr(metrics, name), getattr(replayed, name)
        if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL):
            problems.append(("mismatch", f"{name} {a!r} in memory, {b!r} after round trip"))
    for label, m in (("in memory", metrics), ("round trip", replayed)):
        parts = m.charging_energy_loss + m.movement_energy
        if not math.isclose(m.total_energy_loss, parts, rel_tol=IDENTITY_TOL, abs_tol=IDENTITY_TOL):
            problems.append(("identity", f"{label}: total {m.total_energy_loss!r} != {parts!r}"))
        parts = m.charging_time + m.moving_time
        if not math.isclose(m.time_span, parts, rel_tol=IDENTITY_TOL, abs_tol=IDENTITY_TOL):
            problems.append(("identity", f"{label}: time span {m.time_span!r} != {parts!r}"))
    if not (metrics.feasible and replayed.feasible):
        # a plan short by about 1e-6 J can flip at the feasibility threshold
        # when the text rounds its times to 9 digits
        problems.append(("infeasible", f"feasible is {metrics.feasible} in memory, "
                                       f"{replayed.feasible} after round trip"))
    return problems


_REF_A = np.random.default_rng(0).random((120, 120))
_REF_M = np.zeros((120, 120))
_REF_B = np.random.default_rng(1).random((400, 350))
_REF_X = np.random.default_rng(2).random(350)


def reference_s() -> float:
    """Wall time of a fixed kernel, about 10 ms on an idle Xeon core.

    It does both kinds of work the schedulers spend their time on, for about
    equal time: interpreted code (hashing, float math, dict inserts, numpy
    element stores) and array code (matrix-vector products and rank-one
    updates on a matrix of an LP's size).  A busy shared machine slows the
    first kind up to 2x and the second much less, so the mix slows about as
    much as the schedulers do.  Calls are timed in units of this kernel, run
    just before and just after each one.
    """
    started = time.perf_counter()
    seen = {}
    for i in range(120):
        for j in range(0, 120, 2):
            h = hashlib.blake2b(b"%d,%d" % (i, j), digest_size=8).digest()
            _REF_M[i, j] = math.hypot(i - j, h[0]) * 1.5
            seen[h] = i
    _REF_A @ _REF_A
    for _ in range(12):
        k = int(np.argmin(_REF_B @ _REF_X))
        _REF_B[:] -= np.outer(_REF_B[:, k % 350], _REF_X) * 1e-12
    return time.perf_counter() - started


def closed_loop(wl: Workload, instance, seed: int, index: int, tracer=NO_TRACE,
                evaluate_reps: int = 1) -> Op:
    """Schedule, write, parse, replay and check one instance; never raises."""
    op = Op(index)
    started = time.perf_counter()
    op.ref_s.append(reference_s())
    try:
        plan_started = time.perf_counter()
        with tracer.span("scheduler") as counts:
            if wl.scheduler == "plan_schedule":
                schedule, metrics = pipeline.plan_schedule(instance, seed=seed)
            else:
                schedule, metrics = pipeline.one_to_one_schedule(instance)
            counts["pipeline.items"] = len(schedule.items)
            counts["pipeline.transmit_items"] = sum(
                item.state == pipeline.TRANSMIT for item in schedule.items
            )
        op.plan_s = time.perf_counter() - plan_started
        op.ref_s.append(reference_s())
        op.metrics = metrics
        with tracer.span("cli.render") as counts:
            schedule_text = cli.schedule_to_text(schedule)
            instance_text = cli.instance_to_text(instance)
            counts["cli.bytes"] = len(schedule_text) + len(instance_text)
        op.digest = hashlib.sha256(schedule_text.encode()).hexdigest()
        for _ in range(evaluate_reps):
            evaluate_started = time.perf_counter()
            with tracer.span("evaluate"):
                with tracer.span("cli.parse"):
                    parsed_instance = cli.instance_from_text(instance_text)
                    parsed_schedule = cli.schedule_from_text(schedule_text)
                replayed = pipeline.execute_schedule(parsed_instance, parsed_schedule)
            op.evaluate_s.append(time.perf_counter() - evaluate_started)
            op.ref_s.append(reference_s())
            op.problems.extend(x for x in check(metrics, replayed) if x not in op.problems)
    except Exception as exc:  # a failed operation is counted, never fatal
        op.problems.append(("exception", f"{type(exc).__name__}: {exc}"))
    op.wall_s = time.perf_counter() - started
    return op


def timed_loop(wl: Workload, batch, seconds: float) -> tuple[list[Op], float]:
    """Every instance once, then cycle through the batch until time is up."""
    ops: list[Op] = []
    digests: dict[int, str] = {}
    started = time.perf_counter()
    while len(ops) < len(batch) or time.perf_counter() - started < seconds:
        index = len(ops) % len(batch)
        instance, seed = batch[index]
        op = closed_loop(wl, instance, seed, index, evaluate_reps=EVALUATE_REPS)
        if op.digest is not None and digests.setdefault(index, op.digest) != op.digest:
            op.problems.append(("nondeterministic", f"instance {index}: schedule digest changed"))
        ops.append(op)
    return ops, time.perf_counter() - started


def traced_loop(wl: Workload, batch, seconds: float, tracer: Tracer) -> tuple[list[Op], list[Op]]:
    """Each instance untraced and then traced: the batch once, then until time is up."""
    plain_ops: list[Op] = []
    traced_ops: list[Op] = []
    started = time.perf_counter()
    while len(traced_ops) < len(batch) or time.perf_counter() - started < seconds:
        index = len(traced_ops) % len(batch)
        instance, seed = batch[index]
        plain = closed_loop(wl, instance, seed, index)
        tracer.op = len(traced_ops)
        with instrumented(tracer):
            traced = closed_loop(wl, instance, seed, index, tracer)
        if plain.digest != traced.digest:
            traced.problems.append(("trace", f"instance {index}: traced schedule differs"))
        plain_ops.append(plain)
        traced_ops.append(traced)
    return plain_ops, traced_ops


# ---------------------------------------------------------------------------
# reporting


def provenance() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _commit() -> str:
    """HEAD of the checkout's own git metadata, if it has any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def outcome(ops: list[Op]) -> tuple[int, int]:
    """Attempted and failed instances: an instance fails if any of its loops fails."""
    return len({op.index for op in ops}), len({op.index for op in ops if op.failed})


def end_to_end(ops: list[Op], wall: float, import_s: float, setup_s: float) -> tuple[dict, dict]:
    """Metric values and the sample note printed next to each."""
    plan = [op.plan_s for op in ops if op.plan_s is not None]
    evaluate = [t for op in ops for t in op.evaluate_s]
    # per instance: its calls in units of the reference kernel
    rel: dict[int, tuple[list[float], list[float]]] = {}
    first: dict[int, object] = {}
    for op in ops:
        plans, evaluates = rel.setdefault(op.index, ([], []))
        if op.plan_s is not None:
            plans.append(op.plan_ref)
        evaluates.extend(op.evaluate_ref)
        if op.metrics is not None:
            first.setdefault(op.index, op.metrics)
    attempted, failed = outcome(ops)
    values = {
        "plan_ref": (_mean([_median(p) for p, _ in rel.values() if p]), "ref"),
        "evaluate_ref": (_mean([_median(e) for _, e in rel.values() if e]), "ref"),
        "reference_s": (_median([t for op in ops for t in op.ref_s]), "s"),
        "plans_per_s": (len(ops) / wall, "1/s"),
        "plan_p50_s": (_median(plan), "s"),
        "evaluate_p50_s": (_median(evaluate), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "failed_frac": (failed / attempted, "ratio"),
        "energy_loss_j": (_mean([m.total_energy_loss for m in first.values()]), "J"),
        "time_span_s": (_mean([m.time_span for m in first.values()]), "s"),
    }
    notes = {
        "plan_ref": f"mean over {len(rel)} instances of the median of {len(plan)} calls",
        "evaluate_ref": f"mean over {len(rel)} instances of the median of {len(evaluate)} calls",
        "reference_s": f"median of {sum(len(op.ref_s) for op in ops)} reference kernel runs",
        "plans_per_s": f"{len(ops)} calls in {wall:.1f} s",
        "plan_p50_s": f"n={len(plan)}",
        "evaluate_p50_s": f"n={len(evaluate)}",
        "setup_s": f"imports {import_s:.3f} s plus the median of {SETUP_REPS} set-ups",
        "peak_rss_mb": "whole process",
        "failed_frac": f"{failed} of {attempted} instances",
        "energy_loss_j": f"mean of {len(first)} instances",
        "time_span_s": f"mean of {len(first)} instances",
    }
    return values, notes


def per_layer(plain_ops: list[Op], traced_ops: list[Op], tracer: Tracer) -> tuple[dict, dict, list[str]]:
    ops, problems = per_op_layers(tracer.spans)
    rows = list(ops.values())
    units = {m: "s" for m in SELF_TIMES}
    units.update({c: "count" for c in COUNTS})
    units.update({"timing.objective_s": "s", "cli.bytes": "B"})
    values = {m: (_median([r[m] for r in rows]), units[m]) for m in (*SELF_TIMES, *COUNTS)}
    untraced_rate = len(plain_ops) / sum(op.wall_s for op in plain_ops)
    traced_rate = len(traced_ops) / sum(op.wall_s for op in traced_ops)
    values["trace.overhead_frac"] = (1.0 - traced_rate / untraced_rate, "ratio")
    notes = {m: f"median of {len(rows)} traced instances" for m in values}
    notes["trace.overhead_frac"] = (
        f"plans_per_s {untraced_rate:.4f} untraced vs {traced_rate:.4f} traced, "
        f"{len(traced_ops)} pairs"
    )
    return values, notes, problems


def report(header: dict, values: dict, notes: dict, ops: list[Op], extra_wrong: list[str]) -> dict:
    wrong = [msg for op in ops if op.wrong for kind, msg in op.problems if kind != "infeasible"]
    wrong += extra_wrong
    for key, value in header.items():
        print(f"# {key}: {value}")
    for name, (value, unit) in values.items():
        print(f"{name:24s} {value:>16.6g} {unit:6s} ({notes[name]})")
    attempted, failed = outcome(ops)
    infeasible = len({op.index for op in ops for kind, _ in op.problems if kind == "infeasible"})
    print(f"# infeasible instances: {infeasible} of {attempted}, in {len(ops)} closed loops")
    for msg in wrong[:10]:
        print(f"# wrong: {msg}")
    return {"correct": not wrong, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few tiny instances")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = smoke(wl)
    import_s = time.perf_counter() - _STARTED

    reps = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        batch = [make_instance(wl, args.seed, i) for i in range(wl.batch)]
        warm, warm_seed = make_instance(wl, args.seed, "warm-up", n=max(2, wl.n // 8))
        closed_loop(wl, warm, warm_seed, -1)
        reps.append(time.perf_counter() - started)
    setup_s = import_s + statistics.median(reps)

    header = {"workload": f"{wl.name} ({wl.scheduler}, n={wl.n}, area={wl.area:g} m, "
                          f"batch={wl.batch})", "seed": args.seed, "trace": args.trace}
    header.update(provenance())
    extra_wrong: list[str] = []
    if args.trace:
        tracer = Tracer()
        # each instance is planned twice per cycle, so half the batch is traced
        plain_ops, traced_ops = traced_loop(wl, batch[:max(1, len(batch) // 2)], args.seconds, tracer)
        ops = plain_ops + traced_ops
        values, notes, extra_wrong = per_layer(plain_ops, traced_ops, tracer)
    else:
        ops, wall = timed_loop(wl, batch, args.seconds)
        values, notes = end_to_end(ops, wall, import_s, setup_s)
    result = report(header, values, notes, ops, extra_wrong)

    tag = f"{wl.name}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        **header,
        **result,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "ops": [
            {"instance": op.index, "wall_s": op.wall_s, "plan_s": op.plan_s,
             "evaluate_s": op.evaluate_s, "ref_s": op.ref_s, "digest": op.digest, "problems": op.problems}
            for op in ops
        ],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        fields = ("name", "start", "end", "parent", "op", "counts")
        spans = [[s[f] for f in fields] for s in tracer.spans]
        (OUT / f"{tag}-spans.json").write_text(json.dumps({"fields": fields, "spans": spans}) + "\n")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items() if k not in REPORT_ONLY}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
