"""One digest over the planners' output on fixed instances, pinned as a literal.

The digest covers the schedule file text and every printed metric except
``algorithm_runtime``, for both schedulers on six small generated instances,
and the ``demo-toy`` report with its rows.  A change that claims to keep
every schedule and metric byte-identical must leave it as it is; a change
that alters output on purpose updates the literal and says why.
"""

import dataclasses
import hashlib

from asymcharge import ScheduleMetrics, one_to_one_schedule, plan_schedule
from asymcharge.cli import _text, demo_report, generate_instance, schedule_to_text

PINNED = "18fe9b41e4f20c7072298852dd12c06a19684aca613cdae07c0ded65988e9222"

PRINTED = [f.name for f in dataclasses.fields(ScheduleMetrics) if f.name != "algorithm_runtime"]
CASES = [(n, area) for n in (1, 12, 60) for area in (200.0, 2000.0)]


def _output() -> str:
    parts = []
    for n, area in CASES:
        instance = generate_instance(n, seed=n + 17, area=area)
        for schedule, metrics in (plan_schedule(instance, seed=3), one_to_one_schedule(instance)):
            parts.append(schedule_to_text(schedule))
            parts += (f"{name} = {_text(getattr(metrics, name))}" for name in PRINTED)
    report, rows = demo_report()
    parts.append(report)
    for row in rows:
        parts += (f"{k} = {_text(v)}" for k, v in row.items() if k != "algorithm_runtime")
    return "\n".join(parts)


def test_output_digest_is_pinned():
    assert hashlib.sha256(_output().encode("ascii")).hexdigest() == PINNED
