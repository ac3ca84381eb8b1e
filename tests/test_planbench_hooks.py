"""Every function the planner benchmark wraps is still looked up where it wraps it,
and the counts it reads off the stage results are right.

``planbench/run.py`` times each stage by replacing module attributes
(``HOOKS``); a scheduler that calls one of them some other way skips its
wrapper, and that stage's metric reads 0 without any test failing.  Its
counts read the shapes of stage results, so a result laid out another way
can miscount without any error.
"""

import collections
import importlib.util
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

from asymcharge import TRANSMIT
from asymcharge.cli import generate_instance
from asymcharge.pipeline import one_to_one_schedule, plan_schedule

RUN = Path(__file__).resolve().parents[1] / "planbench" / "run.py"
_spec = importlib.util.spec_from_file_location("planbench_run", RUN)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def run_spied(run):
    """``run()`` with every hooked attribute spied on, and each hook's ``(args, result)`` calls."""
    calls = {}

    def spying(key, original):
        def spy(*args, **kwargs):
            result = original(*args, **kwargs)
            calls[key].append((args, result))
            return result

        return spy

    with ExitStack() as stack:
        for module, attr, _, _ in bench.HOOKS:
            key = f"{module.__name__}.{attr}"
            calls[key] = []
            stack.enter_context(mock.patch.object(module, attr, spying(key, getattr(module, attr))))
        value = run()
    return value, calls


def counts(calls) -> collections.Counter:
    """The counts the hooks report on the recorded calls, added up as the benchmark adds them."""
    total = collections.Counter()
    for module, attr, _, count in bench.HOOKS:
        for args, result in calls[f"{module.__name__}.{attr}"] if count else ():
            total.update(count(args, result))
    return total


def transmit_stops(schedule) -> int:
    return len({item.pos for item in schedule.items if item.state == TRANSMIT})


def test_every_hook_fires():
    instance = generate_instance(60, 5)
    _, planned = run_spied(lambda: plan_schedule(instance))
    _, baseline = run_spied(lambda: one_to_one_schedule(instance))
    assert len(planned) == len(bench.HOOKS)
    assert [key for key in planned if not planned[key] and not baseline[key]] == []


def test_counts_match_the_stage_results():
    # a stage result whose points lay transposed, (2, k) instead of (k, 2),
    # would count 2 positions or 2 routing points here
    instance = generate_instance(60, 5)
    (schedule, _), calls = run_spied(lambda: plan_schedule(instance))
    got = counts(calls)
    p = 1 + transmit_stops(schedule)  # the base station and each position that sends
    assert got["model.pairs"] == p * (p - 1)
    assert got["routing.points"] == p
    [(_, matrix)] = calls["asymcharge.pipeline.build_coefficient_matrix"]
    assert got["directions.rows"] == matrix.entries.shape[0]
    # every cover position covers its cluster, so each has rows
    assert got["positions.count"] == len({pi for pi, _ in matrix.rows}) > 2

    (schedule, _), calls = run_spied(lambda: one_to_one_schedule(instance))
    assert counts(calls)["routing.points"] == 1 + transmit_stops(schedule)
