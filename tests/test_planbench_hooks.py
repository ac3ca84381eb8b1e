"""Every function the planner benchmark wraps is still looked up where it wraps it.

``planbench/run.py`` times each stage by replacing module attributes
(``HOOKS``); a scheduler that calls one of them some other way skips its
wrapper, and that stage's metric reads 0 without any test failing.
"""

import importlib.util
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

from asymcharge.cli import generate_instance
from asymcharge.pipeline import one_to_one_schedule, plan_schedule

RUN = Path(__file__).resolve().parents[1] / "planbench" / "run.py"
_spec = importlib.util.spec_from_file_location("planbench_run", RUN)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_every_hook_fires():
    calls = {}

    def counting(key, original):
        def spy(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        return spy

    instance = generate_instance(60, 5)
    with ExitStack() as stack:
        for module, attr, _, _ in bench.HOOKS:
            key = f"{module.__name__}.{attr}"
            calls[key] = 0
            stack.enter_context(mock.patch.object(module, attr, counting(key, getattr(module, attr))))
        plan_schedule(instance)
        one_to_one_schedule(instance)
    assert len(calls) == len(bench.HOOKS)
    assert [key for key, count in calls.items() if count == 0] == []
