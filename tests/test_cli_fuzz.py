"""The command line on mutated small instances: exit 0, 2 or 3, never a traceback.

Each example takes a generated 6-node instance and either scales every
coordinate by a power of ten, sets one node, base-station, charger or field
value to an extreme, or sets the quantization grid to one.  Both algorithms
schedule it in-process with every warning raised as an error; a failure
must print exactly one ``error:`` line, and a schedule that was written must
pass ``evaluate`` with the same ``feasible`` line the planner printed.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from asymcharge.cli import ALGORITHMS, generate_instance, instance_to_text, main

EXTREMES = [1e308, -1e308, 5e-324, 0.0, -0.0, 10**400, 1e-300, 1e300, 1.7e308, -1.7e308]

FIELDS = {
    "nodes": ["x", "y", "e_b", "e_d", "e_c"],
    "bs": ["x", "y"],
    "dmc": ["p0", "e_b0", "d", "phi", "v", "w0", "delta", "alpha", "beta"],
    "asym": ["seed", "k_dis_lo", "k_dis_hi", "k_egy_lo", "k_egy_hi", "grid"],
}


@st.composite
def mutated_instances(draw):
    """Instance text of a generated 6-node instance with one mutation."""
    doc = json.loads(instance_to_text(generate_instance(6, seed=draw(st.integers(1, 5)))))
    kind = draw(st.sampled_from(["scale", "field", "grid"]))
    if kind == "scale":
        scale = 10.0 ** draw(st.integers(-300, 300))
        for point in [*doc["nodes"], doc["bs"]]:
            point["x"] *= scale
            point["y"] *= scale
    elif kind == "field":
        part = draw(st.sampled_from(sorted(FIELDS)))
        target = doc[part][draw(st.integers(0, 5))] if part == "nodes" else doc[part]
        target[draw(st.sampled_from(FIELDS[part]))] = draw(st.sampled_from(EXTREMES))
    else:
        doc["asym"]["grid"] = draw(st.sampled_from([*EXTREMES, 1e-12, 1e12]))
    return json.dumps(doc)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def feasible_line(stdout: str) -> str:
    (line,) = [row for row in stdout.splitlines() if row.startswith("feasible = ")]
    return line


@settings(max_examples=200, deadline=None)
@given(mutated_instances())
def test_extreme_inputs_exit_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        inst = Path(tmp) / "inst.json"
        inst.write_text(text, encoding="ascii")
        for algorithm in ALGORITHMS:
            sched = Path(tmp) / f"{algorithm}.json"
            code, out, err = run_cli([
                "schedule", "--instance", str(inst), "--algorithm", algorithm, "--out", str(sched),
            ])
            assert code in (0, 2, 3)
            if code != 0:
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error:"), err
                continue
            assert err == ""
            again, replayed, err = run_cli(["evaluate", "--instance", str(inst), "--schedule", str(sched)])
            assert (again, err) == (0, "")
            assert feasible_line(replayed) == feasible_line(out)
