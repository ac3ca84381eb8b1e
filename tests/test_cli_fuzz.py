"""The command line on mutated small instances: exit 0, 2 or 3, never a traceback.

The first property takes a generated 6-node instance and either scales every
coordinate by a power of ten, sets one node, base-station, charger or field
value to an extreme, or sets the quantization grid to one.  Both algorithms
schedule it in-process with every warning raised as an error; a failure
must print exactly one ``error:`` line, and a schedule that was written must
pass ``evaluate`` with the same ``feasible`` line the planner printed.

The second property edits the raw bytes of such an instance file, or of the
schedule planned for it, and runs ``schedule`` or ``evaluate`` on the result
under the same contract.
"""

import contextlib
import functools
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from asymcharge.cli import (
    _SCHEDULERS,
    ALGORITHMS,
    generate_instance,
    instance_to_text,
    main,
    schedule_to_text,
)

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


# JSON values, some invalid, that an edit inserts somewhere in a file
TOKENS = [b'"a"', b"null", b"[]", b"{}", b"true", b"NaN", b"-Infinity", b"1e999", b"1" * 400]


@functools.cache
def planned_files(seed: int, algorithm: str) -> tuple[bytes, bytes]:
    """Bytes of a generated 6-node instance file and of the schedule planned for it."""
    instance = generate_instance(6, seed=seed)
    schedule, _ = _SCHEDULERS[algorithm](instance, seed)
    return instance_to_text(instance).encode("ascii"), schedule_to_text(schedule).encode("ascii")


@st.composite
def mutated_bytes(draw):
    """(algorithm, instance bytes, schedule bytes, which one was edited) after one byte edit."""
    algorithm = draw(st.sampled_from(ALGORITHMS))
    files = list(planned_files(draw(st.integers(1, 5)), algorithm))
    target = draw(st.integers(0, 1))  # 0 edits the instance, 1 the schedule
    data = files[target]
    at = draw(st.integers(0, len(data)))
    kind = draw(st.sampled_from(["high", "truncate", "nest", "overwrite", "token"]))
    if kind == "high":
        data = data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]
    elif kind == "truncate":
        data = data[:at]
    elif kind == "nest":
        data = b"[" * draw(st.sampled_from([10, 5_000, 100_000])) + data
    elif kind == "overwrite":
        at = min(at, len(data) - 1)
        data = data[:at] + bytes([draw(st.integers(0x00, 0x7F))]) + data[at + 1:]
    else:
        data = data[:at] + draw(st.sampled_from(TOKENS)) + data[at:]
    files[target] = data
    return algorithm, *files, target


@settings(max_examples=200, deadline=None)
@given(mutated_bytes())
def test_mutated_bytes_exit_cleanly(case):
    algorithm, instance_bytes, schedule_bytes, target = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        inst, sched = Path(tmp) / "inst.json", Path(tmp) / "sched.json"
        inst.write_bytes(instance_bytes)
        sched.write_bytes(schedule_bytes)
        if target == 0:
            code, _, err = run_cli([
                "schedule", "--instance", str(inst), "--algorithm", algorithm,
                "--out", str(Path(tmp) / "again.json"),
            ])
        else:
            code, _, err = run_cli(["evaluate", "--instance", str(inst), "--schedule", str(sched)])
        assert code in (0, 2, 3)
        if code != 0:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), err
        else:
            assert err == ""
