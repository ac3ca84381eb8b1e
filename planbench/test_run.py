"""Tests of the planner benchmark itself, at smoke size.

    python -m pytest planbench
"""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("planbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "planbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _result(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # correct and failed report the program, which may fail a tiny sparse
    # instance (moves over 1000 s); these tests check the benchmark
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    return result, lines[:-1]


def _assert_metrics(result, report, declared):
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        assert any(line.split()[:1] == [name] and m["unit"] in line for line in report), name


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, report = _result(workload, 0)
    _assert_metrics(result, report, SPEC["end_to_end"])
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name
    printed = {line.split()[0]: line.split()[2] for line in report if not line.startswith("#")}
    assert {name: printed[name] for name in bench.REPORT_ONLY} == {
        "reference_s": "s", "plans_per_s": "1/s", "plan_p50_s": "s", "evaluate_p50_s": "s",
        "failed_frac": "ratio",
    }


@pytest.mark.parametrize("workload", ["dense", "o2o"])
def test_traced_run_prints_every_per_layer_metric(workload):
    result, report = _result(workload, 1)
    _assert_metrics(result, report, SPEC["per_layer"])


def test_corrupted_move_duration_is_counted_not_raised(monkeypatch):
    wl = bench.smoke(bench.WORKLOADS["dense"])
    batch = [bench.make_instance(wl, 5, 0)]
    render = bench.cli.schedule_to_text

    def corrupt(schedule):
        doc = json.loads(render(schedule))
        move = next(item for item in doc["items"] if item["state"] == 0)
        move["t"] += 1.0
        return json.dumps(doc)

    monkeypatch.setattr(bench.cli, "schedule_to_text", corrupt)
    ops, wall = bench.timed_loop(wl, batch, seconds=0.0)
    assert len(ops) == 1
    assert [kind for kind, _ in ops[0].problems] == ["exception"]
    assert "MalformedScheduleError" in ops[0].problems[0][1]
    values, _ = bench.end_to_end(ops, wall, import_s=0.5, setup_s=1.0)
    assert values["failed_frac"][0] == 1.0


def test_instance_counts_do_not_depend_on_run_length():
    wl = bench.smoke(bench.WORKLOADS["sparse"])
    batch = [bench.make_instance(wl, 9, i) for i in range(wl.batch)]
    short, _ = bench.timed_loop(wl, batch, seconds=0.0)
    long, _ = bench.timed_loop(wl, batch, seconds=0.5)
    assert [op.index for op in short] == list(range(wl.batch))
    assert len(long) > len(short)
    assert bench.outcome(short) == bench.outcome(long)
    assert bench.outcome(long)[0] == wl.batch


def test_calls_are_timed_between_reference_runs():
    wl = bench.smoke(bench.WORKLOADS["o2o"])
    instance, seed = bench.make_instance(wl, 4, 0)
    op = bench.closed_loop(wl, instance, seed, 0, evaluate_reps=3)
    assert not op.failed
    assert len(op.evaluate_s) == 3 and len(op.ref_s) == 2 + 3
    assert op.plan_ref == pytest.approx(op.plan_s / ((op.ref_s[0] + op.ref_s[1]) / 2))
    assert op.evaluate_ref[2] == pytest.approx(op.evaluate_s[2] / ((op.ref_s[3] + op.ref_s[4]) / 2))


def test_traced_and_untraced_schedules_agree():
    wl = bench.smoke(bench.WORKLOADS["sparse"])
    batch = [bench.make_instance(wl, 7, i) for i in range(wl.batch)]
    tracer = bench.Tracer()
    plain, traced = bench.traced_loop(wl, batch, 0.0, tracer)
    assert [op.digest for op in plain] == [op.digest for op in traced]
    assert all(op.digest for op in traced)
    assert not any(kind == "trace" for op in traced for kind, _ in op.problems)
    ops, problems = bench.per_op_layers(tracer.spans)
    assert problems == []
    assert ops[0]["positions.welzl_calls"] >= ops[0]["positions.kmeans_calls"] >= 1


def test_fails_without_the_program(tmp_path):
    (tmp_path / "planbench").mkdir()
    shutil.copy(HERE / "run.py", tmp_path / "planbench" / "run.py")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "dense", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
