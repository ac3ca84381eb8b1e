import json
import math
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcharge import ValidationError, cli
from asymcharge.cli import (
    ALGORITHMS,
    ExperimentConfig,
    demo_instance,
    demo_report,
    derive_seed,
    generate_instance,
    instance_from_text,
    instance_to_text,
    main,
    run_atsp_bench,
    run_experiment,
    schedule_from_text,
    schedule_to_text,
    summarize,
    write_csv,
)
from asymcharge.errors import InfeasibleError, MalformedScheduleError
from asymcharge.model import snap9_point
from asymcharge.pipeline import (
    MOVE,
    TRANSMIT,
    OperationSchedule,
    execute_schedule,
    one_to_one_schedule,
    plan_schedule,
)

from conftest import make_instance, subprocess_env
from scalar_reference import reference_generate_instance
from support import load_metrics_csv, node_rows


def _generated(generate, n, seed, area, avoid_bs_disc):
    """The bits of an instance's node columns and base station, or the message it raised."""
    try:
        instance = generate(n, seed, area=area, avoid_bs_disc=avoid_bs_disc)
    except ValidationError as exc:
        return str(exc)
    columns = (instance.x, instance.y, instance.e_b, instance.e_d, instance.e_c, instance.bs_pos)
    return [np.asarray(c, dtype=float).view(np.uint64).tolist() for c in columns]


@st.composite
def generator_cases(draw):
    """(n, seed, area, avoid_bs_disc, draws per node), areas from 0 up.

    Few draws per node make ``avoid_bs_disc`` run out on small squares; the
    real ``_AVOID_DRAWS`` comes only with squares of 45 m and more, over a
    third of which lies outside the disc, so the node-by-node loop stays short.
    """
    draws = draw(st.sampled_from([1, 2, 5, 50, cli._AVOID_DRAWS]))
    areas = st.sampled_from([45.0, 200.0, 2000.0]) | st.floats(45.0, 5000.0)
    if draws < cli._AVOID_DRAWS:
        areas |= st.sampled_from([0.0, 10.0, 28.3, 30.0]) | st.floats(0.0, 45.0)
    return (draw(st.integers(1, 60)), draw(st.integers(0, 2**64)), draw(areas),
            draw(st.booleans()), draws)


class TestGenerateInstance:
    def test_reproducible(self):
        a = generate_instance(20, seed=3)
        b = generate_instance(20, seed=3)
        assert instance_to_text(a) == instance_to_text(b)

    def test_single_node_valid(self):
        instance = generate_instance(1, seed=0)
        assert instance.n == 1

    def test_demand_clamp_property(self):
        count = 0
        for seed in range(40):
            instance = generate_instance(250, seed=seed)
            for u in node_rows(instance):
                count += 1
                assert u.e_b + u.e_d <= u.e_c + 1e-9
        assert count == 10_000

    def test_avoid_bs_disc(self):
        instance = generate_instance(60, seed=1, avoid_bs_disc=True)
        d = instance.dmc.d_max
        for u in node_rows(instance):
            assert math.dist(u.pos, instance.bs_pos) > d

    def test_nodes_inside_area(self):
        instance = generate_instance(100, seed=2, area=150.0)
        for u in node_rows(instance):
            assert 0.0 <= u.pos[0] <= 150.0
            assert 0.0 <= u.pos[1] <= 150.0

    @settings(max_examples=150, deadline=None)
    @given(generator_cases())
    def test_columns_equal_node_by_node_draws(self, case):
        n, seed, area, avoid, draws = case
        with mock.patch.object(cli, "_AVOID_DRAWS", draws):
            got = _generated(generate_instance, n, seed, area, avoid)
            want = _generated(reference_generate_instance, n, seed, area, avoid)
        assert got == want

    def test_avoid_draws_run_out_as_node_by_node(self):
        # the 20 m disc leaves a fifth of a 40 m square: 10 draws place 3
        # of 5 nodes, in more than one round
        with mock.patch.object(cli, "_AVOID_DRAWS", 2):
            for generate in (generate_instance, reference_generate_instance):
                with pytest.raises(ValidationError, match=r"^10 draws placed only 3 of 5 nodes "):
                    generate(5, 2, area=40.0, avoid_bs_disc=True)


class TestSerialization:
    def test_instance_round_trip_bytes(self):
        instance = generate_instance(15, seed=9)
        text = instance_to_text(instance)
        again = instance_to_text(instance_from_text(text))
        assert text == again

    def test_schedule_round_trip_bytes(self):
        instance = generate_instance(15, seed=9)
        schedule, _ = plan_schedule(instance, seed=9)
        text = schedule_to_text(schedule)
        again = schedule_to_text(schedule_from_text(text))
        assert text == again

    def test_coefficient_overrides_not_written(self):
        # the demo's tabulated coefficients have no place in the file, which
        # would replay the hashed ones
        with pytest.raises(
            ValidationError, match="^coefficient overrides are not part of the instance format$"
        ):
            instance_to_text(demo_instance())

    def test_bad_instance_rejected(self):
        with pytest.raises(ValidationError):
            instance_from_text("{not json")
        with pytest.raises(ValidationError):
            instance_from_text('{"nodes": []}')

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValidationError):
            schedule_from_text('{"items": [{"state": 9, "x": 0, "y": 0, "psi": 0, "t": 1}]}')

    def test_first_bad_item_value_raises_first(self):
        schedule, _ = one_to_one_schedule(generate_instance(6, seed=3))
        doc = json.loads(schedule_to_text(schedule))
        doc["items"][0]["t"] = "soon"
        doc["items"][5]["x"] = None
        with pytest.raises(
            ValidationError, match=r"^bad schedule file: could not convert string to float: 'soon'$"
        ):
            schedule_from_text(json.dumps(doc))

    def test_invalid_node_raises_before_a_later_missing_key(self):
        doc = json.loads(instance_to_text(generate_instance(6, seed=3)))
        doc["nodes"][2]["e_b"] = 80.0
        del doc["nodes"][4]["e_c"]
        with pytest.raises(
            ValidationError,
            match=r"^node 2: initial energy \+ demand exceeds capacity "
            r"\(80\.0 \+ 18\.0849348 > 80\.8864799\)$",
        ):
            instance_from_text(json.dumps(doc))
        # a missing key before the invalid node raises first
        del doc["nodes"][1]["y"]
        with pytest.raises(ValidationError, match=r"^bad instance file: 'y'$"):
            instance_from_text(json.dumps(doc))

    def test_number_beyond_a_float_rejected(self):
        # int() of Infinity, or float() of an integer of 401 digits, overflows
        text = instance_to_text(generate_instance(3, seed=1))
        text = re.sub(r'"seed": [^,\n]+', '"seed": Infinity', text, count=1)
        with pytest.raises(ValidationError, match=r"^bad instance file: cannot convert float infinity"):
            instance_from_text(text)
        for state, x in (("Infinity", "0"), ("0", "1" + "0" * 400)):
            text = f'{{"items": [{{"state": {state}, "x": {x}, "y": 0, "psi": 0, "t": 1}}]}}'
            with pytest.raises(ValidationError, match=r"^bad schedule file: "):
                schedule_from_text(text)

    @pytest.mark.parametrize("value", ["1.5", "0.99", "true", '"1"'])
    def test_state_not_an_integer_exit_code(self, tmp_path, capsys, value):
        # int() read 1.5 and true as a transmission and 0.99 as a move; the
        # item is valid as either, so only the reader can reject it
        instance = generate_instance(3, seed=1)
        inst = tmp_path / "inst.json"
        inst.write_text(instance_to_text(instance))
        x, y = snap9_point(instance.bs_pos)
        sched = tmp_path / "s.json"
        sched.write_text(f'{{"items": [{{"state": {value}, "x": {x}, "y": {y}, "psi": 0, "t": 0}}]}}')
        capsys.readouterr()
        code = main(["evaluate", "--instance", str(inst), "--schedule", str(sched)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error:validation: bad schedule file: state must be an integer, got {value}"]

    def test_integer_fields_read_whole_floats(self):
        text = '{"items": [{"state": 1.0, "x": 0, "y": 0, "psi": 0, "t": 1}]}'
        assert schedule_from_text(text).state.tolist() == [TRANSMIT]
        text = instance_to_text(generate_instance(3, seed=1))
        text = re.sub(r'"seed": [^,\n]+', '"seed": 3.0', text, count=1)
        assert instance_from_text(text).asym.seed == 3

    @pytest.mark.parametrize("value", ["3.7", "true", '"3"'])
    def test_seed_not_an_integer_exit_code(self, tmp_path, capsys, value):
        # int() planned 3.7 with seed 3 and true with seed 1
        text = instance_to_text(generate_instance(5, seed=2))
        inst = tmp_path / "inst.json"
        inst.write_text(re.sub(r'"seed": [^,\n]+', f'"seed": {value}', text, count=1))
        out = tmp_path / "s.json"
        capsys.readouterr()
        code = main(["schedule", "--instance", str(inst), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error:validation: bad instance file: asym seed must be an integer, got {value}"]
        assert not out.exists()
        # an invalid node before the seed raises first
        doc = json.loads(inst.read_text())
        doc["nodes"][1]["e_b"] = 1000.0
        with pytest.raises(ValidationError, match=r"^node 1: initial energy \+ demand exceeds capacity"):
            instance_from_text(json.dumps(doc))

    @pytest.mark.parametrize(
        "section, index, key, value, name",
        [
            ("nodes", 0, "x", "12.5", "node 0 x"),
            ("nodes", 3, "e_c", True, "node 3 e_c"),
            ("dmc", None, "p0", "4", "dmc p0"),
            ("bs", None, "x", True, "bs x"),
            ("asym", None, "grid", "0.01", "asym grid"),
            ("items", 1, "x", "100", "item 1 x"),
            ("items", 2, "psi", False, "item 2 psi"),
        ],
    )
    def test_number_field_not_a_number_exit_code(self, tmp_path, capsys, section, index, key, value, name):
        # float() read each of these: a numeric string as its number, a bool as 0 or 1
        instance = generate_instance(5, seed=2)
        files = {"instance": json.loads(instance_to_text(instance))}
        files["schedule"] = json.loads(schedule_to_text(one_to_one_schedule(instance)[0]))
        kind = "schedule" if section == "items" else "instance"
        target = files[kind][section]
        (target if index is None else target[index])[key] = value
        for name_, doc in files.items():
            (tmp_path / f"{name_}.json").write_text(json.dumps(doc))
        capsys.readouterr()
        code = main([
            "evaluate", "--instance", str(tmp_path / "instance.json"),
            "--schedule", str(tmp_path / "schedule.json"),
        ])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error:validation: bad {kind} file: {name} must be a number, got {json.dumps(value)}"]

    def test_first_non_number_raises_after_the_nodes_before_it(self):
        doc = json.loads(instance_to_text(generate_instance(6, seed=3)))
        doc["nodes"][4]["y"] = "7"
        doc["dmc"]["beta"] = None
        with pytest.raises(ValidationError, match=r'^bad instance file: node 4 y must be a number, got "7"$'):
            instance_from_text(json.dumps(doc))
        # an invalid node before the string raises first, a later one does not
        doc["nodes"][5]["e_b"] = 1000.0
        with pytest.raises(ValidationError, match=r"^bad instance file: node 4 y must be a number"):
            instance_from_text(json.dumps(doc))
        doc["nodes"][2]["e_b"] = 1000.0
        with pytest.raises(ValidationError, match=r"^node 2: initial energy \+ demand exceeds capacity"):
            instance_from_text(json.dumps(doc))
        # a missing key after a string in an earlier item raises second
        items = json.loads(schedule_to_text(one_to_one_schedule(generate_instance(6, seed=3))[0]))
        items["items"][1]["t"] = "1"
        del items["items"][3]["x"]
        with pytest.raises(ValidationError, match=r'^bad schedule file: item 1 t must be a number, got "1"$'):
            schedule_from_text(json.dumps(items))

    def test_columns_end_to_end_build_no_node_rows(self, monkeypatch):
        # generating, parsing, planning with either scheduler and replaying,
        # the replay's faults included, read the columns; only a reader of
        # ``items`` builds a schedule's rows
        def refuse(schedule):
            raise AssertionError("schedule.items was built")

        monkeypatch.setattr(OperationSchedule, "items", property(refuse))
        generated = generate_instance(40, seed=3)
        parsed = instance_from_text(instance_to_text(generated))
        for instance in (generated, parsed, demo_instance()):
            for plan in cli._SCHEDULERS.values():
                schedule, _ = plan(instance, 3)
                execute_schedule(instance, schedule_from_text(schedule_to_text(schedule)))
        instance = make_instance([((10.0, 0.0), 10.0, 20.0, 60.0)])
        faults = [
            ((TRANSMIT,), (5.0,), "item 0: transmits from (5.0, 0.0) but the charger is at (0.0, 0.0)"),
            (
                (MOVE, TRANSMIT),
                (10.0, 11.0),
                "item 1: transmits from (11.0, 0.0) but the charger is at (10.0, 0.0)",
            ),
            ((7,), (0.0,), "item 0: unknown state 7"),
        ]
        for state, x, message in faults:
            zeros = np.zeros(len(x))
            schedule = OperationSchedule(np.array(state), x, zeros, zeros, np.full(len(x), 10.0))
            with pytest.raises(MalformedScheduleError, match=f"^{re.escape(message)}$"):
                execute_schedule(instance, schedule)

    def test_derive_seed_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


class TestExperiment:
    def test_row_count_and_ci(self):
        cfg = ExperimentConfig(n_values=[4, 6, 8], repeats=1, seed=5, workers=1)
        summary, detail = run_experiment(cfg)
        assert len(summary) == 6  # 2 algorithms x 3 node counts
        assert len(detail) == 6
        for row in summary:
            assert row["runs"] == 1
            assert row["total_energy_loss_ci95"] == 0.0

    def test_means_recomputable_from_detail(self, tmp_path):
        cfg = ExperimentConfig(n_values=[6], repeats=4, seed=6, workers=1)
        summary, detail = run_experiment(cfg)
        path = tmp_path / "runs.csv"
        write_csv(
            path,
            detail,
            ["algorithm", "n", "repeat", "seed", "status", "total_energy_loss",
             "charging_energy_loss", "movement_energy", "tour_distance", "time_span",
             "charging_time", "moving_time", "algorithm_runtime", "received_total", "feasible"],
        )
        rows = load_metrics_csv(path)
        for srow in summary:
            matching = [
                float(r["total_energy_loss"])
                for r in rows
                if r["algorithm"] == srow["algorithm"] and int(r["n"]) == srow["n"]
            ]
            assert np.mean(matching) == pytest.approx(srow["total_energy_loss_mean"], rel=1e-8)

    def test_failures_recorded_not_fatal(self):
        rows = [
            {"algorithm": "a", "n": 5, "status": "ok", "x": 1.0},
            {"algorithm": "a", "n": 5, "status": "error: boom", "x": 99.0},
            {"algorithm": "a", "n": 5, "status": "ok", "x": 3.0},
        ]
        summary = summarize(rows, ("algorithm", "n"), ("x",))
        assert summary[0]["runs"] == 2
        assert summary[0]["x_mean"] == pytest.approx(2.0)

    def test_identity_check_on_load(self, tmp_path):
        path = tmp_path / "bad.csv"
        fields = ["status", "total_energy_loss", "charging_energy_loss", "movement_energy",
                  "time_span", "charging_time", "moving_time"]
        write_csv(path, [{"status": "ok", "total_energy_loss": 10.0,
                          "charging_energy_loss": 3.0, "movement_energy": 3.0,
                          "time_span": 5.0, "charging_time": 2.0, "moving_time": 3.0}], fields)
        with pytest.raises(ValidationError):
            load_metrics_csv(path)

    def test_parallel_matches_serial(self):
        cfg_serial = ExperimentConfig(n_values=[5], repeats=3, seed=7, workers=1)
        cfg_parallel = ExperimentConfig(n_values=[5], repeats=3, seed=7, workers=2)
        s1, d1 = run_experiment(cfg_serial)
        s2, d2 = run_experiment(cfg_parallel)
        strip = lambda rows: [
            {k: v for k, v in row.items() if k != "algorithm_runtime"} for row in rows
        ]
        assert strip(d1) == strip(d2)


class TestAtspBench:
    def test_rows_and_gap(self):
        cfg = ExperimentConfig(n_values=[6], repeats=3, seed=8, workers=1)
        rows = run_atsp_bench(cfg)
        assert len(rows) == 3 * len(cfg.atsp_solvers)
        by_key = {(r["solver"], r["repeat"]): r for r in rows}
        for repeat in range(3):
            for solver in cfg.atsp_solvers:
                row = by_key[(solver, repeat)]
                assert row["status"] == "ok"
                assert row["held_karp_gap"] >= -1e-12
            assert by_key[("lk", repeat)]["tour_energy"] <= by_key[("greedy", repeat)]["tour_energy"] + 1e-9
            assert by_key[("held_karp", repeat)]["held_karp_gap"] == pytest.approx(0.0, abs=1e-12)

    def test_exact_solver_only_within_its_limit(self):
        cfg = ExperimentConfig(n_values=[6, 16], repeats=2, seed=8, workers=1)
        rows = run_atsp_bench(cfg)
        solvers = {n: [r["solver"] for r in rows if r["n"] == n] for n in (6, 16)}
        assert solvers[6].count("held_karp") == 2
        assert "held_karp" not in solvers[16]
        assert len(solvers[16]) == 2 * (len(cfg.atsp_solvers) - 1)
        assert all(r["status"] == "ok" for r in rows)
        assert all("held_karp_gap" not in r for r in rows if r["n"] == 16)

    def test_exact_solver_runs_once_per_instance(self, monkeypatch):
        calls = []
        original = cli.held_karp

        def spy(closed):
            calls.append(closed.n)
            return original(closed)

        monkeypatch.setattr(cli, "held_karp", spy)
        cfg = ExperimentConfig(n_values=[6, 13], repeats=2, seed=8, workers=1)
        rows = run_atsp_bench(cfg)
        assert calls == [6, 6, 13, 13]
        # every row within the exact solver's limit, 13 points included, has a gap
        assert all(r["status"] == "ok" and r["held_karp_gap"] >= -1e-12 for r in rows)
        exact = [r for r in rows if r["solver"] == "held_karp"]
        assert [r["n"] for r in exact] == [6, 6, 13, 13]
        assert all(r["held_karp_gap"] == 0.0 for r in exact)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(n_values=[5], atsp_solvers=("nope",))


class TestDemo:
    def test_positions_recover_table_points(self):
        from asymcharge.positions import select_charging_positions

        cover = select_charging_positions(demo_instance())
        got = sorted((round(x, 6), round(y, 6)) for x, y in cover.positions)
        assert got == [(20.0, 20.0), (20.0, 80.0), (80.0, 20.0), (80.0, 80.0)]

    def test_report_contains_both_algorithms(self):
        report, rows = demo_report()
        assert "ra_dmcs" in report and "o2o_greedy" in report
        assert {r["algorithm"] for r in rows} == {"ra_dmcs", "o2o_greedy"}
        assert all(r["feasible"] for r in rows)


class TestCommandLine:
    def test_generate_schedule_evaluate_flow(self, tmp_path):
        inst = tmp_path / "inst.json"
        sched = tmp_path / "sched.json"
        metrics_csv = tmp_path / "m.csv"
        assert main(["generate", "--nodes", "12", "--seed", "4", "--out", str(inst)]) == 0
        assert main([
            "schedule", "--instance", str(inst), "--algorithm", "ra_dmcs",
            "--seed", "4", "--out", str(sched), "--metrics-out", str(metrics_csv),
        ]) == 0
        assert main(["evaluate", "--instance", str(inst), "--schedule", str(sched)]) == 0
        rows = load_metrics_csv(metrics_csv)
        assert rows[0]["feasible"] == "true"

    def test_experiment_command(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "experiment", "--nodes", "5,7", "--repeats", "2", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "sweep_runs.csv").exists()
        rows = load_metrics_csv(tmp_path / "sweep_runs.csv")
        assert len(rows) == 8

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(["schedule", "--instance", str(bad), "--out", str(tmp_path / "s.json")])
        assert code == 2

    @pytest.mark.parametrize(
        "flag, bad",
        [("--area", "nan"), ("--area", "inf"), ("--area", "-inf"), ("--area", "-5"),
         ("--seed", "-1")],
    )
    def test_bad_generate_input_exit_code(self, tmp_path, capsys, flag, bad):
        out = tmp_path / "inst.json"
        capsys.readouterr()
        code = main(["generate", "--nodes", "5", f"{flag}={bad}", "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:validation:")
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-5"])
    def test_bad_experiment_area_exit_code(self, tmp_path, capsys, bad):
        out = tmp_path / "sweep.csv"
        capsys.readouterr()
        code = main([
            "experiment", "--nodes", "5", "--repeats", "1", "--area", bad, "--out", str(out),
        ])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:validation:")
        assert not out.exists()

    def test_square_inside_the_base_station_disc_exit_code(self, tmp_path):
        # every point of a 10 m square lies within d_max of its center, so
        # re-drawing until one lies outside would never end; a child process
        # keeps a hang from stalling the suite
        proc = subprocess.run(
            [sys.executable, "-m", "asymcharge.cli", "generate", "--nodes", "3", "--seed", "1",
             "--area", "10", "--avoid-bs-disc", "--out", str(tmp_path / "x.json")],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:validation:")

    def test_sliver_outside_the_base_station_disc_exit_code(self, tmp_path):
        # one corner lies 20.00002 m from the center, so the square pokes out
        # of the 20 m disc by a sliver that rejection sampling hardly ever hits
        proc = subprocess.run(
            [sys.executable, "-m", "asymcharge.cli", "generate", "--nodes", "3", "--seed", "1",
             "--area", "28.2843", "--avoid-bs-disc", "--out", str(tmp_path / "x.json")],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:validation:")
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("field", ["x", "e_b", "d", "grid"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_instance_exit_code(self, tmp_path, capsys, field, bad):
        text = instance_to_text(generate_instance(5, seed=2))
        text = re.sub(rf'"{field}": [^,\n]+', f'"{field}": {bad}', text, count=1)
        inst = tmp_path / "inst.json"
        inst.write_text(text)
        capsys.readouterr()
        code = main(["schedule", "--instance", str(inst), "--out", str(tmp_path / "s.json")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:validation:")

    @pytest.mark.parametrize("algorithm", ["ra_dmcs", "o2o_greedy"])
    def test_cell_outside_int64_exit_code(self, tmp_path, capsys, algorithm):
        text = instance_to_text(generate_instance(5, seed=2))
        inst = tmp_path / "inst.json"
        inst.write_text(re.sub(r'"x": [^,\n]+', '"x": 1e17', text, count=1))
        capsys.readouterr()
        code = main([
            "schedule", "--instance", str(inst), "--algorithm", algorithm,
            "--out", str(tmp_path / "s.json"),
        ])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:validation:")

    @pytest.mark.parametrize("algorithm", ["ra_dmcs", "o2o_greedy"])
    @pytest.mark.parametrize(
        "field, bad",
        [("beta", "1000"), ("alpha", "1e200"), ("alpha", "1e-200"), ("delta", "1e-320")],
    )
    def test_transfer_model_out_of_range_exit_code(self, tmp_path, capsys, algorithm, field, bad):
        # the coefficient would overflow, divide by an underflowed power or
        # underflow to zero within reach
        text = instance_to_text(generate_instance(5, seed=2))
        inst = tmp_path / "inst.json"
        inst.write_text(re.sub(rf'"{field}": [^,\n]+', f'"{field}": {bad}', text, count=1))
        capsys.readouterr()
        code = main([
            "schedule", "--instance", str(inst), "--algorithm", algorithm,
            "--out", str(tmp_path / "s.json"),
        ])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:validation:")

    def test_program_below_the_simplex_tolerance_exit_code(self, tmp_path, capsys):
        # every node is covered, but each p0 * coefficient is about 4e-10,
        # below the simplex's 1e-9 tolerance: no column can enter, and the
        # plan must not come back empty
        text = instance_to_text(generate_instance(30, seed=1, area=100.0))
        inst = tmp_path / "inst.json"
        inst.write_text(re.sub(r'"delta": [^,\n]+', '"delta": 1e-6', text, count=1))
        sched = tmp_path / "s.json"
        capsys.readouterr()
        code = main(["schedule", "--instance", str(inst), "--out", str(sched)])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error:infeasible:")
        assert "no entering column" in err[0]
        assert not sched.exists()

    @pytest.mark.parametrize("algorithm", ["ra_dmcs", "o2o_greedy"])
    @pytest.mark.parametrize("field", ["w0", "k_dis_hi"])
    def test_travel_overflow_exit_code(self, tmp_path, algorithm, field):
        # travel costs beyond a float are rejected; a child process shows
        # what a user sees, so a numpy RuntimeWarning would be an extra line
        text = instance_to_text(generate_instance(6, seed=1))
        inst = tmp_path / "inst.json"
        inst.write_text(re.sub(rf'"{field}": [^,\n]+', f'"{field}": 1e308', text, count=1))
        proc = subprocess.run(
            [sys.executable, "-m", "asymcharge.cli", "schedule", "--instance", str(inst),
             "--algorithm", algorithm, "--out", str(tmp_path / "s.json")],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert err == ["error:validation: directed costs must be finite"]

    def test_node_offsets_beyond_a_float_exit_code(self, tmp_path):
        # two nodes 3.4e308 m apart on a grid that still quantizes them: the
        # cover's squared offsets overflow, which once made the k-means++
        # draw print numpy warnings and die on NaN probabilities
        doc = json.loads(instance_to_text(generate_instance(6, seed=1)))
        doc["asym"]["grid"] = 1e300
        doc["nodes"][0]["x"], doc["nodes"][1]["x"] = 1.7e308, -1.7e308
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "asymcharge.cli", "schedule", "--instance", str(inst),
             "--algorithm", "ra_dmcs", "--out", str(tmp_path / "s.json")],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:validation:")

    def test_negative_field_seed_plans(self, tmp_path):
        # the cover seeds its draws with the low 64 bits of the field seed,
        # the word every coefficient hash packs, so a negative seed plans
        doc = json.loads(instance_to_text(generate_instance(6, seed=3)))
        doc["asym"]["seed"] = -1
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(doc))
        for algorithm in ("ra_dmcs", "o2o_greedy"):
            sched = tmp_path / f"{algorithm}.json"
            for args in (
                ["schedule", "--instance", str(inst), "--algorithm", algorithm, "--out", str(sched)],
                ["evaluate", "--instance", str(inst), "--schedule", str(sched)],
            ):
                proc = subprocess.run(
                    [sys.executable, "-m", "asymcharge.cli", *args],
                    capture_output=True, text=True, env=subprocess_env(), timeout=60,
                )
                assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.parametrize("algorithm", ["ra_dmcs", "o2o_greedy"])
    def test_received_power_underflow_exit_code(self, tmp_path, algorithm):
        # p0 times every coefficient rounds to 0: no pair delivers anything,
        # which once divided by zero in the one-to-one planner
        doc = json.loads(instance_to_text(generate_instance(6, seed=3)))
        doc["dmc"]["p0"] = 5e-324
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "asymcharge.cli", "schedule", "--instance", str(inst),
             "--algorithm", algorithm, "--out", str(tmp_path / "s.json")],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:validation:")

    @pytest.mark.parametrize(
        "field, bad, first",
        [
            ("k_dis_hi", "1e308", "travel time"),
            ("v", "1e-320", "travel time"),
            ("w0", "1e308", "move energy"),
            ("p0", "1e308", "credited energy"),
        ],
    )
    def test_evaluate_overflow_exit_code(self, tmp_path, capsys, field, bad, first):
        # the planner's schedule, replayed on an instance whose travel or
        # transfer values overflow, names its first overflowing item
        inst = tmp_path / "inst.json"
        sched = tmp_path / "s.json"
        assert main(["generate", "--nodes", "6", "--seed", "3", "--out", str(inst)]) == 0
        assert main([
            "schedule", "--instance", str(inst), "--algorithm", "o2o_greedy", "--out", str(sched),
        ]) == 0
        inst.write_text(re.sub(rf'"{field}": [^,\n]+', f'"{field}": {bad}', inst.read_text(), count=1))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning fails the test
            code = main(["evaluate", "--instance", str(inst), "--schedule", str(sched)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1
        assert re.fullmatch(rf"error:malformed-schedule: item \d+: {first} is not finite", err[0])

    def test_pivot_limit_exit_code(self, tmp_path, capsys, monkeypatch):
        from asymcharge import timing

        monkeypatch.setattr(timing, "_MAX_PIVOTS", 1)
        inst = tmp_path / "inst.json"
        assert main(["generate", "--nodes", "12", "--seed", "4", "--out", str(inst)]) == 0
        capsys.readouterr()
        code = main(["schedule", "--instance", str(inst), "--out", str(tmp_path / "s.json")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:pivot-limit:")

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("schedule", "non-ASCII"),
            ("evaluate", "non-ASCII"),
            ("schedule", "nested"),
            ("evaluate", "nested"),
        ],
    )
    def test_unreadable_input_exit_code(self, tmp_path, capsys, command, bad):
        # a byte outside ASCII, or JSON nested deeper than the recursion
        # limit, once ended in a UnicodeDecodeError or RecursionError traceback
        inst, sched = tmp_path / "inst.json", tmp_path / "s.json"
        assert main(["generate", "--nodes", "6", "--seed", "1", "--out", str(inst)]) == 0
        assert main(["schedule", "--instance", str(inst), "--out", str(sched)]) == 0
        target = inst if command == "schedule" else sched
        if bad == "non-ASCII":
            target.write_bytes('{"nodes": [], "x": "\u00e9"}'.encode("utf-8"))
        else:
            prefix = b'{"nodes":' if command == "schedule" else b""
            target.write_bytes(prefix + b"[" * 200_000)
        capsys.readouterr()
        if command == "schedule":
            code = main(["schedule", "--instance", str(inst)])
        else:
            code = main(["evaluate", "--instance", str(inst), "--schedule", str(sched)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:validation:")

    def test_workers_capped_at_job_count(self, monkeypatch):
        # the pool forks every worker it is given, so two jobs get two
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        summary, detail = run_experiment(
            ExperimentConfig(n_values=[5], repeats=1, seed=3, algorithms=ALGORITHMS, workers=5000)
        )
        assert seen == [2]
        assert [row["status"] for row in detail] == ["ok", "ok"]

    @pytest.mark.parametrize("command, workers", [("experiment", "0"), ("atsp-bench", "-1")])
    def test_workers_below_one_exit_code(self, tmp_path, capsys, monkeypatch, command, workers):
        # no worker count below one runs the sweep, serially or in a pool
        table = cli._SCHEDULERS if command == "experiment" else cli._TOUR_SOLVERS
        calls = []
        for name in list(table):
            monkeypatch.setitem(table, name, lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda **kw: calls.append(kw))
        out = tmp_path / "sweep.csv"
        capsys.readouterr()
        code = main([command, "--nodes", "5", "--repeats", "1", "--workers", workers, "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["error:validation: workers must be at least 1"]
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, names",
        [("experiment", "--algorithms", "ra_dmcs,ra_dmcs"), ("experiment", "--nodes", "5,5"),
         ("atsp-bench", "--solvers", "lk,lk")],
    )
    def test_repeated_name_exit_code(self, tmp_path, command, flag, names):
        # a repeated name would plan the same seeded runs twice and report
        # them as two runs that agree
        out = tmp_path / "sweep.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "asymcharge.cli", command, "--nodes", "5", "--repeats", "1",
             flag, names, "--out", str(out)],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:validation:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["experiment", "atsp-bench"])
    def test_unwritable_output_exits_before_the_sweep(self, tmp_path, capsys, monkeypatch, command):
        table = cli._SCHEDULERS if command == "experiment" else cli._TOUR_SOLVERS
        calls = []

        def counted(run):
            def call(*args):
                calls.append(args)
                return run(*args)

            return call

        for name, run in list(table.items()):
            monkeypatch.setitem(table, name, counted(run))
        out = tmp_path / "missing" / "sweep.csv"
        capsys.readouterr()
        code = main([command, "--nodes", "5", "--repeats", "1", "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:io:")
        assert calls == []
        # the same sweep with a writable path runs the table
        assert main([command, "--nodes", "5", "--repeats", "1", "--out", str(tmp_path / "s.csv")]) == 0
        assert calls

    def test_infeasible_exit_code_mapping(self):
        assert InfeasibleError("x").exit_code == 3

    def test_battery_deficit_is_quiet(self, tmp_path):
        # the deficit shows only as feasible = false, not as a warning on stderr
        text = instance_to_text(generate_instance(20, seed=8))
        inst = tmp_path / "inst.json"
        inst.write_text(re.sub(r'"e_b0": [^,\n]+', '"e_b0": 100.0', text, count=1))
        metrics_csv = tmp_path / "m.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "asymcharge.cli", "schedule", "--instance", str(inst),
             "--seed", "8", "--out", str(tmp_path / "s.json"), "--metrics-out", str(metrics_csv)],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert load_metrics_csv(metrics_csv)[0]["feasible"] == "false"

    def test_byte_identical_across_processes(self, tmp_path):
        inst = tmp_path / "inst.json"
        main(["generate", "--nodes", "15", "--seed", "6", "--out", str(inst)])
        outputs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "asymcharge.cli", "schedule",
                 "--instance", str(inst), "--seed", "6", "--out", str(path)],
                capture_output=True, text=True, check=True, env=subprocess_env(),
            )
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


def masked_csv(path) -> list[str]:
    """A CSV file's lines, each ending in CRLF, with runtime cells set to ``*``."""
    lines = path.read_bytes().decode("ascii").split("\r\n")
    assert lines.pop() == ""  # every line, the last too, ends in CRLF
    cols = [i for i, name in enumerate(lines[0].split(",")) if "runtime" in name]
    rows = [line.split(",") for line in lines]
    for cells in rows[1:]:
        for i in cols:
            cells[i] = "*"
    return [",".join(cells) for cells in rows]


class TestPrintedForms:
    """The literal text each command prints and writes, wall-clock cells masked."""

    METRICS_HEADER = (
        "algorithm,n,repeat,seed,status,total_energy_loss,charging_energy_loss,movement_energy,"
        "tour_distance,time_span,charging_time,moving_time,algorithm_runtime,received_total,feasible"
    )

    def test_schedule_metrics_and_evaluate_stdout(self, tmp_path, capsys):
        inst, sched, metrics_csv = tmp_path / "inst.json", tmp_path / "s.json", tmp_path / "m.csv"
        assert main(["generate", "--nodes", "6", "--seed", "1", "--out", str(inst)]) == 0
        assert capsys.readouterr().out == f"wrote {inst} (6 nodes)\n"
        assert main([
            "schedule", "--instance", str(inst), "--algorithm", "ra_dmcs", "--seed", "1",
            "--out", str(sched), "--metrics-out", str(metrics_csv),
        ]) == 0
        planned = capsys.readouterr().out
        assert main(["evaluate", "--instance", str(inst), "--schedule", str(sched)]) == 0
        replayed = capsys.readouterr().out
        assert replayed == (
            "total_energy_loss = 2184.73848\n"
            "charging_energy_loss = 508.216158\n"
            "movement_energy = 1676.52232\n"
            "tour_distance = 419.130581\n"
            "time_span = 616.856481\n"
            "charging_time = 197.7259\n"
            "moving_time = 419.130581\n"
            "algorithm_runtime = 0\n"
            "received_total = 282.687442\n"
            "feasible = true\n"
        )
        wall_clock = re.compile(r"^algorithm_runtime = .*$", re.M)
        assert wall_clock.sub("", planned) == wall_clock.sub("", replayed)
        assert masked_csv(metrics_csv) == [
            self.METRICS_HEADER,
            "ra_dmcs,6,0,1,ok,2184.73848,508.216158,1676.52232,419.130581,616.856481,197.7259,"
            "419.130581,*,282.687442,true",
        ]

    def test_experiment_summary(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        runs = tmp_path / "sweep_runs.csv"
        argv = ["experiment", "--nodes", "5", "--repeats", "2", "--seed", "1", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == f"wrote {out} and {runs} (4 runs, 0 failed)\n"
        assert masked_csv(out) == [
            "algorithm,n,runs,total_energy_loss_mean,total_energy_loss_ci95,charging_energy_loss_mean,"
            "charging_energy_loss_ci95,movement_energy_mean,movement_energy_ci95,tour_distance_mean,"
            "tour_distance_ci95,time_span_mean,time_span_ci95,charging_time_mean,charging_time_ci95,"
            "moving_time_mean,moving_time_ci95,algorithm_runtime_mean,algorithm_runtime_ci95,"
            "received_total_mean,received_total_ci95,feasible_mean,feasible_ci95",
            "o2o_greedy,5,2,1585.58749,271.096826,346.242044,2.4057558,1239.34545,273.502581,"
            "309.836362,68.3756453,457.61978,60.4820842,147.783418,7.89356102,309.836362,68.3756452,"
            "*,*,244.891627,29.1684883,1,0",
            "ra_dmcs,5,2,1329.73625,16.203029,362.88099,184.175473,966.855262,200.378502,"
            "241.713815,50.0946254,392.178351,8.44478613,150.464535,41.6498394,241.713816,50.0946255,"
            "*,*,238.977151,17.5761152,1,0",
        ]
        assert masked_csv(runs)[0] == self.METRICS_HEADER

    def test_atsp_bench_rows(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        argv = ["atsp-bench", "--nodes", "6", "--repeats", "1", "--seed", "1", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == f"wrote {out} (5 rows, 0 failed)\n"
        seed = 7869264077265352632  # derive_seed(1, 6, 0)
        assert masked_csv(out) == [
            "solver,n,repeat,seed,status,tour_energy,moving_time,runtime,held_karp_gap",
            f"greedy,6,0,{seed},ok,1323.4774,330.86935,*,0.0572340438",
            f"lk,6,0,{seed},ok,1251.8301,312.957525,*,0",
            f"held_karp,6,0,{seed},ok,1251.8301,312.957525,*,0",
            f"transform_lk,6,0,{seed},ok,1251.8301,312.957525,*,0",
            f"transform_greedy,6,0,{seed},ok,1323.4774,330.86935,*,0.0572340438",
        ]
