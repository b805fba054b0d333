import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import esfl
from esfl import ConfigError, UserBatch, cli, report
from esfl.cli import main
from esfl.report import dumps_report, format_numeric_table, format_table
from esfl.simulation import MAX_POPULATION, MAX_USER_ROUNDS


def _run(*argv):
    return main(list(argv))


def _forbid(monkeypatch, module, *names):
    """Make each named function of ``module`` fail if called, so that a
    refused run is shown to stop before it draws or allocates anything."""
    def refuse(*args, **kwargs):
        raise AssertionError("called after the input should have been refused")
    for name in names:
        monkeypatch.setattr(module, name, refuse)


@pytest.fixture()
def users_file(tmp_path):
    path = tmp_path / "users.json"
    path.write_text(json.dumps({
        "users": [
            {"n_samples": 500, "tflops": 1.3, "kbps": 10},
            {"n_samples": 500, "tflops": 3.25, "kbps": 25},
        ]
    }))
    return path


_PROFILE_HEADER = "layer,params,fwd_flops,activation\n"


class TestSimulate:
    def test_writes_report_and_summary(self, tmp_path):
        out = tmp_path / "run"
        rc = _run("simulate", "--scenario", "BP", "--arch", "vgg19",
                  "--algos", "esfl,sfl", "--rounds", "3", "--seed", "7",
                  "--out", str(out))
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"]["name"] == "BP"
        assert report["scenario"]["seed"] == 7
        assert len(report["records"]) == 3
        assert "esfl" in report["mean_round_time_s"]
        assert (out / "report.txt").exists()

    def test_single_round(self, tmp_path):
        out = tmp_path / "one"
        rc = _run("simulate", "--rounds", "1", "--algos", "fl",
                  "--out", str(out))
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["records"]) == 1

    def test_byte_identical_reruns(self, tmp_path):
        args = ("simulate", "--scenario", "SH", "--rounds", "4", "--seed", "11",
                "--algos", "esfl,fl")
        assert _run(*args, "--out", str(tmp_path / "a")) == 0
        assert _run(*args, "--out", str(tmp_path / "b")) == 0
        for name in ("report.json", "report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_missing_architecture_no_partial_output(self, tmp_path, capsys):
        out = tmp_path / "missing"
        rc = _run("simulate", "--arch", str(tmp_path / "nope.csv"),
                  "--out", str(out))
        assert rc == 1
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert _run("simulate", "--bogus") == 1

    def test_unknown_scenario(self, tmp_path):
        assert _run("simulate", "--scenario", "XX", "--out", str(tmp_path)) == 1

    def test_unknown_algorithm(self, tmp_path):
        assert _run("simulate", "--algos", "esfl,xx", "--out", str(tmp_path)) == 1

    def test_inline_config_strict_keys(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "name": "custom",
            "comm_options": [10, 20],
            "comp_options": [1.3],
            "data_options": [100],
            "rounds": 2,
            "mystery": 1,
        }))
        assert _run("simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "o")) == 1

    def test_inline_config_round_trip(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "name": "custom",
            "comm_options": [10, 20],
            "comp_options": [1.3],
            "data_options": [100],
            "rounds": 2,
            "population": 20,
            "selected_per_round": 4,
        }))
        out = tmp_path / "o"
        assert _run("simulate", "--config", str(cfg), "--algos", "fl",
                    "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"]["name"] == "custom"
        assert report["scenario"]["population"] == 20

    def test_incomplete_inline_config_is_input_error(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"name": "incomplete"}))
        assert _run("simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "o")) == 1

    def test_non_finite_config_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        for value in ("NaN", "Infinity", "1e400"):
            cfg.write_text('{"name": "x", "comm_options": [10.0], '
                           '"comp_options": [1.3], "data_options": [500.0], '
                           f'"server_tflops": {value}}}')
            assert _run("simulate", "--config", str(cfg),
                        "--out", str(tmp_path / "o")) == 1
            err = capsys.readouterr().err
            assert "input error" in err
            # the literals are refused by the parser, before any spec is built
            assert ("non-finite number" in err) == (value != "1e400")
        assert _run("simulate", "--t-agg", "nan", "--out", str(tmp_path / "o")) == 1
        for key, value, why in (("seed", -3, ">= 0"), ("epochs", 0, ">= 1"),
                                ("epochs", 2.7, "an integer"),
                                ("population", 10.5, "an integer")):
            cfg.write_text(json.dumps({"name": "x", "comm_options": [10.0],
                                       "comp_options": [1.3],
                                       "data_options": [500.0], key: value}))
            assert _run("simulate", "--config", str(cfg),
                        "--out", str(tmp_path / "o")) == 1
            assert f"input error: {cfg}: {key} must be {why}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_wrong_config_shapes_are_input_errors(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        for doc, what in (([{"a": 1}], "expected an object, not list"),
                          ({"name": "x", "comm_options": 5, "comp_options": [1.3],
                            "data_options": [500.0]}, "comm_options must be a list")):
            cfg.write_text(json.dumps(doc))
            assert _run("simulate", "--config", str(cfg),
                        "--out", str(tmp_path / "o")) == 1
            assert f"input error: {cfg}: {what}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, what", [
        ("name", 5, "name must be a string, not 5"),
        ("server_tflops", True, "server_tflops must be a number, not True"),
        ("server_tflops", "130", "server_tflops must be a number, not '130'"),
        ("comm_options", [True], "comm_options must hold numbers, not True"),
        ("comp_options", [1.3, "2.6"], "comp_options must hold numbers, not '2.6'"),
        ("data_options", [None], "data_options must hold numbers, not None"),
        ("comm_options", [10**400], "comm_options must hold numbers 0 or within "
                                    f"1e-20..1e20 KB/s, not {10**400}"),
        ("population", 10**30, f"population must be at most {MAX_POPULATION}, not {10**30}"),
        ("rounds", 10**30, f"rounds must be at most {2**63 - 1}, not {10**30}"),
        ("population", 2**63 - 1,
         f"population must be at most {MAX_POPULATION}, not {2**63 - 1}"),
    ])
    def test_mistyped_config_values_are_input_errors(self, tmp_path, capsys,
                                                     key, value, what):
        cfg = tmp_path / "scenario.json"
        doc = {"name": "x", "comm_options": [10.0], "comp_options": [1.3],
               "data_options": [500.0], key: value}
        cfg.write_text(json.dumps(doc))
        assert _run("simulate", "--config", str(cfg), "--rounds", "1",
                    "--out", str(tmp_path / "o")) == 1
        assert f"input error: {cfg}: {what}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_out_of_range_count_is_input_error(self, tmp_path, capsys, monkeypatch):
        for flag, value in (("--max-iters", "0"), ("--server-tflops", "0"),
                            ("--epochs", "0"), ("--seed", "-1"),
                            ("--t-agg", "-5000")):
            assert _run("simulate", f"{flag}={value}",
                        "--out", str(tmp_path / "o")) == 1
            assert f"argument {flag}" in capsys.readouterr().err
        # refused before any round is drawn
        _forbid(monkeypatch, esfl.simulation, "sample_population_data", "sample_rounds")
        for rounds in (2**62, MAX_USER_ROUNDS // 10 + 1):
            assert _run("simulate", "--rounds", str(rounds), "--selected", "10",
                        "--out", str(tmp_path / "o")) == 1
            assert (f"input error: rounds × selected_per_round must be at most "
                    f"{MAX_USER_ROUNDS}, not {rounds} × 10\n") in capsys.readouterr().err
        # refused before any per-user array is drawn
        for population in (2**63 - 1, MAX_POPULATION + 1):
            assert _run("simulate", "--population", str(population), "--selected", "5",
                        "--rounds", "1", "--out", str(tmp_path / "o")) == 1
            assert (f"input error: argument --population: must be at most "
                    f"{MAX_POPULATION}, not {population}\n") in capsys.readouterr().err
        assert _run("simulate", "--algos", ",", "--out", str(tmp_path / "o")) == 1
        assert "input error: --algos selects nothing" in capsys.readouterr().err
        # a repeated name would print two rows under one label
        assert _run("simulate", "--algos", "esfl,fl,esfl", "--rounds", "1",
                    "--out", str(tmp_path / "o")) == 1
        assert ("input error: argument --algos: must name each algorithm once, "
                "not 'esfl'\n" in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, name, text", [
        (["optimize", "--users"], "dir", None),
        (["optimize", "--users"], "users.json", '{"users": "\u00e9"}'),
        (["simulate", "--config"], "dir", None),
        (["simulate", "--arch"], "profile.csv",
         "layer,params,fwd_flops,activation\n\u00e9,1,1,1\n"),
    ], ids=["users-dir", "users-latin1", "config-dir", "arch-latin1"])
    def test_unreadable_input_file_is_input_error(self, tmp_path, capsys, argv, name, text):
        path = tmp_path / name
        if text is None:
            path.mkdir()
        else:   # a Latin-1 "\u00e9" is no UTF-8
            path.write_bytes(text.encode("latin-1"))
        assert _run(*argv, str(path), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith("esfl: input error: ") and str(path) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, name, text, what", [
        (["optimize", "--users"], "users.json", '{"users": [',
         "Expecting value: line 1 column 12 (char 11)"),
        (["simulate", "--config"], "scenario.json", '{"seed": 1,}',
         "Expecting property name enclosed in double quotes: line 1 column 12 (char 11)"),
        (["simulate", "--arch"], "p.csv", _PROFILE_HEADER + "A,x,1,1\nB,1,1,1\n",
         "line 2: cannot parse params value 'x'"),
        (["simulate", "--arch"], "p.csv", _PROFILE_HEADER + "A,,1,1\nB,1,1,1\n",
         "line 2: empty params is only permitted on the final layer"),
        (["simulate", "--arch"], "p.csv", _PROFILE_HEADER + "A,1,1\nB,1,1,1\n",
         "line 2: expected 4 fields, got 3"),
        (["simulate", "--arch"], "p.csv", _PROFILE_HEADER + "A,-1,1,1\nB,1,1,1\n",
         "layer 'A': param_count must be >= 0, got -1.0"),
        (["simulate", "--arch"], "p.csv", _PROFILE_HEADER + "A,1,1,1\n",
         "profile lists a single layer; no valid cut exists"),
    ], ids=["users-json", "config-json", "arch-value", "arch-blank", "arch-fields",
            "arch-negative", "arch-single"])
    def test_malformed_input_file_is_named_first(self, tmp_path, capsys, argv, name,
                                                 text, what):
        path = tmp_path / name
        path.write_text(text)
        assert _run(*argv, str(path), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"esfl: input error: {path}: {what}\n"
        assert not (tmp_path / "o").exists()

    def test_shared_parser_keeps_no_state_between_calls(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        args = parser.parse_args(["simulate", "--seed", "5", "--sticky-resources"])
        assert (args.seed, args.sticky_resources) == (5, True)
        with pytest.raises(SystemExit), redirect_stderr(io.StringIO()):
            parser.parse_args(["simulate", "--seed", "x"])
        assert parser.parse_args(["optimize", "--users", "u.json"]).users == "u.json"
        args = parser.parse_args(["simulate"])
        assert (args.seed, args.sticky_resources, args.func) == (None, False,
                                                                 cli.cmd_simulate)
        assert not hasattr(args, "users")

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("ESFL_OUT_DIR", str(target))
        assert _run("simulate", "--rounds", "1", "--algos", "fl") == 0
        assert (target / "report.json").exists()


class TestOutDir:
    """An output path that is, or lies under, a file is refused before any
    work: no users are drawn or read, nothing is planned or trained."""

    @pytest.fixture()
    def refuse_work(self, monkeypatch):
        _forbid(monkeypatch, esfl.simulation, "sample_population_data", "sample_rounds")
        _forbid(monkeypatch, cli, "run_simulation", "convergence_study",
                "_users_from_doc", "plan_rows")
        _forbid(monkeypatch, cli.toy, "init_dense_net", "make_blobs", "esfl_train")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--scenario", "BP", "--rounds", "2"],
        ["optimize", "--users", "users.json"],
        ["converge", "--scales", "5", "--reps", "1"],
        ["train-toy", "--rounds", "2"],
    ])
    @pytest.mark.parametrize("under", [False, True])
    def test_a_file_is_refused_before_any_work(self, tmp_path, capsys, refuse_work,
                                               argv, under):
        existing = tmp_path / "taken"
        existing.write_text("not a directory")
        out = existing / "sub" if under else existing
        assert _run(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == (f"esfl: input error: --out {str(out)!r}: "
                       f"{str(existing)!r} is not a directory\n")
        assert existing.read_text() == "not a directory"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_the_environment_variable_is_named(self, tmp_path, capsys, refuse_work,
                                               monkeypatch):
        existing = tmp_path / "taken"
        existing.write_text("")
        monkeypatch.setenv("ESFL_OUT_DIR", str(existing))
        assert _run("simulate", "--rounds", "2") == 1
        assert f"input error: ESFL_OUT_DIR {str(existing)!r}: " in capsys.readouterr().err

    def test_an_empty_out_is_refused(self, tmp_path, capsys, refuse_work, monkeypatch):
        monkeypatch.chdir(tmp_path)   # where Path("") would write
        assert _run("optimize", "--users", "users.json", "--out", "") == 1
        assert capsys.readouterr().err == (
            "esfl: input error: --out is empty: it must name a directory\n")
        assert list(tmp_path.iterdir()) == []

    def test_an_empty_environment_variable_is_refused(self, tmp_path, capsys,
                                                      refuse_work, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ESFL_OUT_DIR", "")
        assert _run("simulate", "--rounds", "2") == 1
        assert capsys.readouterr().err == (
            "esfl: input error: ESFL_OUT_DIR is empty: it must name a directory\n")
        assert list(tmp_path.iterdir()) == []


class TestOptimize:
    def test_two_user_allocation(self, tmp_path, users_file):
        out = tmp_path / "opt"
        rc = _run("optimize", "--users", str(users_file), "--arch", "vgg19",
                  "--server-tflops", "130", "--out", str(out))
        assert rc == 0
        report = json.loads((out / "allocation.json").read_text())
        assert len(report["cuts"]) == 2
        assert report["iterations"] <= 50
        assert len(report["trace"]) == report["iterations"]

    def test_trace_capped_by_max_iters(self, tmp_path, users_file):
        out = tmp_path / "opt"
        rc = _run("optimize", "--users", str(users_file), "--max-iters", "2",
                  "--out", str(out))
        assert rc == 0
        report = json.loads((out / "allocation.json").read_text())
        assert len(report["trace"]) <= 2

    def test_oracle_gap_on_tiny_instance(self, tmp_path, users_file, capsys):
        arch = tmp_path / "tiny.csv"
        arch.write_text(
            "layer,params,fwd_flops,activation\n"
            "A,0.01,10,0.05\nB,0.02,20,0.03\nC,0.4,5,0.002\n"
        )
        out = tmp_path / "opt"
        rc = _run("optimize", "--users", str(users_file), "--arch", str(arch),
                  "--server-tflops", "2", "--oracle", "--out", str(out))
        assert rc == 0
        report = json.loads((out / "allocation.json").read_text())
        assert report["oracle"]["gap_ratio"] >= 1.0 - 1e-9
        assert "exact optimum" in capsys.readouterr().out

    def test_out_of_range_count_is_input_error(self, tmp_path, users_file, capsys):
        for flag in ("--max-iters", "--server-tflops"):
            assert _run("optimize", "--users", str(users_file), flag, "0",
                        "--out", str(tmp_path / "o")) == 1
            assert f"argument {flag}" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        for epochs in (0, 2.7, True, "3"):
            bad.write_text(json.dumps({"users": [
                {"n_samples": 500, "tflops": 1.3, "kbps": 10},
                {"n_samples": 500, "tflops": 1.3, "kbps": 10, "epochs": epochs},
            ]}))
            assert _run("optimize", "--users", str(bad),
                        "--out", str(tmp_path / "o")) == 1
            assert "user 1: epochs must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, budget, named", [
        # outside the magnitude range, 1e-20..1e20 FLOP/s
        ("optimize", "1e297", "--server-tflops"),
        ("optimize", "1e-320", "--server-tflops"),
        ("simulate", "1e297", "--server-tflops"),
    ])
    def test_unusable_server_budget_is_input_error(self, tmp_path, capsys,
                                                   command, budget, named):
        users = tmp_path / "users.json"
        users.write_text(json.dumps(_bench_style_users(300, seed=5)))
        argv = ["--users", str(users)] if command == "optimize" else []
        with np.errstate(all="raise"):
            assert _run(command, *argv, "--server-tflops", budget,
                        "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert "input error" in err and named in err
        assert not (tmp_path / "o").exists()

    def test_budget_near_the_float_maximum_plans_without_overflow(self, tmp_path, capsys):
        # 1e296 TFLOP/s is 1e308 FLOP/s: finite, but far above the magnitude
        # range, so refused before any user is planned; the top of the range,
        # 1e8 TFLOP/s, plans without overflow
        users = tmp_path / "users.json"
        users.write_text(json.dumps(_bench_style_users(300, seed=5)))
        with np.errstate(all="raise"):
            assert _run("optimize", "--users", str(users), "--server-tflops", "1e296",
                        "--out", str(tmp_path / "o")) == 1
            assert ("input error: argument --server-tflops: must be 0 or within "
                    "1e-20..1e20 FLOP/s, not 1e+296" in capsys.readouterr().err)
            assert not (tmp_path / "o").exists()
            assert _run("optimize", "--users", str(users), "--server-tflops", "1e8",
                        "--out", str(tmp_path / "o")) == 0
        report = json.loads((tmp_path / "o" / "allocation.json").read_text())
        assert math.isfinite(report["objective_s"]) and report["converged"]

    def test_server_budget_is_refused_as_typed(self, tmp_path, users_file, capsys):
        # optimize and simulate bound --server-tflops by one rule, and both
        # name the value as it was typed, not as scaled to FLOP/s
        errors = []
        for argv in (["optimize", "--users", str(users_file)], ["simulate"]):
            assert _run(*argv, "--server-tflops", "1e9", "--out", str(tmp_path / "o")) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == (
            "esfl: input error: argument --server-tflops: must be 0 or within "
            "1e-20..1e20 FLOP/s, not 1000000000.0\n")
        assert not (tmp_path / "o").exists()

    def test_an_error_about_many_users_names_a_few(self, tmp_path, capsys):
        # every user's link is dead, and every cut moves the model over it
        doc = _bench_style_users(10_000, seed=7)
        for user in doc["users"]:
            for key in ("kbps", "kbps_up", "kbps_down"):
                if key in user:
                    user[key] = 0
            if "channel" in user:
                user["channel"]["uplink_gain"] = 0
        users = tmp_path / "users.json"
        users.write_text(json.dumps(doc))
        assert _run("optimize", "--users", str(users),
                    "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert len(err) < 1024
        assert re.search(rf"^esfl: input error: {re.escape(str(users))}: users "
                         r"\[(\d+, ){7}\d+\] and 9992 more: every feasible cut "
                         r"prices to infinity", err)
        assert not (tmp_path / "o").exists()

    def test_users_without_a_feasible_cut_are_an_input_error(self, tmp_path, capsys):
        users = tmp_path / "users.json"
        users.write_text(json.dumps({"users": [
            {"n_samples": 100, "tflops": 1, "kbps": 10},
            {"n_samples": 100, "tflops": 1, "kbps": 10, "storage_mb": 0}]}))
        assert _run("optimize", "--users", str(users), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == (
            f"esfl: input error: {users}: users without any feasible cut: [1]\n")

    def test_a_negative_zero_link_rate_fails_as_zero_does(self, tmp_path, capsys):
        # -0.0 passes a ">= 0" rule: a users.json rate must price as a dead
        # link, as 0 does, and not divide to -inf on the way
        path = tmp_path / "doc.json"

        def outcome(argv, doc):
            path.write_text(json.dumps(doc))
            rc = _run(*argv, str(path), "--out", str(tmp_path / "o"))
            return rc, capsys.readouterr().err

        def users(rate):
            return {"users": [{"n_samples": 100, "tflops": 1,
                               "kbps_up": rate, "kbps_down": 0}]}

        argv = ["optimize", "--users"]
        want = outcome(argv, users(0))
        assert want[0] == 1
        assert "every feasible cut prices to infinity" in want[1]
        assert f"input error: {path}: " in want[1]
        assert outcome(argv, users(-0.0)) == want
        # every round moves the model, so a scenario's drawn 0-rate user could
        # never be planned: both zeros are refused as the file's input
        for rate in (0, -0.0):
            rc, err = outcome(["simulate", "--rounds", "1", "--config"],
                              {"name": "x", "comm_options": [rate, 10.0],
                               "comp_options": [1.3], "data_options": [500.0]})
            assert (rc, err) == (1, f"esfl: input error: {path}: comm_options must hold "
                                    f"numbers > 0, not {rate!r}\n")

    def test_oracle_runs_on_a_large_arch(self, tmp_path, users_file):
        assert _run("optimize", "--users", str(users_file), "--arch", "vgg19",
                    "--oracle", "--out", str(tmp_path / "o")) == 0
        report = json.loads((tmp_path / "o" / "allocation.json").read_text())
        assert report["oracle"]["gap_ratio"] >= 1.0 - 1e-9
        assert len(report["oracle"]["cuts"]) == 2

    @pytest.mark.parametrize("extra", [[], ["--epoch-objective", "--t-agg", "1.5"]])
    @pytest.mark.parametrize("n", [300, 10_000])
    def test_plan_never_beats_the_oracle_on_many_users(self, tmp_path, n, extra):
        users = tmp_path / "users.json"
        users.write_text(json.dumps(_bench_style_users(n, seed=5)))
        assert _run("optimize", "--users", str(users), "--arch", "vgg19", "--oracle",
                    *extra, "--out", str(tmp_path / "o")) == 0
        report = json.loads((tmp_path / "o" / "allocation.json").read_text())
        assert report["oracle"]["objective_s"] <= report["objective_s"] * (1 + 1e-9)
        assert report["oracle"]["gap_ratio"] >= 1.0 - 1e-9
        assert len(report["oracle"]["cuts"]) == n

    def test_strict_user_keys(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"users": [{"n_samples": 1, "tflops": 1,
                                              "kbps": 1, "color": "red"}]}))
        assert _run("optimize", "--users", str(bad),
                    "--out", str(tmp_path / "o")) == 1

    def test_missing_user_field_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"users": [{"n_samples": 1, "kbps": 1}]}))
        assert _run("optimize", "--users", str(bad),
                    "--out", str(tmp_path / "o")) == 1

    def test_non_finite_user_field_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for field, value in (("kbps", "NaN"), ("tflops", "-Infinity"),
                             ("kbps", "1e400"), ("n_samples", "NaN")):
            user = {"n_samples": "500", "tflops": "1.3", "kbps": "10", field: value}
            bad.write_text('{"users": [{%s}]}'
                           % ", ".join(f'"{k}": {v}' for k, v in user.items()))
            assert _run("optimize", "--users", str(bad),
                        "--out", str(tmp_path / "o")) == 1
            err = capsys.readouterr().err
            assert "input error" in err
            assert ("non-finite number" in err) == (value != "1e400")

    def test_channel_mode_users(self, tmp_path):
        doc = tmp_path / "chan.json"
        doc.write_text(json.dumps({"users": [
            {"n_samples": 200, "tflops": 1.3, "channel": {
                "bandwidth_hz": 1e6, "uplink_power_w": 1e-3,
                "downlink_power_w": 1e-3, "uplink_gain": 1.0,
                "downlink_gain": 1.0, "noise_density_w_per_hz": 1e-9,
            }},
        ]}))
        out = tmp_path / "opt"
        assert _run("optimize", "--users", str(doc), "--out", str(out)) == 0
        report = json.loads((out / "allocation.json").read_text())
        assert len(report["cuts"]) == 1

    def test_mixed_rate_modes_rejected(self, tmp_path):
        doc = tmp_path / "mixed.json"
        doc.write_text(json.dumps({"users": [
            {"n_samples": 200, "tflops": 1.3, "kbps": 10,
             "channel": {"bandwidth_hz": 1e6, "uplink_power_w": 1,
                         "downlink_power_w": 1, "uplink_gain": 1,
                         "downlink_gain": 1, "noise_density_w_per_hz": 1e-9}},
        ]}))
        assert _run("optimize", "--users", str(doc),
                    "--out", str(tmp_path / "o")) == 1

    def test_incomplete_channel_is_input_error(self, tmp_path):
        doc = tmp_path / "chan.json"
        doc.write_text(json.dumps({"users": [
            {"n_samples": 200, "tflops": 1.3,
             "channel": {"bandwidth_hz": 1e6}},
        ]}))
        assert _run("optimize", "--users", str(doc),
                    "--out", str(tmp_path / "o")) == 1


def _per_user_columns(doc: dict, kb_bytes: float) -> list[tuple[float, ...]]:
    """The seven value columns (``UserBatch`` order, library units) of a
    valid users.json document, read one user at a time in Python floats:
    the reference for the columnar path."""
    rows = []
    for entry in doc["users"]:
        if "channel" in entry:
            ch = {key: float(value) for key, value in entry["channel"].items()}
            b, n0 = ch["bandwidth_hz"], ch["noise_density_w_per_hz"]
            up, down = (b * math.log2(1.0 + ch[f"{link}_power_w"] * ch[f"{link}_gain"]
                                      / (b * n0)) / 8.0
                        for link in ("uplink", "downlink"))
        elif "kbps" in entry:
            up = down = float(entry["kbps"]) * kb_bytes
        else:
            up = float(entry["kbps_up"]) * kb_bytes
            down = float(entry["kbps_down"]) * kb_bytes
        rows.append((float(entry["n_samples"]), float(entry["tflops"]) * 1e12, up, down,
                     float(entry.get("epochs", 5)),
                     float(entry.get("storage_mb", math.inf)) * 2**20,
                     float(entry.get("memory_mb", math.inf)) * 2**20))
    return list(zip(*rows))


def _per_user_batch(doc: dict, kb_bytes: float) -> UserBatch:
    """The reference columns as a batch, built unchecked."""
    return UserBatch(np.arange(len(doc["users"])),
                     *(np.array(column) for column in _per_user_columns(doc, kb_bytes)))


def _assert_batches_equal(got: UserBatch, want: UserBatch) -> None:
    for f in dataclasses.fields(UserBatch):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), f.name


def _number(low, high, int_high):
    """A JSON float in [low, high] that is 0 or at least 1e-20, the bottom of
    the magnitude range, or a JSON int in [ceil(low), int_high]."""
    floats = st.floats(max(low, 1e-20), high)
    return st.one_of(floats if low > 0 else st.one_of(st.just(0.0), floats),
                     st.integers(math.ceil(low), int_high))


_GOOD_CHANNEL = {"bandwidth_hz": 1e6, "uplink_power_w": 1e-3, "downlink_power_w": 1e-2,
                 "uplink_gain": 0.5, "downlink_gain": 1.0, "noise_density_w_per_hz": 1e-9}
_CHANNELS = st.fixed_dictionaries({
    "bandwidth_hz": _number(1e3, 1e7, 10**7),
    "uplink_power_w": _number(1e-4, 10.0, 10),
    "downlink_power_w": _number(1e-4, 10.0, 10),
    "uplink_gain": _number(0.0, 2.0, 2),
    "downlink_gain": _number(0.0, 2.0, 2),
    "noise_density_w_per_hz": _number(1e-12, 1e-6, 10),
})
_KBPS = _number(0.0, 1e5, 10**5)
_LIMIT_MB = _number(0.0, 1e5, 10**6)


@st.composite
def _users(draw):
    """One valid users.json entry, its keys in a random order."""
    user = {"n_samples": draw(_number(0.0, 1e6, 10**6)),
            "tflops": draw(_number(1e-3, 1e3, 1000))}
    kind = draw(st.sampled_from(("kbps", "pair", "channel")))
    if kind == "kbps":
        user["kbps"] = draw(_KBPS)
    elif kind == "pair":
        user["kbps_up"], user["kbps_down"] = draw(_KBPS), draw(_KBPS)
    else:
        user["channel"] = draw(_CHANNELS)
    if draw(st.booleans()):
        user["epochs"] = draw(st.integers(1, 20))
    for key in ("storage_mb", "memory_mb"):
        if draw(st.booleans()):
            user[key] = draw(_LIMIT_MB)
    return dict(draw(st.permutations(list(user.items()))))


def _with_link(user: dict, **link) -> dict:
    """``user`` with its link keys replaced by ``link``."""
    kept = {k: v for k, v in user.items()
            if k not in ("kbps", "kbps_up", "kbps_down", "channel")}
    return {**kept, **link}


# Values each field must refuse. 10**400 is a JSON int beyond the float
# range; 1e306 KB/s overflows once scaled to bytes/s; 1e-21, 1e-33 TFLOP/s
# (1e-21 FLOP/s) and 1e18 KB/s lie outside the magnitude range once scaled.
_BAD_VALUES = {
    "n_samples": [-1, -1e-300, "500", True, None, [500], 10**400, 1e-21, 10**21],
    "tflops": [0, -1.3, 1e300, "1.3", True, False, 10**400, 1e-33, 1e9],
    "kbps": [-10, 1e306, "10", True, 10**400, 1e18],
    "kbps_up": [-1, True, "5", 1e307, 1e-24],
    "kbps_down": [-0.5, False, {}, 1e18],
    "epochs": [0, -2, 2.7, True, "3", None, 10**400, 10**21],
    "storage_mb": [-1, "600", True, None, -10**400],
    "memory_mb": [-1e-3, "4096", False],
    "channel.bandwidth_hz": [0, -1e6, True, "1e6", 10**400],
    "channel.uplink_power_w": [0, -1, "1"],
    "channel.downlink_power_w": [0.0, None],
    "channel.uplink_gain": [-0.1, True],
    "channel.downlink_gain": [-1, "1"],
    "channel.noise_density_w_per_hz": [0, -1e-9, False, 10**400],
}


# users.json field -> the UserBatch fields it fills and its scale to them
_BATCH_FIELDS = {
    "n_samples": (("n_samples",), 1.0),
    "tflops": (("compute_flops",), 1e12),
    "kbps": (("up", "down"), 1024.0),
    "kbps_up": (("up",), 1024.0),
    "kbps_down": (("down",), 1024.0),
    "epochs": (("epochs",), 1.0),
    "storage_mb": (("storage_bytes",), 2.0**20),
    "memory_mb": (("memory_bytes",), 2.0**20),
}


def _library_value(value, scale: float) -> float:
    """A JSON number in library units, as the users.json reader scales it."""
    try:
        return float(value) * scale
    except OverflowError:   # an integer beyond the float range
        return math.inf if value > 0 else -math.inf


def _plant_value(user: dict, field: str, value) -> dict:
    """``user`` with ``field`` set to ``value``, on a link of the field's kind."""
    if field.startswith("channel."):
        return _with_link(user, channel={**_GOOD_CHANNEL, field[8:]: value})
    if field == "kbps":
        return _with_link(user, kbps=value)
    if field in ("kbps_up", "kbps_down"):
        return _with_link(user, **{"kbps_up": 10, "kbps_down": 10, field: value})
    return {**user, field: value}


_MISSHAPEN = {   # what is wrong -> the entry made so from a valid one
    "must be an object, not int": lambda u: 5,
    "must be an object, not list": lambda u: [u],
    "unknown keys ['color']": lambda u: {**u, "color": "red"},
    "missing ['tflops']": lambda u: {k: v for k, v in u.items() if k != "tflops"},
    "give exactly one of": lambda u: _with_link(u, kbps=1, channel=_GOOD_CHANNEL),
    "kbps_up and kbps_down go together": lambda u: _with_link(u, kbps_up=1),
    "channel must be an object, not int": lambda u: _with_link(u, channel=5),
    "unknown keys in channel": lambda u: _with_link(u, channel={**_GOOD_CHANNEL, "x": 1}),
    "channel lacks ['uplink_gain']": lambda u: _with_link(u, channel={
        k: v for k, v in _GOOD_CHANNEL.items() if k != "uplink_gain"}),
    # B*N0 underflows to 0, so the SNR divides by zero
    "channel must be priced to link rates 0 or within 1e-20..1e20 bytes/s":
        lambda u: _with_link(u, channel={
            **_GOOD_CHANNEL, "bandwidth_hz": 1e-200, "noise_density_w_per_hz": 1e-200}),
}
_PLANTS = ([("value", (f, v)) for f, values in _BAD_VALUES.items() for v in values]
           + [("shape", what) for what in _MISSHAPEN])


@pytest.fixture(scope="module")
def users_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("users")


class TestUsersColumns:
    """users.json is read column by column into one batch, with the results
    of a per-user reader and the checks of ``UserBatch.checked``."""

    @seed(20249)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(users=st.lists(_users(), min_size=1, max_size=12),
           kb=st.sampled_from((1024, 1000)))
    def test_batch_equals_the_per_user_path(self, users_dir, users, kb):
        path = users_dir / "users.json"
        path.write_text(json.dumps({"users": users}))
        batch = cli._users_from_doc(str(path), float(kb))
        doc = json.loads(path.read_text())
        _assert_batches_equal(batch, _per_user_batch(doc, kb))
        # every valid document passes the checks, with the same arrays
        _assert_batches_equal(UserBatch.checked(*_per_user_columns(doc, kb)), batch)

    def test_checked_refuses_each_bad_number(self):
        # every bad JSON number of a batch field, in library units; values
        # of the wrong JSON type have no library form, and channel blocks
        # fill no batch field of their own
        good = {"n_samples": 500.0, "compute_flops": 1.3e12, "up": 10240.0,
                "down": 10240.0, "epochs": 5.0, "storage_bytes": math.inf,
                "memory_bytes": math.inf}
        refused = 0
        for field, (targets, scale) in _BATCH_FIELDS.items():
            for value in _BAD_VALUES[field]:
                if type(value) not in (int, float):
                    continue
                columns = {key: [v, v, v] for key, v in good.items()}
                for target in targets:
                    columns[target][1] = _library_value(value, scale)
                with pytest.raises(ConfigError, match=f"^user 8: {targets[0]} must be "):
                    UserBatch.checked(**columns, user_ids=[7, 8, 9])
                refused += 1
        assert refused == 28

    @seed(20250)
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_first_bad_user_is_named(self, users_dir, data):
        users = data.draw(st.lists(_users(), min_size=1, max_size=8))
        plants = data.draw(st.lists(
            st.tuples(st.integers(0, len(users) - 1), st.sampled_from(_PLANTS)),
            min_size=1, max_size=3, unique_by=lambda p: p[0]))
        for i, (kind, plant) in plants:
            if kind == "value":
                users[i] = _plant_value(users[i], *plant)
            else:
                users[i] = _MISSHAPEN[plant](users[i])
        path = users_dir / "bad.json"
        path.write_text(json.dumps({"users": users}))
        err = io.StringIO()
        with redirect_stderr(err):
            assert main(["optimize", "--users", str(path),
                         "--out", str(users_dir / "o")]) == 1
        i, (kind, plant) = min(plants)
        named = f"{plant[0]} must be" if kind == "value" else plant
        assert f"input error: {path} user {i}: {named}" in err.getvalue()
        assert not (users_dir / "o").exists()

    def test_bad_values_name_the_user_and_field(self, tmp_path, capsys):
        path = tmp_path / "users.json"
        ok = {"n_samples": 500, "tflops": 1.3, "kbps": 10}
        for field, value, what in (
            ("tflops", 0, "> 0, not 0"),
            ("tflops", 1e300, "0 or within 1e-20..1e20 FLOP/s, not 1e+300"),
            ("tflops", True, "a number, not True"),
            ("kbps", -10, ">= 0, not -10"),
            ("kbps", True, "a number, not True"),
            ("storage_mb", -1, ">= 0, not -1"),
            ("storage_mb", "600", "a number, not '600'"),
            ("n_samples", "500", "a number, not '500'"),
            ("channel.bandwidth_hz", 0, "> 0, not 0"),
        ):
            path.write_text(json.dumps({"users": [ok, _plant_value(ok, field, value)]}))
            assert _run("optimize", "--users", str(path),
                        "--out", str(tmp_path / "o")) == 1
            err = capsys.readouterr().err
            assert f"input error: {path} user 1: {field} must be {what}\n" in err
        assert not (tmp_path / "o").exists()

    def test_channel_ints_are_read_as_floats(self, tmp_path):
        # Every number is read as a float first, so a power * gain product of
        # two JSON ints beyond 2**53 rounds like the float product.
        p = g = 2**30 + 1
        channel = {**_GOOD_CHANNEL, "uplink_power_w": p, "uplink_gain": g}
        path = tmp_path / "users.json"
        path.write_text(json.dumps({"users": [
            {"n_samples": 1, "tflops": 1, "channel": channel}]}))
        up = cli._users_from_doc(str(path), 1024.0).up[0]
        b, n0 = channel["bandwidth_hz"], channel["noise_density_w_per_hz"]
        assert float(p) * float(g) != p * g
        assert up == b * math.log2(1.0 + float(p) * float(g) / (b * n0)) / 8.0

    def test_wrong_document_shapes_are_input_errors(self, tmp_path, capsys):
        path = tmp_path / "users.json"
        for doc, what in (
            ({"users": [5]}, " user 0: must be an object, not int"),
            ([{"n_samples": 500, "tflops": 1.3, "kbps": 10}],
             ": expected an object with a 'users' list, not list"),
            ({"users": {"n_samples": 500}}, ": 'users' must be a nonempty list"),
            ({"users": []}, ": 'users' must be a nonempty list"),
            ("users", ": expected an object with a 'users' list, not str"),
        ):
            path.write_text(json.dumps(doc))
            assert _run("optimize", "--users", str(path),
                        "--out", str(tmp_path / "o")) == 1
            assert f"input error: {path}{what}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("misshapen, what", [
        (5, "must be an object, not int"),
        ({"n_samples": 500, "tflops": 1.3, "kbps": 10, "color": "red"},
         "unknown keys ['color']"),
        ({"n_samples": 500, "tflops": 1.3, "channel": 5}, "channel must be an object, not int"),
    ])
    def test_a_misshapen_user_hides_the_key_sets_first_seen_after_it(
            self, tmp_path, misshapen, what):
        # the channel user after the misshapen one has a key set not seen
        # before it, and bad values; the columns end at the misshapen user
        ok = {"n_samples": 500, "tflops": 1.3, "kbps": 10}
        later = {"tflops": 1.3, "epochs": 0, "n_samples": -1,
                 "channel": {**_GOOD_CHANNEL, "bandwidth_hz": 0}}
        path = tmp_path / "users.json"
        path.write_text(json.dumps({"users": [ok, misshapen, later, ok]}))
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path} user 1: {what}')}$"):
            cli._users_from_doc(str(path), 1024.0)

    @pytest.mark.parametrize("doc_seed", [3, 19])
    def test_bench_style_batch_equals_the_per_user_path(self, tmp_path, doc_seed):
        # the benchmark's shape: each key set repeats hundreds of times
        doc = _bench_style_users(2000, seed=doc_seed)
        path = tmp_path / "users.json"
        path.write_text(json.dumps(doc))
        _assert_batches_equal(cli._users_from_doc(str(path), 1024.0),
                              _per_user_batch(doc, 1024.0))


def _rjust_table(headers, rows):
    """The per-cell ``rjust`` table that format_table replaced."""
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]

    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in rows]) + "\n"


_CELLS = st.text(st.sampled_from("ab %s%%-.07\t\u00e9"), max_size=7)


class TestFormatTable:
    @seed(20251)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 5).flatmap(lambda k: st.tuples(
        st.lists(_CELLS, min_size=k, max_size=k),
        st.lists(st.lists(_CELLS, min_size=k, max_size=k), max_size=8))))
    @example((["user", "cut"], []))
    @example(([], [[], []]))
    def test_equals_the_rjust_table(self, table):
        headers, rows = table
        assert format_table(headers, rows) == _rjust_table(headers, rows)


def _per_cell_table(headers, columns, formats):
    """The per-cell table that format_numeric_table replaced: each value
    formatted to a string of its own, set in columns by ``_rjust_table``."""
    rows = [[format(v, fmt[1:]) for fmt, v in zip(formats, row)]
            for row in zip(*(column.tolist() for column in columns))]
    return _rjust_table(headers, rows)


_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True, width=64),
                    st.sampled_from([0.0, -0.0, 9.99995, -9.99995, 99.9996, -4e-5, 1e-300]))


_INT64 = st.one_of(st.integers(-10**12, 10**12), st.sampled_from([-2**63, 2**63 - 1, 0]))
_UINT64 = st.one_of(st.integers(0, 10**6), st.sampled_from([0, 2**63, 2**64 - 1]))


def _column(values, n):
    """n values drawn each from ``values``, or from a pool of up to three
    of them, so that cells repeat."""
    return st.one_of(
        st.lists(values, min_size=n, max_size=n),
        st.lists(values, min_size=1, max_size=3).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=n, max_size=n)))


class TestFormatNumericTable:
    @seed(20261)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.integers(0, 8), st.integers(9, 64)).flatmap(lambda n: st.tuples(
        _column(_INT64, n), _column(_UINT64, n), _column(_FLOATS, n), _column(_FLOATS, n))))
    @example(([], [], [], []))
    @example(([7, -12345], [3, 0], [0.0, -0.0], [float("nan"), -float("inf")]))
    @example(([-2**63, 2**63 - 1, 0], [2**64 - 1, 0, 10], [-0.0] * 3, [1e300, -4e-5, 0.0]))
    def test_equals_the_per_cell_table(self, table):
        columns = [np.array(table[0], dtype=np.int64), np.array(table[1], dtype=np.uint64),
                   np.array(table[2]), np.array(table[3])]
        # one-letter headers, so that the values alone size the columns
        headers, formats = ["u", "k", "s", "r"], ["%d", "%d", "%.4f", "%.3f"]
        assert (format_numeric_table(headers, columns, formats)
                == _per_cell_table(headers, columns, formats))


def _bench_style_users(n: int, seed: int) -> dict:
    """A seeded users.json document of ``n`` users in the benchmark's style:
    the three link kinds and storage/memory limits on about 30% of users,
    each limit large enough to keep a feasible vgg19 cut."""
    rng = np.random.default_rng(seed)
    users = []
    for kind in rng.integers(0, 3, n).tolist():
        user = {"n_samples": float(rng.choice([200.0, 400.0, 600.0, 800.0])),
                "tflops": float(rng.choice([0.65, 1.3, 2.6, 4.55, 6.5]))}
        if kind == 0:
            user["kbps"] = float(rng.choice([5.0, 10.0, 20.0, 35.0, 50.0, 100.0]))
        elif kind == 1:
            user["kbps_up"] = float(rng.choice([5.0, 10.0, 20.0, 35.0]))
            user["kbps_down"] = float(rng.choice([25.0, 50.0, 100.0, 125.0]))
        else:
            user["channel"] = {**_GOOD_CHANNEL,
                               "bandwidth_hz": float(rng.choice([1e5, 2e5, 5e5, 1e6])),
                               "uplink_gain": float(rng.choice([0.1, 0.5, 1.0]))}
        if rng.random() < 0.3:
            user["storage_mb"] = float(rng.choice([16.0, 64.0, 256.0, 1024.0]))
        if rng.random() < 0.3:
            user["memory_mb"] = float(rng.choice([16.0, 64.0, 512.0, 2048.0]))
        users.append(user)
    return {"users": users}


class TestOptimizeBytes:
    @pytest.mark.parametrize("extra", [[], ["--epoch-objective", "--t-agg", "1.5"]])
    def test_same_bytes_as_the_per_user_path(self, tmp_path, monkeypatch, capsys, extra):
        path = tmp_path / "users.json"
        path.write_text(json.dumps(_bench_style_users(10_000, seed=11)))
        argv = ["optimize", "--users", str(path), "--arch", "vgg19", *extra]
        assert main(argv + ["--out", str(tmp_path / "columns")]) == 0
        columns_out = capsys.readouterr().out
        monkeypatch.setattr(cli, "_users_from_doc", lambda p, kb: _per_user_batch(
            json.loads(Path(p).read_text()), kb))
        monkeypatch.setattr(cli, "format_numeric_table", _per_cell_table)
        assert main(argv + ["--out", str(tmp_path / "per_user")]) == 0
        assert capsys.readouterr().out == columns_out
        for name in ("allocation.json", "allocation.txt"):
            assert ((tmp_path / "columns" / name).read_bytes()
                    == (tmp_path / "per_user" / name).read_bytes())


class TestOptimizeTrace:
    """Each ``optimize`` trace entry summarizes one planner pass at a fixed
    size; the per-user lists are only the allocation's."""

    @pytest.fixture()
    def users(self, tmp_path):
        path = tmp_path / "users.json"
        path.write_text(json.dumps(_bench_style_users(300, seed=5)))
        return path

    @pytest.mark.parametrize("extra", [[], ["--epoch-objective", "--t-agg", "1.5"]])
    def test_entries_summarize_each_pass(self, tmp_path, users, extra):
        assert _run("optimize", "--users", str(users), "--arch", "vgg19", *extra,
                    "--out", str(tmp_path / "o")) == 0
        report = json.loads((tmp_path / "o" / "allocation.json").read_text())
        arch = esfl.load_builtin("vgg19")
        batch = cli._users_from_doc(str(users), 1024.0)
        epoch_objective = bool(extra)
        t_agg = 1.5 if extra else 0.0
        cfg = esfl.OptimizerConfig(epoch_objective=epoch_objective, t_agg=t_agg)
        plan = esfl.plan_rows(batch, arch, 130e12, cfg)
        trace = plan.passes     # one row: each pass holds row 0
        entries = report["trace"]
        n_users = len(batch)

        assert len(entries) == len(trace) == report["iterations"]
        assert [e["iteration"] for e in entries] == list(range(1, len(entries) + 1))
        objectives = [e["objective_s"] for e in entries]
        assert objectives == sorted(objectives, reverse=True)
        assert entries[0]["cuts_changed"] is None
        for entry, before, rec in zip(entries[1:], trace, trace[1:]):
            changed = entry["cuts_changed"]
            assert type(changed) is int and 0 <= changed <= n_users
            assert changed == np.count_nonzero(before.cuts[0] != rec.cuts[0])
        steps = [e["demand_evaluations"] for e in entries]
        assert all(type(k) is int and k >= 0 for k in steps)
        assert max(steps) == max(p.steps[0] for p in trace)

        for entry, rec in zip(entries, trace):
            neck = entry["bottleneck"]
            user = neck["user"]     # users.json ids are the users' indices
            cuts = rec.cuts[0]
            terms = esfl.round_terms(batch, arch, cuts, rec.server_compute[0], t_agg)
            times = terms.epoch if epoch_objective else terms.total
            assert neck["cut"] == cuts[user]
            assert times[user] >= times.max() * (1 - esfl.timing.TIE_RTOL)
            parts = sum(neck[f"{name}_s"] for name in (
                "model_movement", "device_compute", "upload", "server_compute",
                "download"))
            total = terms.total[user]
            assert parts + t_agg == pytest.approx(total, rel=1e-12)
            if not epoch_objective:
                assert total == pytest.approx(entry["objective_s"], rel=1e-6)

    def test_only_the_allocation_is_per_user(self, tmp_path, users):
        assert _run("optimize", "--users", str(users), "--arch", "vgg19",
                    "--out", str(tmp_path / "o")) == 0
        report = json.loads((tmp_path / "o" / "allocation.json").read_text())

        def per_user_lists(node, path):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield from per_user_lists(value, f"{path}.{key}")
            elif isinstance(node, list):
                if len(node) == 300:
                    yield path
                for i, value in enumerate(node):
                    yield from per_user_lists(value, f"{path}[{i}]")

        assert sorted(per_user_lists(report, "")) == [".cuts", ".server_compute_flops"]


class TestBottleneck:
    """A trace's bottleneck is the user that :func:`esfl.timing.straggler`
    attributes over the RoundTerms sums, with its five terms."""

    @seed(20301)
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([0.0, 1.5]))
    def test_equals_the_straggler_of_the_round_terms(self, draw_seed, epoch_objective, t_agg):
        arch = esfl.load_builtin("vgg19")
        rng = np.random.default_rng(draw_seed)
        kinds, n = int(rng.integers(1, 4)), int(rng.integers(1, 12))
        pick = rng.integers(0, kinds, n)    # users of one kind repeat: ties
        batch = UserBatch.checked(
            rng.choice([200.0, 500.0, 800.0], kinds)[pick],
            rng.choice([0.65e12, 2.6e12], kinds)[pick],
            rng.choice([1e4, 5e4, 2e5], kinds)[pick],
            rng.choice([2e4, 1e5], kinds)[pick],
            rng.integers(1, 6, kinds)[pick])
        cuts = rng.integers(1, arch.num_layers + 1, kinds)[pick]
        cuts[rng.random(n) < 0.3] = arch.num_layers     # no server work
        work = esfl.round_terms(batch, arch, cuts, 1.0).server_work
        free = esfl.round_terms(batch, arch, cuts, np.inf, t_agg)
        if epoch_objective:
            demand, floor = work, free.epoch
        else:
            demand, floor = batch.epochs * work, free.total
        if rng.random() < 0.5:
            # every funded user ends at one level, as the resource pass ends them
            gap = floor.max() * (1.0 + rng.random()) - floor
        else:
            gap = rng.choice([1.0, 10.0, 100.0], kinds)[pick]
        compute = np.where(work > 0, demand / gap, 0.0)

        terms = esfl.round_terms(batch, arch, cuts, compute, t_agg)
        if epoch_objective:
            _, k = esfl.timing.straggler(terms.epoch, terms.t_c + terms.t_b + terms.t_B)
        else:
            _, k = esfl.timing.straggler(terms.total, terms.fixed)
        epochs = batch.epochs[k]
        expected = {
            "user": int(batch.user_ids[k]),
            "cut": int(cuts[k]),
            "model_movement_s": float(terms.t_up[k] + terms.t_down[k]),
            "device_compute_s": float(epochs * terms.t_c[k]),
            "upload_s": float(epochs * terms.t_b[k]),
            "server_compute_s": float(epochs * terms.t_C[k]),
            "download_s": float(epochs * terms.t_B[k]),
        }
        priced = esfl.round_terms(batch, arch, cuts, compute, t_agg).priced()
        assert report._bottleneck(batch, cuts, priced, epoch_objective) == expected


class TestConverge:
    def test_row_per_cell(self, tmp_path):
        out = tmp_path / "conv"
        rc = _run("converge", "--scales", "5,10", "--scenarios", "BP,RP",
                  "--reps", "2", "--out", str(out))
        assert rc == 0
        report = json.loads((out / "convergence.json").read_text())
        assert len(report["cells"]) == 4
        assert {c["scenario"] for c in report["cells"]} == {"BP", "RP"}

    def test_default_scales(self, tmp_path):
        out = tmp_path / "conv"
        rc = _run("converge", "--scenarios", "BP", "--reps", "1",
                  "--scales", "100,200,400,800", "--out", str(out))
        assert rc == 0
        report = json.loads((out / "convergence.json").read_text())
        assert [c["scale"] for c in report["cells"]] == [100, 200, 400, 800]

    def test_out_of_range_count_is_input_error(self, tmp_path, capsys, monkeypatch):
        assert _run("converge", "--reps", "0", "--out", str(tmp_path / "o")) == 1
        assert "argument --reps" in capsys.readouterr().err
        assert _run("converge", "--scales", "100,x", "--out", str(tmp_path / "o")) == 1
        assert "input error: --scales" in capsys.readouterr().err
        for flag in ("--scenarios", "--scales"):
            assert _run("converge", flag, ",", "--out", str(tmp_path / "o")) == 1
            assert f"input error: {flag} selects nothing" in capsys.readouterr().err
        # a repeated scenario would be drawn from another stream under its label
        assert _run("converge", "--scenarios", "BP,PR,BP,PR", "--scales", "5",
                    "--out", str(tmp_path / "o")) == 1
        assert ("input error: --scenarios repeats BP, PR: 'BP,PR,BP,PR'\n"
                in capsys.readouterr().err)
        for scales, bad in (("-5", -5), ("0", 0), ("5,-5", -5)):
            assert _run("converge", f"--scales={scales}",
                        "--out", str(tmp_path / "o")) == 1
            assert (f"input error: argument --scales: must hold integers >= 1, not {bad}\n"
                    in capsys.readouterr().err)
        assert _run("converge", f"--scales={MAX_POPULATION + 1}",
                    "--out", str(tmp_path / "o")) == 1
        assert (f"input error: argument --scales: must hold integers at most "
                f"{MAX_POPULATION}, not {MAX_POPULATION + 1}\n" in capsys.readouterr().err)
        # each repetition is one round of `scale` users; refused before any draw
        _forbid(monkeypatch, esfl.simulation, "sample_population_data", "sample_rounds")
        for reps, scale in ((2**62, 10), (MAX_USER_ROUNDS // 10 + 1, 10)):
            assert _run("converge", "--scenarios", "BP", "--scales", str(scale),
                        "--reps", str(reps), "--out", str(tmp_path / "o")) == 1
            assert (f"input error: argument --reps: must be at most "
                    f"{MAX_USER_ROUNDS // scale} at scale {scale} (at most "
                    f"{MAX_USER_ROUNDS} users in all), not {reps}\n"
                    in capsys.readouterr().err)
        for flag, value in (("--seed", "-1"), ("--t-agg", "-1")):
            assert _run("converge", f"{flag}={value}",
                        "--out", str(tmp_path / "o")) == 1
            assert f"argument {flag}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["--scales", "10000001"], "--scales"),
        (["--scenarios", "BP", "--scales", "1", "--reps", "9223372036854775808"], "--reps"),
        (["--scenarios", "BP", "--scales", "5000", "--reps", "5000"], "--reps"),
        # a repeated scale would redraw its cell's stream and print the row twice
        (["--scenarios", "BP", "--scales", "10,10", "--reps", "2"], "--scales"),
    ])
    def test_sizes_beyond_the_caps_name_their_flag(self, tmp_path, capsys, monkeypatch,
                                                   argv, flag):
        # the study checks its own scales and repetitions, before it sizes a
        # scenario whose fields (population, rounds) have no converge flag
        _forbid(monkeypatch, esfl.simulation, "sample_population_data", "sample_rounds")
        assert _run("converge", *argv, "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"esfl: input error: argument {flag}: must ")
        assert not (tmp_path / "o").exists()


class TestTrainToy:
    def test_equivalence_check_reports_zero_deviation(self, tmp_path, capsys):
        out = tmp_path / "toy"
        rc = _run("train-toy", "--rounds", "5", "--seed", "3",
                  "--check-equivalence", "--out", str(out))
        assert rc == 0
        report = json.loads((out / "train_toy.json").read_text())
        assert report["split_vs_monolithic_max_rel_dev"] <= 1e-9
        assert "split vs monolithic" in capsys.readouterr().out

    def test_zero_rate_run_stays_at_initialization(self, tmp_path, capsys):
        # a zero step size trains nothing, so the run is refused before any
        # training and no report is written
        out = tmp_path / "toy"
        rc = _run("train-toy", "--rounds", "5", "--rho0", "0", "--eta", "1",
                  "--out", str(out))
        assert rc == 1
        assert "argument --rho0" in capsys.readouterr().err
        assert not out.exists()

    def test_seeded_rerun_byte_identical(self, tmp_path):
        args = ("train-toy", "--rounds", "6", "--seed", "21")
        assert _run(*args, "--out", str(tmp_path / "a")) == 0
        assert _run(*args, "--out", str(tmp_path / "b")) == 0
        assert (tmp_path / "a" / "train_toy.json").read_bytes() == \
               (tmp_path / "b" / "train_toy.json").read_bytes()

    def test_data_bound_counts_what_the_trainer_keeps(self, tmp_path, capsys):
        # a run whose data dwarfs the network: the MAX_TOY_VALUES count of 4
        # users × (10000 × (2 × (64 + 2) + 32 + 3 × 2) + 50 × (96 + 3 × 2))
        # values must match the traced peak, which a third copy of the data
        # would take to about 1.4 times the count
        values = 4 * (10000 * (2 * (64 + 2) + 32 + 3 * 2) + 50 * (96 + 3 * 2))
        tracemalloc.start()
        try:
            assert _run("train-toy", "--users", "4", "--samples", "10000", "--dim", "64",
                        "--classes", "2", "--batch-size", "50", "--rounds", "1",
                        "--out", str(tmp_path / "o")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert 0.8 * values * 8 <= peak <= 1.25 * values * 8

    def test_cut_list_must_match_users(self, tmp_path):
        assert _run("train-toy", "--users", "2", "--cuts", "1",
                    "--out", str(tmp_path / "o")) == 1

    def test_out_of_range_cut_is_input_error(self, tmp_path):
        assert _run("train-toy", "--users", "2", "--cuts", "1,9",
                    "--out", str(tmp_path / "o")) == 1
        assert _run("train-toy", "--users", "2", "--cuts", "1,x",
                    "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--rounds", "0"), ("--epochs", "0"), ("--eta", "1.5"), ("--rho0", "0"),
        ("--batch-size", "0"), ("--cuts", "1,3"),
    ])
    def test_training_values_refused_before_any_data(self, tmp_path, capsys, monkeypatch,
                                                      flag, value):
        # the trainer's own check runs before any blob is drawn
        _forbid(monkeypatch, cli.toy, "make_blobs", "esfl_train")
        assert _run("train-toy", "--users", "2", "--samples", "32000", "--dim", "3",
                    flag, value, "--out", str(tmp_path / "o")) == 1
        assert f"input error: argument {flag}: must " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_out_of_range_count_is_input_error(self, tmp_path, capsys, monkeypatch):
        for flag in ("--users", "--samples", "--classes", "--dim", "--rounds",
                     "--epochs", "--batch-size"):
            assert _run("train-toy", flag, "0", "--out", str(tmp_path / "o")) == 1
            assert f"argument {flag}" in capsys.readouterr().err
        for flag in ("--epochs", "--seed"):
            assert _run("train-toy", flag, "-1", "--out", str(tmp_path / "o")) == 1
            assert f"argument {flag}" in capsys.readouterr().err
        # a softmax over one class trains nothing
        assert _run("train-toy", "--classes", "1", "--out", str(tmp_path / "o")) == 1
        assert "argument --classes: '1' is not an integer >= 2" in capsys.readouterr().err
        # step sizes that train nothing, or train uphill
        for flag, value in (("--rho0", "0"), ("--rho0", "-0.5"), ("--eta", "0"),
                            ("--eta", "-0.5"), ("--eta", "1.5")):
            assert _run("train-toy", "--rounds", "2", f"{flag}={value}",
                        "--out", str(tmp_path / "o")) == 1
            assert f"argument {flag}" in capsys.readouterr().err
        # runs refused before the network or any blob is drawn, by the values
        # they keep: per user, its samples × (2 × (dim + classes) + 32 + 3 ×
        # classes) and its full and ragged minibatch rows × (96 + 3 × classes).
        # 2 users of 2**62 samples in full batches keep 2 × 2**62 × (8 + 38 +
        # 102); 1 user of 227187 samples of dim 1 in minibatches of 22, the
        # last 15 long, keeps 227187 × 44 + 37 × 102 = the cap + 2, the first
        # count past the cap at that size (every count of 2 classes is even)
        _forbid(monkeypatch, cli.toy, "init_dense_net", "make_blobs", "esfl_train")
        for users, samples, dim, batch, values in (
                ("2", str(2**62), "2", [], 2**63 * 148),
                ("1", "227187", "1", ["--batch-size", "22"], cli.MAX_TOY_VALUES + 2)):
            assert _run("train-toy", "--users", users, "--samples", samples, "--dim", dim,
                        *batch, "--rounds", "1", "--out", str(tmp_path / "o")) == 1
            assert (f"input error: the data and workspaces train-toy keeps must be at "
                    f"most {cli.MAX_TOY_VALUES} values, not {values}\n"
                    in capsys.readouterr().err)
        # networks refused before they are built: (3 + 4) × (16 × 89267 + 17 × 18)
        # parameters is the first --dim past the cap for one user and two classes
        for users, dim, parameters in (("1", "89266", 10_000_046),
                                       ("10000", "2", 30_004 * 354)):
            assert _run("train-toy", "--users", users, "--samples", "1", "--dim", dim,
                        "--rounds", "1", "--out", str(tmp_path / "o")) == 1
            assert (f"input error: (3 × --users + 4) × (16 × (--dim + 1) + 17 × "
                    f"(--classes + 16)) must be at most {cli.MAX_TOY_PARAMETERS}, "
                    f"not {parameters}\n" in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()


# Every numeric flag of the four commands, with draws below its lower bound
# and, where it has one, above its upper bound: (command, flag, below, above).
_INT_BELOW_1 = st.integers(max_value=0)
_INT_BELOW_0 = st.integers(max_value=-1)
_NEGATIVE = st.floats(max_value=-5e-324, allow_nan=False, allow_infinity=False)
_NOT_POSITIVE = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)

# positive, below the magnitude range of 1e-20..1e20; and above it
_TINY = st.floats(5e-324, 0.99e-20)
_HUGE = st.floats(min_value=1.01e20, allow_infinity=False)
_UNITS = [("--kappa", st.one_of(_NEGATIVE, _TINY), _HUGE),
          ("--bytes-per-element", st.one_of(_NOT_POSITIVE, _TINY), _HUGE),
          ("--t-agg", st.one_of(_NEGATIVE, _TINY), _HUGE)]
# the range in TFLOP/s is 1e-32..1e8
_SERVER_TFLOPS = (st.one_of(_NOT_POSITIVE, st.floats(5e-324, 0.99e-32)),
                  st.floats(min_value=1.01e8, allow_infinity=False))
_NUMERIC_FLAGS = [
    ("simulate", "--rounds", _INT_BELOW_1, st.integers(min_value=2**63)),
    ("simulate", "--population", _INT_BELOW_1, st.integers(min_value=MAX_POPULATION + 1)),
    ("simulate", "--selected", _INT_BELOW_1, st.integers(min_value=101)),   # BP's 100
    ("simulate", "--epochs", _INT_BELOW_1, st.integers(min_value=2**63)),
    ("simulate", "--server-tflops", *_SERVER_TFLOPS),
    ("simulate", "--seed", _INT_BELOW_0, None),
    ("simulate", "--fixed-cut", _INT_BELOW_1, st.integers(min_value=21)),   # vgg19's 20
    ("simulate", "--max-iters", _INT_BELOW_1, None),
    *(("simulate", *unit) for unit in _UNITS),
    ("optimize", "--server-tflops", *_SERVER_TFLOPS),
    ("optimize", "--max-iters", _INT_BELOW_1, None),
    *(("optimize", *unit) for unit in _UNITS),
    ("converge", "--reps", _INT_BELOW_1, None),
    ("converge", "--seed", _INT_BELOW_0, None),
    *(("converge", *unit) for unit in _UNITS),
    *(("train-toy", flag, _INT_BELOW_1, None) for flag in (
        "--users", "--samples", "--dim", "--rounds", "--epochs", "--batch-size")),
    ("train-toy", "--classes", st.integers(max_value=1), None),
    ("train-toy", "--eta", _NOT_POSITIVE, st.floats(min_value=1.0, exclude_min=True,
                                                    allow_infinity=False)),
    ("train-toy", "--rho0", _NOT_POSITIVE, None),
    ("train-toy", "--seed", _INT_BELOW_0, None),
]
# The flags whose bound the command line owns: values no library entry takes.
_CLI_OWNED = {("train-toy", flag) for flag in ("--users", "--samples", "--classes", "--dim",
                                               "--seed")}


@st.composite
def _out_of_bounds(draw):
    command, flag, below, above = draw(st.sampled_from(_NUMERIC_FLAGS))
    side = draw(st.sampled_from(["below", "text"] + ["above"] * (above is not None)))
    if side == "text":
        return command, flag, draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity"]))
    return command, flag, repr(draw(below if side == "below" else above))


@pytest.fixture(scope="module")
def flag_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("flags")
    (path / "users.json").write_text(json.dumps({"users": [
        {"n_samples": 500, "tflops": 1.3, "kbps": 10}]}))
    return path


class TestFlagBounds:
    """Each numeric flag parses with ``int`` or a finite float; its bound is
    checked once, by the library entry that takes its value, unless only the
    command line takes it."""

    def _subparsers(self):
        parser = cli.build_parser()
        return next(a for a in parser._actions if a.choices).choices

    def test_numeric_flags_only_parse(self):
        typed = set()
        for command, parser in self._subparsers().items():
            for action in parser._actions:
                if action.type is None or action.choices:   # --kb is a choice
                    continue
                flag = action.option_strings[0]
                typed.add((command, flag))
                if (command, flag) in _CLI_OWNED:
                    assert action.type in (cli._positive_int, cli._non_negative_int,
                                           cli._class_count), flag
                else:
                    assert action.type in (int, cli._finite_float), (command, flag)
        # the property below draws every numeric flag
        assert typed == {(command, flag) for command, flag, _, _ in _NUMERIC_FLAGS}

    @seed(20250)
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=_out_of_bounds())
    @example(case=("simulate", "--kappa", "-1"))
    @example(case=("simulate", "--fixed-cut", "0"))
    @example(case=("optimize", "--server-tflops", "1e297"))
    @example(case=("converge", "--reps", "0"))
    @example(case=("train-toy", "--eta", "1.5"))
    def test_out_of_bounds_value_names_its_flag(self, flag_dir, case):
        command, flag, text = case
        argv = {"optimize": ["--users", str(flag_dir / "users.json")],
                "converge": ["--scenarios", "BP", "--scales", "5"],
                "train-toy": ["--rounds", "1"]}.get(command, [])
        out = flag_dir / "out"
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as monkeypatch, redirect_stderr(err):
            if command != "train-toy":   # no round is drawn and no user planned
                _forbid(monkeypatch, esfl.simulation, "sample_population_data",
                        "sample_rounds")
                _forbid(monkeypatch, esfl.allocation, "_kinds")
            assert main([command, *argv, f"{flag}={text}", "--out", str(out)]) == 1
        assert f"argument {flag}: " in err.getvalue()
        assert not out.exists()


class TestModuleEntryPoint:
    """``python -m esfl`` runs the command line from an uninstalled checkout."""

    def _python_m_esfl(self, tmp_path, *argv):
        src = str(Path(esfl.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return subprocess.run([sys.executable, "-m", "esfl", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    def test_help(self, tmp_path):
        proc = self._python_m_esfl(tmp_path, "--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: esfl ")
        assert "train-toy" in proc.stdout
        assert "Exit codes: 0 success, 1 input" in " ".join(proc.stdout.split())
        for markup in (":mod:", ":func:", "``"):   # written for users, not Sphinx
            assert markup not in proc.stdout

    def test_tiny_train_toy(self, tmp_path):
        proc = self._python_m_esfl(tmp_path, "train-toy", "--users", "3",
                                   "--samples", "8", "--rounds", "2", "--out", "toy")
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "toy" / "train_toy.json").read_text())
        assert len(report["loss_trace"]) == 2
        assert proc.stdout == (tmp_path / "toy" / "train_toy.txt").read_text()

    def test_input_error_exit_code(self, tmp_path):
        proc = self._python_m_esfl(tmp_path, "train-toy", "--seed", "-1")
        assert proc.returncode == 1
        assert "argument --seed" in proc.stderr

    def test_overflowing_train_toy_is_a_runtime_error(self, tmp_path):
        # a step size this large overflows the first forward pass: the run
        # must fail as one error line, not warn and report a clamped loss
        proc = self._python_m_esfl(tmp_path, "train-toy", "--rho0", "1e308", "--rounds", "1",
                                   "--eta", "1", "--out", "toy")
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith("esfl: runtime error: overflow encountered in "), line
        assert not (tmp_path / "toy").exists()


class TestReportBytes:
    """Every report is exactly ``json.dumps(..., sort_keys=True, indent=2)``."""

    @pytest.mark.parametrize("argv, stem", [
        (["simulate"], "report"),
        (["simulate", "--population", "1000", "--selected", "1000",
          "--rounds", "2"], "report"),
        (["simulate", "--algos", "sfl,fl"], "report"),
        (["optimize", "--users", "USERS"], "allocation"),
        (["converge", "--scales", "5,10", "--reps", "2"], "convergence"),
        (["train-toy", "--rounds", "5", "--check-equivalence"], "train_toy"),
        # 2,500 users a round, whose server compute repeats a few values
        (["simulate", "--population", "10000", "--selected", "2500",
          "--rounds", "2"], "report"),
        (["optimize", "--users", "MANY_USERS"], "allocation"),
    ])
    def test_report_is_the_stdlib_encoding(self, tmp_path, users_file, argv, stem):
        if "MANY_USERS" in argv:    # 1,200 users of 12 kinds
            users_file = tmp_path / "many.json"
            users_file.write_text(json.dumps({"users": [
                {"n_samples": 200.0 * (1 + i % 2), "tflops": 1.3 * (1 + i % 3),
                 "kbps": 10.0 * (1 + i % 4)} for i in range(1200)]}))
        argv = [str(users_file) if a.endswith("USERS") else a for a in argv]
        assert _run(*argv, "--out", str(tmp_path)) == 0
        data = (tmp_path / f"{stem}.json").read_bytes()
        expected = json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n"
        assert data == expected.encode("ascii")


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324,
                     math.nan, math.inf, -math.inf]),
)
# quotes, backslashes, control characters, non-ASCII and a surrogate pair
_STRINGS = st.text(st.sampled_from('ab"\\\n\t\x00\x7f[],: \u00e9\u2603\U0001f600'),
                   max_size=6)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                     _FLOATS, _STRINGS)
_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, inner, max_size=5),
        st.lists(st.lists(_SCALARS, min_size=1, max_size=4), max_size=4),  # matrices
    ),
    max_leaves=20,
)


_LEAVES = st.one_of(
    st.lists(_SCALARS, min_size=1, max_size=4),
    st.lists(_SCALARS, min_size=1, max_size=4).map(tuple),
    st.dictionaries(_STRINGS, _SCALARS, min_size=1, max_size=4),
)


@st.composite
def _shared_trees(draw):
    """Trees in which the same container objects recur: at several depths,
    and as the repeated rows of matrices."""
    leaves = draw(st.lists(_LEAVES, min_size=1, max_size=4))
    one_of_them = st.sampled_from(leaves)
    tree = st.recursive(
        st.one_of(one_of_them, _SCALARS),
        lambda inner: st.one_of(st.lists(inner, max_size=4),
                                st.dictionaries(_STRINGS, inner, max_size=4)),
        max_leaves=12,
    )
    rows = [leaf for leaf in leaves if not isinstance(leaf, dict)] or [[0.0]]
    matrix = st.lists(st.one_of(st.sampled_from(rows),
                                st.lists(_SCALARS, min_size=1, max_size=3)),
                      min_size=1, max_size=6)
    return {"tree": draw(tree), "matrix": draw(matrix),
            "deep": [[draw(tree)], {"m": draw(matrix)}], "leaves": leaves}


# scalars that could be mistaken for the structure a column is split at or
# formatted by: "%" and "%s", brackets, separators, quotes, escapes
_COLUMN_STRINGS = st.text(st.sampled_from('%s[],:"\\\n\t\x00é\U0001f600 '), max_size=6)
_COLUMN_SCALARS = st.one_of(
    _SCALARS, _COLUMN_STRINGS,
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, True, False, None,
                     2**70, -2**70, "%", "%s", "%%", "]", "[", "],\n  [", "%(a)s"]),
)
_COLUMN_KEYS = st.text(st.sampled_from('ab%s"\\\né[]'), max_size=4)
# a record schema: each key's column holds scalars, rows of scalars or records
_SCHEMAS = st.recursive(
    st.sampled_from(["scalar", "row"]),
    lambda inner: st.dictionaries(_COLUMN_KEYS, inner, min_size=1, max_size=4),
    max_leaves=8,
).filter(lambda schema: isinstance(schema, dict))
_NEAR_MISSES = ["extra key", "missing key", "empty row", "container in row",
                "other nested keys", "non-string key", "repeated record"]


def _follow(draw, schema):
    """A value that follows ``schema``."""
    if schema == "scalar":
        return draw(_COLUMN_SCALARS)
    if schema == "row":
        row = draw(st.lists(_COLUMN_SCALARS, min_size=1, max_size=4))
        return tuple(row) if draw(st.booleans()) else row
    return {key: _follow(draw, sub) for key, sub in schema.items()}


def _columns_of(schema, path=()):
    """(path, kind) of every column of ``schema``, nested records included."""
    for key, sub in schema.items():
        yield path + (key,), sub if isinstance(sub, str) else "record"
        if isinstance(sub, dict):
            yield from _columns_of(sub, path + (key,))


@st.composite
def _record_lists(draw):
    """2-8 records that follow one schema, at one of several depths, and at
    times one near miss that the column path must refuse: a record with an
    extra or missing key, an empty row, a row holding a container, a nested
    record with another key set, a non-string key, or a repeated record."""
    schema = draw(_SCHEMAS)
    records = [_follow(draw, schema) for _ in range(draw(st.integers(2, 8)))]
    miss = draw(st.sampled_from([None, None, None, *_NEAR_MISSES]))
    victim = draw(st.integers(0, len(records) - 1))
    paths = {kind: [p for p, k in _columns_of(schema) if k == kind]
             for kind in ("row", "record")}

    def at(path):
        node = records[victim]
        for key in path:
            node = node[key]
        return node

    def replace_row(row):
        path = draw(st.sampled_from(paths["row"]))
        at(path[:-1])[path[-1]] = row

    if miss == "extra key":
        records[victim][draw(_COLUMN_KEYS.filter(lambda k: k not in schema))] = 0.5
    elif miss == "missing key":
        del records[victim][draw(st.sampled_from(sorted(schema)))]
    elif miss == "empty row" and paths["row"]:
        replace_row([])
    elif miss == "container in row" and paths["row"]:
        replace_row([1.5, draw(st.sampled_from([[], [2], {}, {"k": 3}]))])
    elif miss == "other nested keys" and paths["record"]:
        nested = at(draw(st.sampled_from(paths["record"])))
        nested[draw(_COLUMN_KEYS.filter(lambda k: k not in nested))] = None
    elif miss == "non-string key":
        records[victim][7] = [1]
    elif miss == "repeated record":
        records[(victim + 1) % len(records)] = records[victim]
    wrap = draw(st.sampled_from([
        lambda r: r, lambda r: {"records": r}, lambda r: [[r]],
        lambda r: {"a": [r, 1.5], "b": {"c": r}},
    ]))
    return wrap(records)


def _stdlib_or_type_error(tree):
    """``dumps_report(tree)`` equals the stdlib's encoding, and raises
    TypeError where the stdlib does (a non-string key among string keys)."""
    try:
        expected = json.dumps(tree, sort_keys=True, indent=2)
    except TypeError:
        with pytest.raises(TypeError):
            dumps_report(tree)
    else:
        assert dumps_report(tree) == expected


# a few floats that a long list repeats: zeros of either sign, NaN of either
# sign, the infinities, the least subnormal, a value near the float maximum
# and two that need all 17 digits
_FLOAT_POOL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e308,
               0.1 + 0.2, 1.3e13 / 7]
# items that are not exactly a float, one of which at times slips into a list
_NOT_FLOATS = [True, 7, np.float64(0.1), "0.1", None]


@st.composite
def _float_lists(draw):
    """A list of floats one short of ``dumps_report``'s floor, at it, or at
    three times it: a drawn pattern of ``_FLOAT_POOL`` values repeated, at
    times with its first quarter or all of it distinct values instead, and
    at times with one item of ``_NOT_FLOATS``. A failing list shrinks with
    its pattern."""
    floor = report.REPEATED_FLOATS_MIN
    n = draw(st.sampled_from([floor - 1, floor, 3 * floor]))
    pattern = draw(st.lists(st.sampled_from(_FLOAT_POOL), min_size=1, max_size=12))
    values = (pattern * n)[:n]
    spread = draw(st.sampled_from([0, 0, n // 4, n]))
    values[:spread] = [1.0 + i / 7 for i in range(spread)]
    if draw(st.integers(0, 3)) == 0:
        values[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_NOT_FLOATS))
    return values


@st.composite
def _float_trees(draw):
    """A long float list at top level, in a dict, as repeated or as distinct
    rows of a matrix, as a row column of a list of records, or as a scalar
    column, one record per float."""
    values, other = draw(_float_lists()), draw(_float_lists())
    return draw(st.sampled_from([
        values,
        {"a": values, "b": [values]},
        [values, other, values],
        [values, list(values), other[:3]],
        [{"k": 1, "x": values}, {"k": 2, "x": other}],
        [{"x": x} for x in values],
    ]))


class TestDumpsReport:
    @seed(20245)
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_TREES)
    @example([[1.0, -0.0], [], [math.nan]])
    @example({"a": [["x]", "[y"], ["]\n["]], "b": ({}, [[]], (True, None))})
    def test_equals_the_stdlib(self, tree):
        assert dumps_report(tree) == json.dumps(tree, sort_keys=True, indent=2)

    @seed(20246)
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_shared_trees())
    def test_shared_containers_equal_the_stdlib(self, tree):
        assert dumps_report(tree) == json.dumps(tree, sort_keys=True, indent=2)

    def test_shared_containers_at_every_depth(self):
        row, entry = [1.5, -0.0, "a\nb"], {"k": [], "x": math.nan}
        tree = {"a": row, "b": [row, [row, entry]], "c": [[entry], {"d": row}],
                "m": [row, [0.0, 0.0], row, (row[0],), row], "n": [[row, row, row]],
                "e": entry}
        assert dumps_report(tree) == json.dumps(tree, sort_keys=True, indent=2)

    def test_per_user_rows_differing_in_the_sign_of_zero_stay_distinct(self):
        spec = dataclasses.replace(esfl.preset_scenarios()["BP"], rounds=1)
        report = esfl.run_simulation(spec, ("esfl",), esfl.load_builtin("vgg19"))
        matrix = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]])
        report = dataclasses.replace(report, cut_distribution=dataclasses.replace(
            report.cut_distribution, user_ids=(0, 1, 2, 3), matrix=matrix))
        dist = report.to_dict()["cut_distribution"]
        rows, row_of_user = dist["rows"], dist["row_of_user"]
        assert "per_user" not in dist
        assert rows == [[0.0, 1.0], [-0.0, 1.0]] and row_of_user == [0, 1, 0, 1]
        assert [math.copysign(1.0, r[0]) for r in rows] == [1.0, -1.0]
        text = dumps_report(dist)
        assert text == json.dumps(dist, sort_keys=True, indent=2) and "-0.0" in text

    @seed(20290)
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_float_trees())
    def test_long_float_lists_equal_the_stdlib(self, tree):
        # compared line by line: pytest shows the first line that differs,
        # where a diff of the two long texts would take minutes
        expected = json.dumps(tree, sort_keys=True, indent=2)
        assert dumps_report(tree).split("\n") == expected.split("\n")

    def test_lists_with_distinct_first_floats_equal_the_stdlib(self):
        rng = np.random.default_rng(20312)
        distinct = rng.random(10_000).tolist()
        pool = rng.random(report.REPEATED_FLOATS_MIN).tolist()
        assert len(set(distinct)) == 10_000 and len(set(pool)) == len(pool)
        for values in (distinct, pool + (pool * 40)[:10_000]):
            expected = json.dumps(values, sort_keys=True, indent=2)
            assert dumps_report(values) == expected

    def test_np_unique_is_skipped_when_the_first_floats_are_distinct(self, monkeypatch):
        calls = []
        unique = np.unique

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return unique(*args, **kwargs)

        monkeypatch.setattr(report.np, "unique", counted)
        rng = np.random.default_rng(20313)
        drawn = rng.choice(rng.random(2000), 10_000).tolist()
        distinct = rng.random(10_000).tolist()
        for values, searched in ((drawn, [10_000]), (distinct, [])):
            calls.clear()
            assert dumps_report(values) == json.dumps(values, sort_keys=True, indent=2)
            assert calls == searched

    def test_stdlib_fallback_without_the_c_encoder(self, monkeypatch):
        tree = {"a": [[1.5, math.inf]], "b": [{"c": "\u00e9"}]}
        monkeypatch.setattr(report, "c_make_encoder", None)
        assert dumps_report(tree) == json.dumps(tree, sort_keys=True, indent=2)

    def test_refuses_non_string_keys_and_unknown_objects(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            dumps_report({"a": {1: [2]}})
        with pytest.raises(TypeError):
            dumps_report({"a": [1, object()]})
        # and in lists of records, whether or not their columns are alike
        with pytest.raises(TypeError, match="keys must be strings"):
            dumps_report([{"a": [1]}, {1: [2]}])
        for unknown in ({"a": object()}, {"a": [object()]}, {"a": {"b": object()}}):
            with pytest.raises(TypeError, match="not JSON serializable"):
                dumps_report([{"a": unknown["a"]}, {"a": unknown["a"]}, unknown])

    @seed(20248)
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_record_lists())
    @example([{"%s": 1, "a%": [2.5, "%s"], "r": {"%(x)s": None}},
              {"%s": 2, "a%": (math.nan,), "r": {"%(x)s": "]"}}])
    @example([{"a": [1.0]}, {"a": []}])
    @example([{"a": {"b": [1]}}, {"a": {"c": [1]}}])
    def test_record_lists_equal_the_stdlib(self, tree):
        _stdlib_or_type_error(tree)

    @seed(20311)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_TREES, _shared_trees(), _record_lists()))
    def test_streamed_chunks_join_to_the_stdlib(self, tree):
        try:
            expected = json.dumps(tree, sort_keys=True, indent=2)
        except TypeError:
            with pytest.raises(TypeError):
                "".join(report.iter_report(tree))
        else:
            assert "".join(report.iter_report(tree)) == expected

    def test_a_dict_of_large_containers_is_streamed_in_chunks(self):
        tree = {"a": [{"x": i, "y": [1.5] * i} for i in range(300)],
                "b": {"c": list(range(2000)), "d": [[0.5, -0.0]] * 500}}
        chunks = list(report.iter_report(tree))
        text = json.dumps(tree, sort_keys=True, indent=2)
        assert "".join(chunks) == text
        assert len(chunks) > 1 and text not in chunks

    def test_streamed_fallback_without_the_c_encoder(self, monkeypatch):
        tree = {"a": [[1.5, math.inf]], "b": [{"c": "\u00e9"}], "d": {"e": [1]}}
        monkeypatch.setattr(report, "c_make_encoder", None)
        assert "".join(report.iter_report(tree)) == json.dumps(tree, sort_keys=True, indent=2)

    def test_a_failing_emit_leaves_the_earlier_report(self, tmp_path):
        report.emit(tmp_path, "report", {"a": [1.5, 2.5]}, "table\n")
        (tmp_path / "report.txt").unlink()
        before = (tmp_path / "report.json").read_bytes()
        payload = {"a": [1.5, 2.5], "b": {"c": [1, 2]}, "z": object()}
        with pytest.raises(TypeError, match="not JSON serializable"):
            report.emit(tmp_path, "report", payload, "other\n")
        assert (tmp_path / "report.json").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


class TestWriteAtomic:
    def test_nested_writers_of_one_path_each_use_their_own_temporary_file(self, tmp_path):
        path = tmp_path / "report.json"

        def chunks():
            yield "outer "
            report._write_atomic(path, ["inner"])
            assert path.read_text() == "inner"
            yield "text"

        report._write_atomic(path, chunks())
        assert path.read_text() == "outer text"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_a_report_gets_the_permissions_of_a_newly_opened_file(self, tmp_path):
        with open(tmp_path / "reference", "w"):
            pass
        report._write_atomic(tmp_path / "report.json", ["{}"])
        mode = (tmp_path / "report.json").stat().st_mode
        assert mode == (tmp_path / "reference").stat().st_mode


def test_the_report_module_loads_no_command_line():
    """Library code can write reports: ``esfl.report`` imports neither the
    command line nor argparse, in a fresh interpreter."""
    src = str(Path(esfl.__file__).resolve().parents[1])
    probe = ("import sys, esfl.report; "
             "print(sorted({'esfl.cli', 'argparse'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestReportDigests:
    """Seeded reports keep their exact bytes: a change that is meant to leave
    every result alone (a faster planner, a leaner writer) must keep these
    sha256 digests of the ``.json`` and ``.txt`` reports."""

    @pytest.mark.parametrize("argv, stem, json_sha, txt_sha", [
        (["simulate", "--scenario", "LH", "--rounds", "20", "--seed", "3"], "report",
         "fa1f662ab5c5917c0cd055c35b42d2c3d351b745625bb0ae237465585dc2ce02",
         "68e23bea32b57689a7d0a29656615f8d136568ff2a4936aea14f3b575911b5b9"),
        (["converge", "--scales", "10,20", "--reps", "2"], "convergence",
         "fc0e6f358e4c6647974bd226d0ebd72b974905e09dea141f8a196a1f67a078c2",
         "e1602a72459a1851eb2847c432be6a396376708a73a028a623fb5547dce5ee27"),
        (["optimize", "--users", "USERS", "--arch", "vgg19"], "allocation",
         "a0c555435d9575957c57804dd33edb668bb36d35dca2e0ce5f3b7a30e7d27570",
         "27432bd66659f3ca3d450bc2fc9f9ce5bd69e1dece24d247bc503581e53cb7e6"),
        (["optimize", "--users", "USERS", "--arch", "vgg19",
          "--epoch-objective", "--t-agg", "1.5"], "allocation",
         "3ffd95b3987715466abbc549cb28f40ad5ef96c9698579514b088b10d8159242",
         "85a79751ba92db62d9c7ea39ad7d21804e5a935ec1f18208b51442af3a464e4a"),
        # 873 users' cut rows, 3 distinct
        (["simulate", "--population", "2000", "--selected", "500", "--rounds", "2",
          "--seed", "4"], "report",
         "27c74a66aed4cbf19cafc405de3ab8b26ba2e03345618d7caaaf7d8bf5b21c3b",
         "2ae7d6b820d70c9c5fc7b2b35c6d01e1cac2760a98bc707145b36d9d45c8806a"),
        # the toy-train benchmark op, and the README command
        (["train-toy", "--users", "8", "--samples", "256", "--classes", "4",
          "--dim", "8", "--batch-size", "16", "--rounds", "25", "--epochs", "1",
          "--check-equivalence", "--seed", "3"], "train_toy",
         "23f7dd0af7d59ef9aca75a81a9a65e050be050802f994c3e1da6ccaabc1d80f5",
         "5edd3dc45935aa08326526659cc0dc084a1674dda34024d7224c1aed0d7e1335"),
        (["train-toy", "--users", "2", "--rounds", "50", "--check-equivalence"],
         "train_toy",
         "c6cd77aecf32c2ed4057693ccbe9bc469780d1a945a385eaf2b25a69fd36b415",
         "bac0f594f134e60d834cb666f28274c52ba0ed16ba3c5f5b48e87b13fd80f25b"),
        # several epochs, a batch size that does not divide the samples, and
        # cuts 1,2,2,1,2: one stack mixes both cuts, whose per-cut groups
        # would not be adjacent in user order
        (["train-toy", "--users", "5", "--samples", "37", "--epochs", "3",
          "--batch-size", "7", "--cuts", "1,2,2,1,2", "--rounds", "10"], "train_toy",
         "2c6a8ebec8d5872330449b041e33a28bb81f27c63c0e1e22976ffcab74684966",
         "83378701dd530992cd76b105b4aabddcacb03f962d6f9949f3d7e5823ef89147"),
        # no ESFL: null ESFL fields, no cut distribution, empty convergence
        (["simulate", "--scenario", "SH", "--algos", "sfl,fl,sl", "--fixed-cut", "5",
          "--rounds", "10"], "report",
         "732cad9d5c81e411e46e7a0a3cf931c288e2dfb97df667ed20647da5d6a49915",
         "379ea150d00200e329fe25457e8d1cafce90f435b31401e8c22a1f96333ea4df"),
        (["simulate", "--scenario", "RP", "--sticky-resources", "--epoch-objective",
          "--t-agg", "2.5", "--rounds", "10"], "report",
         "12bcbc4ba6ee6a090c69370a46ffe3b31934bf1c18dd60318586228c9d2e1b50",
         "fa06964dc545916c2a2fcb0de204ae5db9f1c98e38316bd78c58ebae9da379b4"),
    ])
    def test_report_bytes_are_pinned(self, tmp_path, argv, stem, json_sha, txt_sha):
        users = tmp_path / "users.json"
        users.write_text(json.dumps(_bench_style_users(300, seed=5)))
        argv = [str(users) if a == "USERS" else a for a in argv]
        assert _run(*argv, "--out", str(tmp_path / "out")) == 0
        digests = [hashlib.sha256((tmp_path / "out" / f"{stem}.{ext}").read_bytes())
                   .hexdigest() for ext in ("json", "txt")]
        assert digests == [json_sha, txt_sha]
