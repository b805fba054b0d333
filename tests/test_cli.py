import json

import pytest

from esfl.cli import main


def _run(*argv):
    return main(list(argv))


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
        assert not (tmp_path / "o").exists()

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("ESFL_OUT_DIR", str(target))
        assert _run("simulate", "--rounds", "1", "--algos", "fl") == 0
        assert (target / "report.json").exists()


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
        assert "gap ratio" in capsys.readouterr().out

    def test_oracle_refused_for_large_arch(self, tmp_path, users_file):
        assert _run("optimize", "--users", str(users_file), "--arch", "vgg19",
                    "--oracle", "--out", str(tmp_path / "o")) == 1

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


class TestTrainToy:
    def test_equivalence_check_reports_zero_deviation(self, tmp_path, capsys):
        out = tmp_path / "toy"
        rc = _run("train-toy", "--rounds", "5", "--seed", "3",
                  "--check-equivalence", "--out", str(out))
        assert rc == 0
        report = json.loads((out / "train_toy.json").read_text())
        assert report["split_vs_monolithic_max_rel_dev"] <= 1e-9
        assert "split vs monolithic" in capsys.readouterr().out

    def test_zero_rate_run_stays_at_initialization(self, tmp_path):
        out = tmp_path / "toy"
        rc = _run("train-toy", "--rounds", "5", "--rho0", "0", "--eta", "1",
                  "--out", str(out))
        assert rc == 0
        report = json.loads((out / "train_toy.json").read_text())
        assert report["deviation_from_init"] == 0.0

    def test_seeded_rerun_byte_identical(self, tmp_path):
        args = ("train-toy", "--rounds", "6", "--seed", "21")
        assert _run(*args, "--out", str(tmp_path / "a")) == 0
        assert _run(*args, "--out", str(tmp_path / "b")) == 0
        assert (tmp_path / "a" / "train_toy.json").read_bytes() == \
               (tmp_path / "b" / "train_toy.json").read_bytes()

    def test_cut_list_must_match_users(self, tmp_path):
        assert _run("train-toy", "--users", "2", "--cuts", "1",
                    "--out", str(tmp_path / "o")) == 1

    def test_out_of_range_cut_is_input_error(self, tmp_path):
        assert _run("train-toy", "--users", "2", "--cuts", "1,9",
                    "--out", str(tmp_path / "o")) == 1
