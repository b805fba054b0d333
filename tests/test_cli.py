import json
import math

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from esfl import cli
from esfl.cli import dumps_report, main


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

    def test_out_of_range_count_is_input_error(self, tmp_path, capsys):
        for flag in ("--max-iters", "--server-tflops"):
            assert _run("simulate", flag, "0", "--out", str(tmp_path / "o")) == 1
            assert f"argument {flag}" in capsys.readouterr().err
        assert _run("simulate", "--algos", ",", "--out", str(tmp_path / "o")) == 1
        assert "input error: --algos selects nothing" in capsys.readouterr().err
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

    def test_out_of_range_count_is_input_error(self, tmp_path, users_file, capsys):
        for flag in ("--max-iters", "--server-tflops"):
            assert _run("optimize", "--users", str(users_file), flag, "0",
                        "--out", str(tmp_path / "o")) == 1
            assert f"argument {flag}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def test_out_of_range_count_is_input_error(self, tmp_path, capsys):
        assert _run("converge", "--reps", "0", "--out", str(tmp_path / "o")) == 1
        assert "argument --reps" in capsys.readouterr().err
        assert _run("converge", "--scales", "100,x", "--out", str(tmp_path / "o")) == 1
        assert "input error: --scales" in capsys.readouterr().err
        for flag in ("--scenarios", "--scales"):
            assert _run("converge", flag, ",", "--out", str(tmp_path / "o")) == 1
            assert f"input error: {flag} selects nothing" in capsys.readouterr().err
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
        assert _run("train-toy", "--users", "2", "--cuts", "1,x",
                    "--out", str(tmp_path / "o")) == 1

    def test_out_of_range_count_is_input_error(self, tmp_path, capsys):
        for flag in ("--users", "--samples", "--classes", "--dim", "--rounds",
                     "--epochs", "--batch-size"):
            assert _run("train-toy", flag, "0", "--out", str(tmp_path / "o")) == 1
            assert f"argument {flag}" in capsys.readouterr().err
        assert _run("train-toy", "--epochs", "-1", "--out", str(tmp_path / "o")) == 1
        assert "argument --epochs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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
    ])
    def test_report_is_the_stdlib_encoding(self, tmp_path, users_file, argv, stem):
        argv = [str(users_file) if a == "USERS" else a for a in argv]
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


class TestDumpsReport:
    @seed(20245)
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_TREES)
    @example([[1.0, -0.0], [], [math.nan]])
    @example({"a": [["x]", "[y"], ["]\n["]], "b": ({}, [[]], (True, None))})
    def test_equals_the_stdlib(self, tree):
        assert dumps_report(tree) == json.dumps(tree, sort_keys=True, indent=2)

    def test_stdlib_fallback_without_the_c_encoder(self, monkeypatch):
        tree = {"a": [[1.5, math.inf]], "b": [{"c": "\u00e9"}]}
        monkeypatch.setattr(cli, "c_make_encoder", None)
        assert dumps_report(tree) == json.dumps(tree, sort_keys=True, indent=2)

    def test_refuses_non_string_keys_and_unknown_objects(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            dumps_report({"a": {1: [2]}})
        with pytest.raises(TypeError):
            dumps_report({"a": [1, object()]})
