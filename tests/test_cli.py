"""Command-line interface: subcommands, artifacts, and exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest

import qweather
from qweather.cli import main
from qweather.weather import load_csv

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(qweather.__file__)))


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    code = main(["synth", "--seed", "3", "--n-months", "96", "--out", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture(scope="module")
def svc_config(tmp_path_factory, synth_csv):
    path = tmp_path_factory.mktemp("cfg") / "svc.json"
    doc = {
        "model": "svc",
        "task": "binary",
        "data": {"kind": "csv", "path": synth_csv},
        "selection": {"top_k": 3},
        "seed": 1,
    }
    path.write_text(json.dumps(doc))
    return str(path)


class TestSynth:
    def test_writes_loadable_csv(self, synth_csv):
        dataset, report = load_csv(synth_csv)
        assert dataset.n_rows == 96
        assert report.rows_read == 96

    def test_out_dir_variant(self, tmp_path, capsys):
        code = main(
            ["synth", "--seed", "5", "--n-months", "24", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "synth_seed5.csv").exists()

    def test_needs_destination(self):
        assert main(["synth", "--seed", "5"]) == 2

    def test_out_under_a_file_is_file_error(self, tmp_path, capsys):
        # NotADirectoryError: a file-system error, not a training failure
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "x.csv"
        assert main(["synth", "--seed", "5", "--out", str(out)]) == 3
        assert "error:" in capsys.readouterr().err


class TestIngest:
    def test_prints_summary_json(self, synth_csv, capsys):
        assert main(["ingest", "--csv", synth_csv]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows_read"] == 96

    def test_missing_file_is_data_error(self):
        assert main(["ingest", "--csv", "/nonexistent/a.csv"]) == 3

    @pytest.mark.parametrize(
        "text,message",
        [
            ("time,t2m\n2020-02,290.0\n2020-01,291.0\n", "line 3: timestamp '2020-01'"),
            ("time,t2m,t2m,skt\n2020-01,290.0,291.0,1.0\n", "column 't2m' appears"),
            ("time,skt\n2020-01,290.0\n", "missing 't2m' column"),
            ("time,,t2m\n2020-01,1.0,290.0\n", "column 2 has no name"),
        ],
        ids=["out_of_order", "repeated_column", "no_target", "unnamed_column"],
    )
    def test_malformed_csv_is_data_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["ingest", "--csv", str(path)]) == 3
        assert message in capsys.readouterr().err

    def test_latin1_csv_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("time,t2m,unit\n2020-01,290.5,\u00b0K\n".encode("latin-1"))
        assert main(["ingest", "--csv", str(path)]) == 3
        assert "latin1.csv is not UTF-8 text" in capsys.readouterr().err


class TestCorrelate:
    def test_table_and_csv(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "corr.csv"
        assert main(["correlate", "--csv", synth_csv, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "skt" in text
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "feature,r"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(-1.0 <= v <= 1.0 for v in values)


class TestRun:
    def test_run_writes_artifacts(self, svc_config, tmp_path, capsys):
        out = tmp_path / "run1"
        code = main(["run", "--config", svc_config, "--out-dir", str(out)])
        assert code == 0
        for name in (
            "config.json",
            "report.json",
            "predictions.csv",
            "loss_history.csv",
        ):
            assert (out / name).exists()
        assert "test_accuracy" in capsys.readouterr().out

    def test_run_without_out_dir_prints_report(self, svc_config, capsys):
        assert main(["run", "--config", svc_config]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["model"] == "svc"

    def test_seed_override_echoed(self, svc_config, capsys):
        assert main(["run", "--config", svc_config, "--seed", "9"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["seed"] == 9

    def test_unknown_config_key_exit_2(self, tmp_path, svc_config):
        doc = json.loads(open(svc_config).read().replace("svc", "svc"))
        doc["momentum"] = 0.9
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 2

    def test_incompatible_task_exit_2(self, tmp_path, synth_csv):
        doc = {
            "model": "qsvm",
            "task": "regression",
            "data": {"kind": "csv", "path": synth_csv},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("iters", 1.5, "iters must be an integer, got 1.5"),
            ("epochs", True, "epochs must be an integer, got True"),
            ("C", "1", "C must be a finite number, got '1'"),
            ("data", {"kind": "synth", "seed": 7.9}, "data.seed must be an integer"),
        ],
    )
    def test_mistyped_number_exit_2(
        self, tmp_path, svc_config, capsys, key, value, message
    ):
        doc = json.loads(open(svc_config).read())
        doc[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        # unlike a data file or a report, the config is what the user wrote
        path = tmp_path / "latin1.json"
        path.write_bytes('{"model": "svc", "note": "\u00b0"}'.encode("latin-1"))
        assert main(["run", "--config", str(path)]) == 2
        assert "can't decode byte 0xb0" in capsys.readouterr().err

    def test_config_with_byte_order_mark(self, tmp_path, svc_config, capsys):
        with open(svc_config, encoding="utf-8") as fh:
            text = fh.read()
        path = tmp_path / "bom.json"
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["model"] == "svc"

    def test_missing_data_file_exit_3(self, tmp_path):
        doc = {
            "model": "svc",
            "task": "binary",
            "data": {"kind": "csv", "path": "/nonexistent/b.csv"},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 3

    def test_csv_without_target_exit_3(self, tmp_path, capsys):
        data = tmp_path / "notarget.csv"
        data.write_text("time,skt,sp\n2020-01,290.0,1.0\n2020-02,291.0,2.0\n")
        doc = {
            "model": "svc",
            "task": "binary",
            "data": {"kind": "csv", "path": str(data)},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 3
        assert main(["correlate", "--csv", str(data)]) == 3
        assert "missing 't2m' column" in capsys.readouterr().err

    def test_empty_selection_exit_3(self, tmp_path, synth_csv):
        doc = {
            "model": "svc",
            "task": "binary",
            "data": {"kind": "csv", "path": synth_csv},
            "selection": {"threshold": 0.9999},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 3

    def test_top_k_beyond_the_features_exit_2(self, tmp_path, synth_csv, capsys):
        doc = {
            "model": "svc",
            "task": "binary",
            "data": {"kind": "csv", "path": synth_csv},
            "selection": {"top_k": 99},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 2
        assert "select: top_k=99 exceeds the 12 ranked features" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["qnn-sel", "nn", "lstm"])
    def test_target_constant_on_training_slice_exit_3(self, tmp_path, capsys, model):
        # 60 months, split at 48: t2m holds still for the first 48, so the
        # harness cannot scale it, whatever the model
        rows = ["time,t2m,a,b,c"]
        for i in range(60):
            t = 290.0 + max(0, i - 47)
            rows.append(
                f"{2000 + i // 12}-{i % 12 + 1:02d}-01,{t},"
                f"{t + 0.1 * math.sin(i)},{-t + 0.1 * math.cos(i)},{t + 0.01 * i}"
            )
        data = tmp_path / "flat.csv"
        data.write_text("\n".join(rows) + "\n")
        doc = {
            "model": model,
            "task": "regression",
            "data": {"kind": "csv", "path": str(data)},
            "selection": {"top_k": 3},
            "epochs": 2,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "scale: column t2m is constant on the fit slice" in err

    def test_out_dir_that_is_a_file_exit_3(self, svc_config, tmp_path, capsys):
        # FileExistsError once the run tries to make its artifact directory
        out = tmp_path / "afile"
        out.write_text("")
        assert main(["run", "--config", svc_config, "--out-dir", str(out)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exit_2(self, capsys):
        assert main([]) == 2
        assert main(["run"]) == 2
        capsys.readouterr()


class TestCompare:
    def test_two_configs(self, svc_config, tmp_path, capsys):
        nn_doc = json.loads(open(svc_config).read())
        nn_doc["model"] = "nn"
        nn_doc["epochs"] = 15
        nn_path = tmp_path / "nn.json"
        nn_path.write_text(json.dumps(nn_doc))
        code = main(
            [
                "compare",
                "--config",
                str(nn_path),
                "--config",
                svc_config,
                "--out-dir",
                str(tmp_path / "cmp"),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        lines = text.strip().splitlines()
        assert lines[2].split()[0] == "nn"
        assert lines[3].split()[0] == "svc"
        assert (tmp_path / "cmp" / "comparison.csv").exists()
        assert (tmp_path / "cmp" / "run00_nn" / "report.json").exists()

    def test_single_config_exit_2(self, svc_config, capsys):
        assert main(["compare", "--config", svc_config]) == 2
        capsys.readouterr()


@pytest.fixture(scope="module")
def regression_report(tmp_path_factory, synth_csv):
    doc = {
        "model": "nn",
        "task": "regression",
        "data": {"kind": "csv", "path": synth_csv},
        "selection": {"top_k": 3},
        "epochs": 10,
        "seed": 1,
    }
    root = tmp_path_factory.mktemp("plot")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = root / "run"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
    return str(out / "report.json")


def _report_document(**changes):
    """A well-formed one-prediction regression report.json document with
    ``changes`` applied."""
    doc = {
        "config": {"task": "regression"},
        "n_parameters": 1,
        "selected_features": ["skt"],
        "details": {},
        "metrics": {},
        "loss_history": [0.5],
        "n_train": 1,
        "n_test": 1,
        "predictions": [["2020-01", 290.0, 291.0]],
        "probabilities": None,
    }
    doc.update(changes)
    return doc


class TestPlotData:
    def test_series_csv(self, regression_report, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert main(["plotdata", "--report", regression_report, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "time,actual_K,predicted_K"
        assert len(lines) > 1

    def test_report_with_byte_order_mark(self, tmp_path):
        report = tmp_path / "bom.json"
        report.write_text("\ufeff" + json.dumps(_report_document()), encoding="utf-8")
        out = tmp_path / "series.csv"
        assert main(["plotdata", "--report", str(report), "--out", str(out)]) == 0
        assert out.read_text() == "time,actual_K,predicted_K\n2020-01,290.0,291.0\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("time,actual\n", "report is not valid JSON"),
            ("[1, 2]", "report must be a JSON object, got list"),
            ('{"config": {}}', "report lacks n_parameters, selected_features"),
        ],
        ids=["not_json", "list", "no_fields"],
    )
    def test_not_a_report_exit_3(self, tmp_path, capsys, text, message):
        report = tmp_path / "report.json"
        report.write_text(text)
        out = tmp_path / "x.csv"
        assert main(["plotdata", "--report", str(report), "--out", str(out)]) == 3
        assert message in capsys.readouterr().err

    def test_report_not_utf8_exit_3(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_bytes(b'{"config": "\xff"}')
        out = tmp_path / "x.csv"
        assert main(["plotdata", "--report", str(report), "--out", str(out)]) == 3
        assert "report is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"predictions": [["2020-01"]]}, "predictions row must be a time and two"),
            ({"predictions": [[202001, 290.0, 291.0]]}, "predictions row"),
            ({"predictions": [["2020-01", 290.0, "x"]]}, "predictions row"),
            ({"predictions": [["2020-01", 290.0, True]]}, "predictions row"),
            ({"config": []}, "report config must be a JSON object"),
            ({"config": {}}, "report config task must be regression, binary or ternary"),
            ({"config": {"task": "quaternary"}}, "report config task must be"),
            ({"probabilities": [[0.5, 0.5], [0.5, 0.5]]}, "one row per prediction"),
            ({"probabilities": [[0.5, "x"]]}, "rows must be numbers"),
            (
                {"predictions": [["2020-01", 1, 0]] * 2, "probabilities": [[0.5, 0.5], [1.0]]},
                "numbers of one length",
            ),
        ],
        ids=[
            "short_row", "time_not_a_string", "value_not_a_number", "value_a_bool",
            "config_a_list", "config_without_task", "config_unknown_task",
            "probabilities_per_prediction", "probability_not_a_number",
            "ragged_probabilities",
        ],
    )
    def test_malformed_report_exit_3(self, tmp_path, capsys, changes, message):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(_report_document(**changes)))
        out = tmp_path / "x.csv"
        assert main(["plotdata", "--report", str(report), "--out", str(out)]) == 3
        assert message in capsys.readouterr().err

    def test_no_probabilities_exit_2(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(_report_document(predictions=[], probabilities=[])))
        out = tmp_path / "x.csv"
        argv = ["plotdata", "--report", str(report), "--out", str(out), "--probabilities"]
        assert main(argv) == 2
        assert "no class probabilities" in capsys.readouterr().err

    def test_classification_without_flag_exit_2(self, svc_config, tmp_path, capsys):
        run_dir = tmp_path / "cls"
        assert main(["run", "--config", svc_config, "--out-dir", str(run_dir)]) == 0
        out = tmp_path / "x.csv"
        code = main(
            ["plotdata", "--report", str(run_dir / "report.json"), "--out", str(out)]
        )
        assert code == 2
        capsys.readouterr()


class TestFreshProcessDeterminism:
    """Two fresh interpreters running one config write the same bytes."""

    @pytest.mark.parametrize(
        "model, task",
        [("qlstm", "regression"), ("qnn-sel", "binary"), ("svc", "ternary")],
    )
    def test_run_bytes_identical_across_processes(self, tmp_path, model, task):
        cfg = tmp_path / "cfg.json"
        doc = {
            "model": model,
            "task": task,
            "data": {"kind": "synth", "seed": 7, "n_months": 60},
            "epochs": 3,
            "seed": 1,
        }
        cfg.write_text(json.dumps(doc))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
        )
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cmd = ["run", "--config", str(cfg), "--out-dir", str(out)]
            proc = subprocess.run(
                [sys.executable, "-m", "qweather.cli", *cmd],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(
                [(out / f).read_bytes() for f in ("report.json", "predictions.csv")]
            )
        assert outputs[0] == outputs[1]
