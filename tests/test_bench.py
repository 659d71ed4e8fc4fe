"""Experiment harness: config validation, runs, artifacts, comparisons."""

import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest
from conftest import same_bytes

from qweather import models_qnn
from qweather.bench import (
    MODEL_TASKS,
    ConfigError,
    ExperimentConfig,
    NoPredictionsError,
    PipelineError,
    compare,
    config_from_dict,
    config_to_dict,
    emit_plot_data,
    model_from_json,
    model_to_json,
    normalized,
    report_from_json,
    report_to_json,
    run,
)
from qweather.circuits import build_reuploading_ising, build_reuploading_sel
from qweather.models_qnn import (
    build_dense_baseline,
    build_qnn,
    build_vqc_classifier,
    dense_predict,
    qnn_predict,
    vqc_probabilities,
)
from qweather.models_recurrent import (
    build_classical_gru,
    build_classical_lstm,
    build_qgru,
    build_qlstm,
    sequence_forward,
)
from qweather.qkernel import kernel_machine_predict, kernel_machine_train
from qweather.weather import EmptySelectionError, synth_generate

TINY = {"kind": "synth", "seed": 3, "n_months": 96}


def tiny_config(**overrides):
    base = dict(
        model="svc",
        task="binary",
        data=TINY,
        selection={"top_k": 3},
        seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(model="qboost")

    @pytest.mark.parametrize(
        "model,task",
        [
            ("qsvm", "regression"),
            ("vqc", "regression"),
            ("svc", "regression"),
            ("qlstm", "binary"),
            ("qgru", "ternary"),
            ("lstm", "binary"),
            ("gru", "ternary"),
        ],
    )
    def test_incompatible_model_task_rejected(self, model, task):
        with pytest.raises(ConfigError):
            tiny_config(model=model, task=task)

    def test_bad_data_specs_rejected(self):
        for data in (
            {"kind": "synth"},
            {"kind": "csv"},
            {"kind": "parquet", "path": "x"},
            {"kind": "synth", "seed": 1, "path": "x"},
            "synth",
        ):
            with pytest.raises(ConfigError):
                tiny_config(data=data)

    @pytest.mark.parametrize("path", [0, True, None, ["a"], ""])
    def test_csv_path_must_be_a_nonempty_string(self, path):
        # load_csv(0) would read standard input as the CSV
        with pytest.raises(ConfigError, match="data.path must be a non-empty string"):
            tiny_config(data={"kind": "csv", "path": path})

    def test_selection_needs_exactly_one_rule(self):
        with pytest.raises(ConfigError):
            tiny_config(selection={"threshold": 0.8, "top_k": 3})
        with pytest.raises(ConfigError):
            tiny_config(selection={})
        with pytest.raises(ConfigError):
            tiny_config(selection={"best": 3})

    def test_bad_knobs_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(scaling="robust")
        with pytest.raises(ConfigError):
            tiny_config(split_fraction=1.0)
        with pytest.raises(ConfigError):
            tiny_config(C=0.0)
        with pytest.raises(ConfigError):
            tiny_config(epochs=0)
        with pytest.raises(ConfigError):
            tiny_config(lr=-0.1)
        with pytest.raises(ConfigError):
            tiny_config(gamma=0.0)
        with pytest.raises(ConfigError):
            tiny_config(window=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"iters": 1.5},
            {"epochs": True},
            {"seed": 7.0},
            {"window": "4"},
            {"n_layers": False},
            {"data": {"kind": "synth", "seed": 7.9, "n_months": 100}},
            {"data": {"kind": "synth", "seed": 7, "n_months": 100.7}},
            {"selection": {"top_k": 3.0}},
            {"selection": {"threshold": "0.8"}},
            {"selection": {"threshold": True}},
            {"split_fraction": "0.5"},
            {"C": "1"},
            {"gamma": [1.0]},
            {"lr": float("inf")},
            {"C": float("nan")},
            {"selection": {"threshold": float("-inf")}},
            {"lr": None, "seed": None},
        ],
    )
    def test_mistyped_numbers_rejected(self, overrides):
        with pytest.raises(ConfigError, match="must be an integer|must be a finite"):
            tiny_config(**overrides)

    def test_numbers_of_either_type_accepted_where_real(self):
        cfg = tiny_config(C=2, gamma=1, lr=None, selection={"threshold": 1})
        assert (cfg.C, cfg.gamma, cfg.lr, cfg.selection["threshold"]) == (2, 1, None, 1)

    def test_dict_round_trip(self):
        cfg = tiny_config(model="qsvm", C=2.5)
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_unknown_keys_rejected(self):
        doc = config_to_dict(tiny_config())
        doc["batch_size"] = 32
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"model": "svc", "task": "binary"})

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2])


class TestDefaults:
    def test_kernel_models_default_to_minmax(self):
        for model in ("qsvm", "svc", "vqc"):
            cfg = normalized(tiny_config(model=model))
            assert cfg.scaling == "minmax"

    def test_other_models_default_to_standard(self):
        for model, task in (
            ("qnn-sel", "binary"),
            ("nn", "binary"),
            ("qlstm", "regression"),
            ("gru", "regression"),
        ):
            cfg = normalized(tiny_config(model=model, task=task))
            assert cfg.scaling == "standard"

    def test_explicit_scaling_wins(self):
        cfg = normalized(tiny_config(model="qsvm", scaling="standard"))
        assert cfg.scaling == "standard"

    def test_epoch_and_iter_defaults(self):
        assert normalized(tiny_config(model="vqc")).iters == 150
        assert normalized(tiny_config(model="qnn-sel")).epochs == 150
        assert (
            normalized(tiny_config(model="qlstm", task="regression")).epochs == 50
        )
        assert normalized(tiny_config(model="qgru", task="regression")).epochs == 20

    def test_report_echoes_resolved_defaults(self):
        rep = run(tiny_config())
        assert rep.config["scaling"] == "minmax"
        assert rep.config["C"] == 1.0
        assert rep.config["seed"] == 1


class TestClassificationRuns:
    def test_svc_binary_report_shape(self):
        rep = run(tiny_config())
        n = TINY["n_months"]
        split = math.floor(n * 0.8)
        assert rep.n_train == split
        assert rep.n_test == n - split
        assert len(rep.predictions) == n - split
        assert 0.0 <= rep.metrics["train_accuracy"] <= 1.0
        assert 0.0 <= rep.metrics["test_accuracy"] <= 1.0
        assert rep.n_parameters > 0
        assert rep.loss_history == ()
        t, actual, pred = rep.predictions[0]
        assert isinstance(t, str) and isinstance(actual, int)
        assert pred in (0, 1)

    def test_qsvm_ternary_labels(self):
        rep = run(tiny_config(model="qsvm", task="ternary"))
        labels = {row[2] for row in rep.predictions}
        assert labels <= {0, 1, 2}
        assert rep.details["n_support"] == rep.n_parameters

    def test_vqc_probabilities_stored(self):
        rep = run(tiny_config(model="vqc", iters=20))
        assert rep.probabilities is not None
        assert len(rep.probabilities) == rep.n_test
        sums = [sum(row) for row in rep.probabilities]
        assert np.allclose(sums, 1.0)
        assert len(rep.loss_history) >= 20

    def test_nn_binary_smoke(self):
        rep = run(tiny_config(model="nn", epochs=40))
        assert rep.n_parameters == 21
        assert len(rep.loss_history) == 40
        assert rep.probabilities is not None

    def test_qnn_sel_binary_smoke(self):
        rep = run(tiny_config(model="qnn-sel", epochs=6, n_layers=2))
        assert rep.n_parameters == 18
        assert rep.details["circuit"].startswith("reuploading_sel")
        assert len(rep.loss_history) == 6


class TestRegressionRuns:
    def test_nn_regression_metrics(self):
        rep = run(tiny_config(model="nn", task="regression", epochs=60))
        m = rep.metrics
        for key in (
            "train_mse_scaled",
            "test_mse_scaled",
            "train_mse_kelvin",
            "test_mse_kelvin",
        ):
            assert m[key] >= 0.0
        t, actual, pred = rep.predictions[0]
        assert 200.0 < actual < 350.0
        assert isinstance(pred, float)

    def test_qnn_ising_regression_smoke(self):
        rep = run(
            tiny_config(model="qnn-ising", task="regression", epochs=5)
        )
        assert rep.n_parameters == 21
        assert rep.metrics["test_mse_kelvin"] >= 0.0

    def test_gru_window_bookkeeping(self):
        cfg = tiny_config(
            model="gru", task="regression", epochs=3, window=4,
            selection={"top_k": 4},
        )
        rep = run(cfg)
        n = TINY["n_months"]
        split = math.floor(n * 0.8)
        assert rep.n_test == n - split
        assert rep.n_train == split - cfg.window
        assert len(rep.predictions) == rep.n_test
        assert rep.n_parameters == 1073

    def test_qgru_tiny_run(self):
        rep = run(
            tiny_config(
                model="qgru",
                task="regression",
                data={"kind": "synth", "seed": 3, "n_months": 40},
                epochs=2,
            )
        )
        assert rep.details["n_circuit_params"] == 72
        assert len(rep.loss_history) == 2
        assert rep.metrics["test_mse_scaled"] >= 0.0


@pytest.mark.parametrize(
    "model", ["qnn-ising", "qnn-sel", "nn", "qlstm", "qgru", "lstm", "gru"]
)
def test_regression_metrics_share_one_target_scale(model):
    # every regression model trains on the target min-max scaled on the
    # training slice, so kelvin MSE is scaled MSE times that slice's range
    # squared
    rep = run(tiny_config(model=model, task="regression", epochs=2))
    target = synth_generate(TINY["seed"], TINY["n_months"]).target()
    fit = target[: math.floor(TINY["n_months"] * 0.8)]
    span2 = (fit.max() - fit.min()) ** 2
    m = rep.metrics
    for split in ("train", "test"):
        ratio = m[f"{split}_mse_kelvin"] / m[f"{split}_mse_scaled"]
        assert ratio == pytest.approx(span2, rel=1e-9), split


METRIC_KEYS = {
    "regression": {
        "train_mse_scaled",
        "test_mse_scaled",
        "train_mse_kelvin",
        "test_mse_kelvin",
    },
    "binary": {"train_accuracy", "test_accuracy"},
    "ternary": {"train_accuracy", "test_accuracy"},
}
# classifiers that report class probabilities; kernel machines only vote
PROBABILISTIC = {"qnn-ising", "qnn-sel", "vqc", "nn"}


@pytest.mark.parametrize(
    "model,task",
    [(model, task) for model, tasks in MODEL_TASKS.items() for task in tasks],
)
def test_every_model_task_pair_completes(model, task):
    rep = run(tiny_config(model=model, task=task, epochs=2, iters=5))
    assert set(rep.metrics) == METRIC_KEYS[task]
    assert rep.n_test == len(rep.predictions)
    if task != "regression" and model in PROBABILISTIC:
        assert len(rep.probabilities) == rep.n_test
        labels = [row[2] for row in rep.predictions]
        assert labels == np.argmax(rep.probabilities, axis=1).tolist()
    else:
        assert rep.probabilities is None
    assert rep.n_parameters > 0
    if model in ("qsvm", "svc"):
        assert rep.loss_history == ()
    elif model == "vqc":
        assert len(rep.loss_history) >= 5
    else:
        assert len(rep.loss_history) == 2


@pytest.mark.parametrize(
    "model,task",
    [("vqc", "binary"), ("vqc", "ternary"), ("qnn-sel", "binary"), ("qnn-ising", "ternary")],
)
def test_classifier_simulates_test_rows_once(model, task, monkeypatch):
    # every circuit evaluation of the quantum classifiers goes through
    # models_qnn's run_circuit_batch; record the batch size of each.  The
    # run scores the training and test rows together, in one batch
    batch_rows = []
    original = models_qnn.run_circuit_batch

    def counted(circuit, params, inputs, *args, **kwargs):
        batch_rows.append(np.atleast_2d(inputs).shape[0])
        return original(circuit, params, inputs, *args, **kwargs)

    monkeypatch.setattr(models_qnn, "run_circuit_batch", counted)
    rep = run(tiny_config(model=model, task=task, epochs=2, iters=5))
    assert rep.n_test != rep.n_train
    assert batch_rows.count(rep.n_train + rep.n_test) == 1
    assert rep.n_test not in batch_rows
    assert len(rep.probabilities) == rep.n_test


class TestStageErrors:
    def test_missing_csv_tags_ingest(self):
        cfg = tiny_config(data={"kind": "csv", "path": "/nonexistent/xyz.csv"})
        with pytest.raises(PipelineError) as err:
            run(cfg)
        assert err.value.stage == "ingest"
        assert isinstance(err.value.cause, FileNotFoundError)

    def test_empty_selection_tags_select(self):
        cfg = tiny_config(selection={"threshold": 0.9999})
        with pytest.raises(PipelineError) as err:
            run(cfg)
        assert err.value.stage == "select"
        assert isinstance(err.value.cause, EmptySelectionError)

    def test_ising_feature_count_tags_train(self):
        cfg = tiny_config(model="qnn-ising", selection={"top_k": 4}, epochs=2)
        with pytest.raises(PipelineError) as err:
            run(cfg)
        assert err.value.stage == "train"

    def test_nn_unsupported_width_tags_train(self):
        cfg = tiny_config(model="nn", selection={"top_k": 2}, epochs=2)
        with pytest.raises(PipelineError) as err:
            run(cfg)
        assert err.value.stage == "train"


class TestArtifacts:
    def test_run_writes_all_files(self, tmp_path):
        out = tmp_path / "runA"
        run(tiny_config(), out_dir=str(out))
        for name in (
            "config.json",
            "report.json",
            "predictions.csv",
            "loss_history.csv",
            "timing.json",
        ):
            assert (out / name).exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["model"] == "svc"
        assert "wall_time" not in json.dumps(doc)

    @pytest.mark.parametrize(
        "overrides,names",
        [
            ({}, ["ingest", "correlate", "select", "scale", "bin", "train"]),
            (
                {"model": "gru", "task": "regression", "epochs": 2},
                ["ingest", "correlate", "select", "scale", "window", "train"],
            ),
        ],
        ids=["rows", "windows"],
    )
    def test_timing_holds_the_stages_in_run_order(self, tmp_path, overrides, names):
        run(tiny_config(**overrides), out_dir=str(tmp_path))
        timing = json.loads((tmp_path / "timing.json").read_text())
        assert list(timing) == ["wall_time_s", "stages"]
        assert list(timing["stages"]) == names
        assert all(t >= 0.0 for t in timing["stages"].values())
        assert sum(timing["stages"].values()) <= timing["wall_time_s"]

    def test_repeated_runs_byte_identical(self, tmp_path):
        cfg = tiny_config(model="nn", epochs=25)
        a, b = tmp_path / "a", tmp_path / "b"
        run(cfg, out_dir=str(a))
        run(cfg, out_dir=str(b))
        for name in ("report.json", "predictions.csv", "config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seed_changes_report(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(tiny_config(model="nn", epochs=25, seed=1), out_dir=str(a))
        run(tiny_config(model="nn", epochs=25, seed=2), out_dir=str(b))
        assert (a / "report.json").read_bytes() != (b / "report.json").read_bytes()

    def test_report_json_round_trip(self, tmp_path):
        rep = run(tiny_config(model="nn", task="regression", epochs=10))
        text = report_to_json(rep)
        again = report_from_json(text)
        assert again.predictions == rep.predictions
        assert again.metrics == rep.metrics
        assert again.n_parameters == rep.n_parameters

    def test_predictions_csv_full_precision(self, tmp_path):
        out = tmp_path / "r"
        rep = run(
            tiny_config(model="nn", task="regression", epochs=10),
            out_dir=str(out),
        )
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        assert lines[0] == "time,actual,predicted"
        for line, row in zip(lines[1:], rep.predictions):
            t, actual, pred = line.split(",")
            assert t == row[0]
            assert float(actual) == row[1]
            assert float(pred) == row[2]
        lines = (out / "loss_history.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert [line.split(",")[0] for line in lines[1:]] == [
            str(i) for i in range(len(rep.loss_history))
        ]
        assert tuple(float(line.split(",")[1]) for line in lines[1:]) == rep.loss_history


# (id, seeded model, its scorer, input shape, class count or None for
# regression): every trained-model kind a run builds, at the sizes of its
# default run
MODEL_KINDS = [
    ("qnn-sel-regression", lambda: build_qnn(build_reuploading_sel(4, 4), "regression", 1),
     qnn_predict, (5, 4), None),
    ("qnn-sel-binary", lambda: build_qnn(build_reuploading_sel(4, 4), "binary", 1),
     qnn_predict, (5, 4), 2),
    ("qnn-sel-ternary", lambda: build_qnn(build_reuploading_sel(4, 4), "ternary", 1),
     qnn_predict, (5, 4), 3),
    ("qnn-ising-ternary", lambda: build_qnn(build_reuploading_ising(3, 2), "ternary", 2),
     qnn_predict, (5, 3), 3),
    ("vqc-binary", lambda: build_vqc_classifier(3, 2, seed=3), vqc_probabilities, (5, 3), 2),
    ("vqc-ternary", lambda: build_vqc_classifier(3, 3, seed=4), vqc_probabilities, (5, 3), 3),
    ("nn-regression", lambda: build_dense_baseline(21, 3, "regression", seed=5),
     dense_predict, (5, 3), None),
    ("nn-binary", lambda: build_dense_baseline(48, 4, "binary", seed=6),
     dense_predict, (5, 4), 2),
    ("nn-ternary", lambda: build_dense_baseline(21, 3, "ternary", seed=7),
     dense_predict, (5, 3), 3),
    ("qlstm", lambda: build_qlstm(3, 4, 2, seed=8), sequence_forward, (5, 4, 3), None),
    ("qgru", lambda: build_qgru(3, 4, 2, seed=9), sequence_forward, (5, 4, 3), None),
    ("lstm", lambda: build_classical_lstm(3, 8, seed=10), sequence_forward, (5, 4, 3), None),
    ("gru", lambda: build_classical_gru(3, 16, seed=11), sequence_forward, (5, 4, 3), None),
]


class TestModelDocuments:
    @pytest.mark.parametrize(
        "build,score,shape,n_classes", [case[1:] for case in MODEL_KINDS],
        ids=[case[0] for case in MODEL_KINDS],
    )
    def test_round_trip_keeps_params_and_scores_byte_identical(
        self, build, score, shape, n_classes
    ):
        model = build()
        text = model_to_json(model)
        doc = json.loads(text)
        assert doc["class"] == type(model).__name__
        assert set(doc) == {"class"} | {f.name for f in fields(model)}
        assert text == json.dumps(doc, sort_keys=True)
        loaded = model_from_json(text)
        assert type(loaded) is type(model)
        for f in fields(model):
            if f.name != "params":
                assert getattr(loaded, f.name) == getattr(model, f.name)
        assert same_bytes(loaded.params, model.params)
        X = np.random.default_rng(12).uniform(-1.0, 1.0, size=shape)
        scored = score(loaded, X)
        assert same_bytes(scored, score(model, X))
        # one scorer per model: regression values, or class probabilities
        if n_classes is None:
            assert scored.shape == shape[:1]
        else:
            assert scored.shape == (shape[0], n_classes)
            assert np.allclose(scored.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "build", [case[1] for case in MODEL_KINDS], ids=[case[0] for case in MODEL_KINDS]
    )
    def test_params_of_the_wrong_length_rejected(self, build):
        doc = json.loads(model_to_json(build()))
        with pytest.raises(ValueError, match="length"):
            model_from_json(json.dumps(dict(doc, params=doc["params"][:-1])))

    def test_unknown_class_rejected(self):
        for text in ('{"class": "SvmModel"}', '{"kind": "gru"}', "[]"):
            with pytest.raises(ValueError, match="unknown model class"):
                model_from_json(text)
        # a classical cell's own "kind" field is no class name
        doc = json.loads(model_to_json(build_classical_gru(3, 16, seed=1)))
        with pytest.raises(ValueError, match="unknown model class"):
            model_from_json(json.dumps(dict(doc, **{"class": doc["kind"]})))

    def test_missing_or_extra_keys_rejected(self):
        doc = json.loads(model_to_json(build_qnn(build_reuploading_sel(4, 4), "binary", 1)))
        missing = {key: value for key, value in doc.items() if key != "task"}
        # the readout is the task's, so a document cannot state it
        for bad in (missing, dict(doc, seed=7), dict(doc, readout=[0])):
            with pytest.raises(ValueError, match="holds exactly the keys"):
                model_from_json(json.dumps(bad))

    @pytest.mark.parametrize("kernel,gamma,task", [
        ("rbf", 2.5, "binary"), ("zz_feature_map(3,1)", None, "ternary"),
    ])
    def test_kernel_machine_round_trip_keeps_labels_byte_identical(
        self, kernel, gamma, task
    ):
        rng = np.random.default_rng(13)
        X = rng.uniform(0.0, 1.0, size=(30, 3))
        y = np.digitize(X.sum(axis=1), [1.2, 1.8] if task == "ternary" else [1.5])
        machine, _ = kernel_machine_train(X, y, kernel, gamma)
        text = model_to_json(machine)
        doc = json.loads(text)
        assert doc["class"] == "KernelMachine"
        assert set(doc) == {"class"} | {f.name for f in fields(machine)}
        assert text == json.dumps(doc, sort_keys=True)
        loaded = model_from_json(text)
        assert (loaded.kernel, loaded.gamma) == (kernel, gamma)
        assert loaded.classes == machine.classes
        for name in ("support_rows", "coefficients", "biases"):
            assert same_bytes(getattr(loaded, name), getattr(machine, name))
        Z = rng.uniform(0.0, 1.0, size=(12, 3))
        labels = kernel_machine_predict(loaded, Z)
        assert same_bytes(labels, kernel_machine_predict(machine, Z))
        assert set(labels.tolist()) <= set(machine.classes)

    def test_kernel_machine_document_of_the_wrong_shape_rejected(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        machine, _ = kernel_machine_train(X, np.array([0, 0, 1, 1]), "rbf", 1.0)
        doc = json.loads(model_to_json(machine))
        for bad in (
            dict(doc, biases=doc["biases"] * 2),
            dict(doc, coefficients=[row[:-1] for row in doc["coefficients"]]),
            dict(doc, support_rows=doc["support_rows"][:-1]),
            dict(doc, classes=[0, 1, 2]),
        ):
            with pytest.raises(ValueError, match="do not fit"):
                model_from_json(json.dumps(bad))

    def test_quantum_cell_runs_only_qlstm_vqc(self):
        doc = json.loads(model_to_json(build_qlstm(4, 4, 4, seed=1)))
        # reuploading_sel(4,4) has as many angles as qlstm_vqc(4,4)
        with pytest.raises(ValueError, match="qlstm_vqc"):
            model_from_json(json.dumps(dict(doc, circuit="reuploading_sel(4,4)")))


class TestCompare:
    def test_single_config_rejected(self):
        with pytest.raises(ConfigError):
            compare([tiny_config()])

    def test_mixed_tasks_rejected(self):
        with pytest.raises(ConfigError):
            compare(
                [
                    tiny_config(),
                    tiny_config(model="nn", task="regression", epochs=5),
                ]
            )

    def test_two_classifiers_tabulated(self, tmp_path):
        configs = [
            tiny_config(model="nn", epochs=20),
            tiny_config(model="svc"),
        ]
        text, csv_text, reports = compare(configs, out_dir=str(tmp_path))
        lines = text.strip().splitlines()
        assert lines[0].split()[:2] == ["model", "n_parameters"]
        assert lines[2].split()[0] == "nn"
        assert lines[3].split()[0] == "svc"
        csv_rows = csv_text.strip().splitlines()
        assert csv_rows[0].startswith("model,n_parameters,train_accuracy")
        assert csv_rows[1].split(",")[0] == "nn"
        assert csv_rows[2].split(",")[0] == "svc"
        assert (tmp_path / "comparison.txt").exists()
        assert (tmp_path / "comparison.csv").exists()
        assert len(reports) == 2
        assert csv_rows[1].split(",")[1] == str(reports[0].n_parameters)

    def test_two_regressors_tabulated(self, tmp_path):
        configs = [
            tiny_config(model="nn", task="regression", epochs=5),
            tiny_config(model="lstm", task="regression", epochs=3),
        ]
        _, csv_text, reports = compare(configs, out_dir=str(tmp_path))
        assert (tmp_path / "comparison.csv").read_text() == csv_text
        header, *rows = [line.split(",") for line in csv_text.splitlines()]
        # the columns are the metrics run wrote, in its order
        columns = [
            "train_mse_scaled", "test_mse_scaled", "train_mse_kelvin", "test_mse_kelvin"
        ]
        assert header == ["model", "n_parameters"] + columns
        assert [list(rep.metrics) for rep in reports] == [columns, columns]
        for row, cfg, rep in zip(rows, configs, reports, strict=True):
            assert row[:2] == [cfg.model, str(rep.n_parameters)]
            assert dict(zip(columns, map(float, row[2:]), strict=True)) == rep.metrics

    def test_order_follows_input(self):
        configs = [
            tiny_config(model="svc"),
            tiny_config(model="nn", epochs=20),
        ]
        text, _, _ = compare(configs)
        lines = text.strip().splitlines()
        assert lines[2].split()[0] == "svc"
        assert lines[3].split()[0] == "nn"


class TestPlotData:
    def test_regression_round_trip(self, tmp_path):
        rep = run(tiny_config(model="nn", task="regression", epochs=10))
        path = tmp_path / "series.csv"
        emit_plot_data(rep, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,actual_K,predicted_K"
        assert len(lines) == 1 + len(rep.predictions)
        parsed = [line.split(",") for line in lines[1:]]
        for (t, a, p), row in zip(parsed, rep.predictions):
            assert t == row[0]
            assert float(a) == row[1]
            assert float(p) == row[2]

    def test_classification_needs_probabilities_flag(self, tmp_path):
        rep = run(tiny_config())
        with pytest.raises(NoPredictionsError):
            emit_plot_data(rep, str(tmp_path / "x.csv"))

    def test_probabilities_written_when_available(self, tmp_path):
        rep = run(tiny_config(model="nn", epochs=20))
        path = tmp_path / "probs.csv"
        emit_plot_data(rep, str(path), probabilities=True)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,actual,p_0,p_1"
        values = [float(v) for v in lines[1].split(",")[2:]]
        assert abs(sum(values) - 1.0) < 1e-9

    def test_svm_report_has_no_probabilities(self, tmp_path):
        rep = run(tiny_config())
        with pytest.raises(NoPredictionsError):
            emit_plot_data(rep, str(tmp_path / "x.csv"), probabilities=True)
