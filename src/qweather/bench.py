"""Experiment harness: data to trained model to report files.

A run stages ingest, correlate, select, scale, split, train, and evaluate
for one (model, task) pair, then writes diff-able artifacts: config.json,
report.json, predictions.csv, loss_history.csv.  Reports are byte-stable
for a fixed config and seed; wall time is measured but kept out of
report.json so repeated runs stay identical, landing in timing.json
instead, with the wall time of each stage.

Each model is one ``ModelSpec`` entry in ``MODELS``: the tasks it
supports, its default knobs, whether it trains on windows or on rows, and
the function that fits it.  Every fit function builds its model from the
config's seed; the trainers start from the parameters they are handed.

A regression target has one scale: the harness min-max scales the target
column on the training slice, every regression model trains on and
predicts in that [0, 1] space, and ``*_mse_scaled`` is measured there.
Kelvin metrics and predictions map the model's outputs back with the same
scaler and compare them with the dataset's own target values.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable

import numpy as np

from .circuits import (
    Circuit,
    build_reuploading_ising,
    build_reuploading_sel,
    build_zz_feature_map,
    circuit_from_name,
)
from .models_qnn import (
    DenseBaseline,
    QnnModel,
    VqcClassifier,
    build_dense_baseline,
    build_qnn,
    build_vqc_classifier,
    dense_predict,
    dense_train,
    qnn_predict,
    qnn_train,
    vqc_probabilities,
    vqc_train,
)
from .models_recurrent import (
    ClassicalRnnBaseline,
    QgruCell,
    QlstmCell,
    build_classical_gru,
    build_classical_lstm,
    build_qgru,
    build_qlstm,
    make_windows,
    sequence_forward,
    train_sequence_model,
)
from .qkernel import (
    KernelMachine,
    default_gamma,
    kernel_machine_predict,
    kernel_machine_train,
)
from .weather import (
    DataFormatError,
    Dataset,
    bin_target,
    correlation_report,
    load_csv,
    scale,
    select_features,
    synth_generate,
)


class ConfigError(Exception):
    """The experiment configuration is invalid."""


class NoPredictionsError(Exception):
    """The report holds class labels, not a plottable prediction series."""


class PipelineError(Exception):
    """A pipeline stage failed; carries the stage name and original error."""

    def __init__(self, stage, cause):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


DENSE_BUDGETS = {3: 21, 4: 48}


@dataclass(frozen=True)
class Fitted:
    """A trained model as the harness scores it.

    ``score`` maps a batch, which ``run`` makes of every row at once, to
    values in the [0, 1] space of the scaled targets the fit was given, to
    labels (a ``KernelMachine``), or to (n, n_classes) class probabilities,
    whose argmax ``run`` takes as the labels, ties to the lowest class.
    """

    score: Callable
    n_params: int
    details: dict
    history: list


# The fit functions call other modules' functions through this module's
# globals, not through references held in MODELS, so rebinding those names
# (as an outside tracer does) reaches every call.


def _ising_circuit(cfg, n_feats):
    if n_feats != 3:
        raise ValueError(
            f"the Ising circuit encodes exactly 3 features, selection gave {n_feats}"
        )
    return build_reuploading_ising(3, cfg.n_layers)


def _sel_circuit(cfg, n_feats):
    return build_reuploading_sel(n_feats, cfg.n_layers)


def _fit_qnn(circuit_for, cfg, X_train, y_train):
    circuit = circuit_for(cfg, X_train.shape[1])
    model = build_qnn(circuit, cfg.task, seed=cfg.seed)
    model, history = qnn_train(model, (X_train, y_train), epochs=cfg.epochs, lr=cfg.lr)
    return Fitted(
        score=lambda X: qnn_predict(model, X),
        n_params=circuit.n_trainable,
        details={"circuit": circuit.name, "lr": cfg.lr},
        history=history,
    )


def _fit_vqc(cfg, X_train, y_train):
    n_classes = 3 if cfg.task == "ternary" else 2
    clf = build_vqc_classifier(X_train.shape[1], n_classes, seed=cfg.seed)
    clf, history = vqc_train(clf, (X_train, y_train), iters=cfg.iters)
    return Fitted(
        score=lambda X: vqc_probabilities(clf, X),
        n_params=clf.ansatz.n_trainable,
        details={
            "feature_map": clf.feature_map.name,
            "ansatz": clf.ansatz.name,
            "readout_rule": clf.readout_rule,
        },
        history=history,
    )


def _fit_nn(cfg, X_train, y_train):
    n_feats = X_train.shape[1]
    if n_feats not in DENSE_BUDGETS:
        raise ValueError(f"no parameter budget defined for {n_feats} features")
    budget = DENSE_BUDGETS[n_feats]
    model = build_dense_baseline(budget, n_feats, cfg.task, seed=cfg.seed)
    model, history = dense_train(model, (X_train, y_train), epochs=cfg.epochs, lr=cfg.lr)
    return Fitted(
        score=lambda X: dense_predict(model, X),
        n_params=budget,
        details={"layer_sizes": list(model.layer_sizes), "budget": budget, "lr": cfg.lr},
        history=history,
    )


def _fit_kernel_machine(kernel, cfg, X_train, y_train):
    # "rbf" of the configured or default width, or the ZZ feature map
    if kernel == "rbf":
        gamma = default_gamma(X_train) if cfg.gamma is None else cfg.gamma
    else:
        kernel, gamma = build_zz_feature_map(X_train.shape[1], 1).name, None
    machine, solves = kernel_machine_train(X_train, y_train, kernel, gamma, C=cfg.C)
    n_support = int(np.count_nonzero(machine.coefficients))
    # one machine reports its solve's figures bare, several as lists
    iters, gaps = [s.n_iter for s in solves], [s.kkt_gap for s in solves]
    if len(solves) == 1:
        (iters,), (gaps,) = iters, gaps
    details = {"feature_map": kernel} if gamma is None else {"gamma": gamma}
    details.update(smo_iterations=iters, smo_gap=gaps, C=cfg.C, n_support=n_support)
    return Fitted(
        score=lambda X: kernel_machine_predict(machine, X),
        n_params=n_support,
        details=details,
        history=[],
    )


def _fit_recurrent(build, cfg, X_train, y_train):
    model = build(cfg, X_train.shape[2])
    if hasattr(model, "circuit"):
        details = dict(circuit=model.circuit.name, n_circuit_params=model.n_circuit_params)
    else:
        details = {"hidden_size": model.hidden_size}
    model, history = train_sequence_model(
        model, X_train, y_train, epochs=cfg.epochs, lr=cfg.lr
    )
    details.update(window=cfg.window, lr=cfg.lr)
    return Fitted(
        score=lambda X: sequence_forward(model, X),
        n_params=model.params.size,
        details=details,
        history=history,
    )


@dataclass(frozen=True)
class ModelSpec:
    """One model: the tasks it supports, its defaults and how it is fitted.

    ``fit(cfg, X_train, y_train)`` takes a normalized config and returns a
    ``Fitted``.  A ``windows`` model trains on (n, window, features) arrays;
    the others train on feature rows.
    Defaults left None stay unset in the config.
    """

    tasks: tuple
    fit: Callable
    scaling: str = "standard"
    epochs: int | None = None
    iters: int | None = None
    lr: float | None = None
    n_layers: int | None = None
    windows: bool = False


_ANY_TASK = ("regression", "binary", "ternary")
_CLASSIFY = ("binary", "ternary")
_REGRESS = ("regression",)

# angle-embedding feature maps want inputs in [0, 1]; everything else
# trains on standardized features
MODELS = {
    "qnn-ising": ModelSpec(
        _ANY_TASK, partial(_fit_qnn, _ising_circuit), epochs=150, lr=0.1, n_layers=2
    ),
    "qnn-sel": ModelSpec(
        _ANY_TASK, partial(_fit_qnn, _sel_circuit), epochs=150, lr=0.1, n_layers=4
    ),
    "vqc": ModelSpec(_CLASSIFY, _fit_vqc, scaling="minmax", iters=150),
    "qsvm": ModelSpec(
        _CLASSIFY, partial(_fit_kernel_machine, "zz_feature_map"), scaling="minmax"
    ),
    "svc": ModelSpec(_CLASSIFY, partial(_fit_kernel_machine, "rbf"), scaling="minmax"),
    "nn": ModelSpec(_ANY_TASK, _fit_nn, epochs=300, lr=0.05),
    "qlstm": ModelSpec(
        _REGRESS,
        partial(
            _fit_recurrent, lambda cfg, d: build_qlstm(d, 4, cfg.n_layers, seed=cfg.seed)
        ),
        epochs=50, lr=0.05, n_layers=2, windows=True,
    ),
    "qgru": ModelSpec(
        _REGRESS,
        partial(
            _fit_recurrent, lambda cfg, d: build_qgru(d, 4, cfg.n_layers, seed=cfg.seed)
        ),
        epochs=20, lr=0.05, n_layers=2, windows=True,
    ),
    "lstm": ModelSpec(
        _REGRESS,
        partial(_fit_recurrent, lambda cfg, d: build_classical_lstm(d, 8, seed=cfg.seed)),
        epochs=150, lr=0.02, windows=True,
    ),
    "gru": ModelSpec(
        _REGRESS,
        partial(_fit_recurrent, lambda cfg, d: build_classical_gru(d, 16, seed=cfg.seed)),
        epochs=150, lr=0.02, windows=True,
    ),
}

MODEL_TASKS = {name: spec.tasks for name, spec in MODELS.items()}

# config fields whose None means "the model's default"
_DEFAULTED = ("scaling", "epochs", "iters", "lr", "n_layers")


def _check_number(name, value, kind):
    """Raise ConfigError unless ``value`` is an int, or for a "float" knob
    an int or a finite float; a bool is neither."""
    types = int if kind == "int" else (int, float)
    if isinstance(value, bool) or not isinstance(value, types) or (
        isinstance(value, float) and not math.isfinite(value)
    ):
        article = "an integer" if kind == "int" else "a finite number"
        raise ConfigError(f"{name} must be {article}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    task: str
    data: dict
    selection: dict = field(default_factory=lambda: {"threshold": 0.8})
    scaling: str | None = None
    split_fraction: float = 0.8
    window: int = 4
    epochs: int | None = None
    iters: int | None = None
    lr: float | None = None
    n_layers: int | None = None
    C: float = 1.0
    gamma: float | None = None
    seed: int = 0

    def __post_init__(self):
        # an int or float knob holds its annotated type; one that defaults
        # to None may stay None
        for f in fields(self):
            kind, _, optional = f.type.partition(" | ")
            value = getattr(self, f.name)
            if kind in ("int", "float") and not (optional and value is None):
                _check_number(f.name, value, kind)
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.task not in MODELS[self.model].tasks:
            raise ConfigError(
                f"model {self.model!r} does not support task {self.task!r}"
            )
        kind = self.data.get("kind") if isinstance(self.data, dict) else None
        if kind == "synth":
            extra = set(self.data) - {"kind", "seed", "n_months"}
            if extra or "seed" not in self.data:
                raise ConfigError(f"bad synth data spec {self.data!r}")
            for key in ("seed", "n_months"):
                if key in self.data:
                    _check_number(f"data.{key}", self.data[key], "int")
        elif kind == "csv":
            if set(self.data) != {"kind", "path"}:
                raise ConfigError(f"bad csv data spec {self.data!r}")
            # load_csv would read an int as an open file descriptor
            path = self.data["path"]
            if not isinstance(path, str) or not path:
                raise ConfigError(f"data.path must be a non-empty string, got {path!r}")
        else:
            raise ConfigError("data kind must be 'synth' or 'csv'")
        if not isinstance(self.selection, dict) or len(self.selection) != 1 or not (
            set(self.selection) <= {"threshold", "top_k"}
        ):
            raise ConfigError("selection must set exactly one of threshold or top_k")
        ((key, value),) = self.selection.items()
        _check_number(f"selection.{key}", value, "int" if key == "top_k" else "float")
        if self.scaling not in (None, "standard", "minmax"):
            raise ConfigError(f"unknown scaling method {self.scaling!r}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError("split_fraction must be in (0, 1)")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.C <= 0:
            raise ConfigError("C must be positive")
        for name in ("epochs", "iters", "n_layers"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.lr is not None and self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.gamma is not None and self.gamma <= 0:
            raise ConfigError("gamma must be positive")


def normalized(config: ExperimentConfig) -> ExperimentConfig:
    """Fill every defaulted knob so reports echo the values actually used."""
    spec = MODELS[config.model]
    updates = {
        name: getattr(spec, name)
        for name in _DEFAULTED
        if getattr(config, name) is None and getattr(spec, name) is not None
    }
    return replace(config, **updates) if updates else config


def config_to_dict(config: ExperimentConfig) -> dict:
    return {f.name: getattr(config, f.name) for f in fields(ExperimentConfig)}


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {"model", "task", "data"} - set(doc)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    try:
        return ExperimentConfig(**doc)
    except TypeError as err:
        raise ConfigError(str(err)) from err


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from err
    return config_from_dict(doc)


# report.json keys; "probabilities" may also be null or absent
_REPORT_KEYS = (
    "config", "n_parameters", "selected_features", "details", "metrics",
    "loss_history", "n_train", "n_test", "predictions",
)


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    n_parameters: int
    selected_features: tuple
    details: dict
    metrics: dict
    loss_history: tuple
    n_train: int
    n_test: int
    predictions: tuple
    probabilities: tuple | None
    wall_time_s: float
    # seconds per stage name, in run order; like wall_time_s, not reported
    stages: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        # wall time deliberately excluded: identical configs must produce
        # byte-identical report documents
        return {key: getattr(self, key) for key in _REPORT_KEYS + ("probabilities",)}


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(report.as_dict(), sort_keys=True, indent=1)


def _report_list(doc, key, of_rows=False):
    """``doc[key]`` as a tuple, of row tuples if ``of_rows``."""
    value = doc[key]
    if not isinstance(value, list) or (
        of_rows and not all(isinstance(row, list) for row in value)
    ):
        raise DataFormatError(f"report {key} must be a list{' of rows' * of_rows}")
    return tuple(map(tuple, value)) if of_rows else tuple(value)


def _numbers(values) -> bool:
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)


def report_from_json(text: str) -> ExperimentReport:
    """The report a report.json document holds; DataFormatError names what
    is not JSON, missing or malformed."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise DataFormatError(f"report is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise DataFormatError(f"report must be a JSON object, got {type(doc).__name__}")
    missing = [key for key in _REPORT_KEYS if key not in doc]
    if missing:
        raise DataFormatError(f"report lacks {', '.join(missing)}")
    values = {key: doc[key] for key in _REPORT_KEYS}
    if not isinstance(values["config"], dict):
        raise DataFormatError("report config must be a JSON object")
    if values["config"].get("task") not in _ANY_TASK:
        raise DataFormatError("report config task must be regression, binary or ternary")
    values["selected_features"] = _report_list(doc, "selected_features")
    values["loss_history"] = _report_list(doc, "loss_history")
    rows = values["predictions"] = _report_list(doc, "predictions", of_rows=True)
    if not all(len(r) == 3 and isinstance(r[0], str) and _numbers(r[1:]) for r in rows):
        raise DataFormatError("each report predictions row must be a time and two numbers")
    values["probabilities"] = None
    if doc.get("probabilities") is not None:
        probs = values["probabilities"] = _report_list(doc, "probabilities", of_rows=True)
        if len(probs) != len(rows):
            raise DataFormatError("report probabilities must have one row per prediction")
        if len({len(p) for p in probs}) > 1 or not all(map(_numbers, probs)):
            raise DataFormatError("report probability rows must be numbers of one length")
    return ExperimentReport(**values, wall_time_s=float("nan"))


# the classes a model document may name
_MODEL_CLASSES = {cls.__name__: cls for cls in (
    QnnModel, VqcClassifier, DenseBaseline, QlstmCell, QgruCell, ClassicalRnnBaseline,
    KernelMachine,
)}
# a field's reader by its annotation, which the model modules keep as a
# string; JSON holds the other fields as they are
_FIELD_READERS = {
    "Circuit": circuit_from_name,
    "np.ndarray": partial(np.asarray, dtype=float),
    "tuple": tuple,
}


def model_to_json(model) -> str:
    """A trained model's document: its class name under "class" and each
    dataclass field under its own name, a circuit by its descriptor."""
    doc = {"class": type(model).__name__}
    for f in fields(model):
        value = getattr(model, f.name)
        if isinstance(value, Circuit):
            value = value.name
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        doc[f.name] = value
    return json.dumps(doc, sort_keys=True)


def model_from_json(text: str):
    """The model a ``model_to_json`` document holds.  ValueError names an
    unknown class or a key set that is not the class's fields; the model's
    own checks reject values that do not fit together."""
    doc = json.loads(text)
    name = doc.get("class") if isinstance(doc, dict) else None
    if not isinstance(name, str) or name not in _MODEL_CLASSES:
        raise ValueError(f"unknown model class {name!r}")
    cls = _MODEL_CLASSES[name]
    keys = {"class"} | {f.name for f in fields(cls)}
    if set(doc) != keys:
        raise ValueError(f"a {name} document holds exactly the keys {sorted(keys)}")
    read = {f.name: _FIELD_READERS.get(f.type, lambda v: v) for f in fields(cls)}
    return cls(**{key: read[key](doc[key]) for key in read})


def _stage(stages, name, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with its errors tagged by the stage name and
    its wall time added to ``stages[name]``."""
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except Exception as err:
        raise PipelineError(name, err) from err
    finally:
        stages[name] = stages.get(name, 0.0) + time.perf_counter() - start


def _load_dataset(data_spec) -> Dataset:
    if data_spec["kind"] == "synth":
        return synth_generate(data_spec["seed"], data_spec.get("n_months", 1000))
    dataset, _ = load_csv(data_spec["path"])
    return dataset


def _accuracy(pred, truth) -> float:
    return float(np.mean(np.asarray(pred) == np.asarray(truth)))


def _mse(a, b) -> float:
    return float(np.mean((np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) ** 2))


def _prepare(stages, cfg, dataset, feats, split):
    """(X, y, rows, scaler): the model inputs, feature rows or windows of
    past rows; the targets the fit is handed, class labels or temperatures
    min-max scaled on the training slice; rows[i], the dataset row whose
    target y[i] is; and the target's scaler, None for labels."""
    scaled = _stage(stages, "scale", scale, dataset, feats, cfg.scaling, split)
    scaler = None
    if cfg.task == "regression":
        target = dataset.target_name
        scaled = _stage(stages, "scale", scale, scaled, [target], "minmax", split)
        y, scaler = scaled.target(), scaled.scaling_state[target]
    else:
        y = _stage(stages, "bin", bin_target, dataset.target(), cfg.task)
    X = scaled.feature_matrix(feats)
    if not MODELS[cfg.model].windows:
        return X, y, np.arange(dataset.n_rows), scaler
    X, y = _stage(stages, "window", make_windows, X, y, cfg.window)
    rows = np.arange(cfg.window, dataset.n_rows)
    if not rows[0] < split <= rows[-1]:
        raise PipelineError(
            "window", ValueError("split leaves an empty train or test window set")
        )
    return X, y, rows, scaler


def run(config: ExperimentConfig, out_dir=None) -> ExperimentReport:
    """Execute one experiment, scoring every row in one call, and optionally
    write its artifact directory."""
    cfg = normalized(config)
    spec = MODELS[cfg.model]
    started = time.perf_counter()
    stages = {}
    dataset = _stage(stages, "ingest", _load_dataset, cfg.data)
    corr = _stage(stages, "correlate", correlation_report, dataset)
    feats = _stage(stages, "select", select_features, corr, **cfg.selection)
    split = int(math.floor(dataset.n_rows * cfg.split_fraction))
    X, y, rows, scaler = _prepare(stages, cfg, dataset, feats, split)
    train = rows < split
    fitted = _stage(stages, "train", spec.fit, cfg, X[train], y[train])
    pred = fitted.score(X)
    probabilities = None
    if pred.ndim == 2:
        # class probabilities: the labels are each row's argmax
        probabilities = tuple(tuple(float(v) for v in row) for row in pred[~train])
        pred = np.argmax(pred, axis=1)
    actual, predicted, metric, value = y, pred, _accuracy, int
    compared = {"accuracy": (pred, y)}
    if scaler is not None:
        actual, predicted = dataset.target()[rows], scaler.inverse(pred)
        compared = {"mse_scaled": (pred, y), "mse_kelvin": (predicted, actual)}
        metric, value = _mse, float
    metrics = {
        f"{part}_{name}": metric(a[mask], b[mask])
        for name, (a, b) in compared.items()
        for part, mask in (("train", train), ("test", ~train))
    }
    predictions = tuple(
        (dataset.time[r], value(a), value(p))
        for r, a, p in zip(rows[~train], actual[~train], predicted[~train])
    )
    if not all(np.isfinite(v) for v in metrics.values()):
        raise PipelineError("evaluate", ValueError("non-finite metric produced"))
    report = ExperimentReport(
        config=config_to_dict(cfg),
        n_parameters=int(fitted.n_params),
        selected_features=tuple(feats),
        details=fitted.details,
        metrics=metrics,
        loss_history=tuple(float(v) for v in fitted.history),
        n_train=int(train.sum()),
        n_test=int((~train).sum()),
        predictions=predictions,
        probabilities=probabilities,
        wall_time_s=time.perf_counter() - started,
        stages=stages,
    )
    if out_dir is not None:
        write_run_artifacts(report, out_dir)
    return report


def _write_files(out_dir, files) -> None:
    """Write each (name, text) pair as a UTF-8 file in ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files:
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def write_run_artifacts(report: ExperimentReport, out_dir) -> None:
    timing = {"wall_time_s": report.wall_time_s, "stages": report.stages}
    _write_files(out_dir, [
        ("config.json", json.dumps(report.config, sort_keys=True, indent=1) + "\n"),
        ("report.json", report_to_json(report) + "\n"),
        ("predictions.csv", _csv(["time", "actual", "predicted"], report.predictions)),
        ("loss_history.csv", _csv(["epoch", "loss"], enumerate(report.loss_history))),
        ("timing.json", json.dumps(timing) + "\n"),
    ])


def _fmt(value):
    # repr round-trips floats exactly; integers (bools among them) print bare
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _csv(header, rows) -> str:
    """CSV text of a header and rows: strings as they are, numbers through
    ``_fmt``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def compare(configs, out_dir=None):
    """Run several configs on one task and tabulate them side by side.

    Returns (text_table, csv_text, reports); model order follows the input.
    """
    if len(configs) < 2:
        raise ConfigError("compare needs at least two configurations")
    tasks = {c.task for c in configs}
    if len(tasks) != 1:
        raise ConfigError(f"compare needs a shared task, got {sorted(tasks)}")
    reports = []
    for i, cfg in enumerate(configs):
        sub = (
            os.path.join(out_dir, f"run{i:02d}_{cfg.model}")
            if out_dir is not None
            else None
        )
        reports.append(run(cfg, out_dir=sub))
    # the metrics run wrote for the task, in its order
    columns = list(reports[0].metrics)
    header = ["model", "n_parameters"] + columns
    rows = [
        [cfg.model, rep.n_parameters] + [rep.metrics[c] for c in columns]
        for cfg, rep in zip(configs, reports)
    ]
    cells = [header] + [
        [model, str(n_parameters)] + [f"{v:.4f}" for v in values]
        for model, n_parameters, *values in rows
    ]
    widths = [max(len(cell) for cell in column) for column in zip(*cells)]
    cells.insert(1, ["-" * width for width in widths])
    text = "".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)) + "\n"
        for line in cells
    )
    csv_text = _csv(header, rows)
    if out_dir is not None:
        _write_files(out_dir, [("comparison.txt", text), ("comparison.csv", csv_text)])
    return text, csv_text, reports


def emit_plot_data(report: ExperimentReport, path, probabilities: bool = False):
    """Write the prediction series (or class probabilities) as CSV."""
    if probabilities:
        if not report.probabilities:
            raise NoPredictionsError("this report carries no class probabilities")
        n_classes = len(report.probabilities[0])
        header = ["time", "actual"] + [f"p_{c}" for c in range(n_classes)]
        rows = [
            (when, actual, *probs)
            for (when, actual, _), probs in zip(report.predictions, report.probabilities)
        ]
    else:
        if report.config.get("task") != "regression":
            raise NoPredictionsError(
                "classification reports hold labels; request probabilities instead"
            )
        if not report.predictions:
            raise NoPredictionsError("report contains no predictions")
        header = ["time", "actual_K", "predicted_K"]
        rows = sorted(report.predictions, key=lambda r: r[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_csv(header, rows))
