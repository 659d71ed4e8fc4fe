"""Workload definitions and the correctness check for the qweather benchmark.

Each workload is a list of experiment configs that one benchmark process
runs one after another through ``qweather.bench.run``, the path the
``qweather run`` CLI takes.  All of them use the synthetic series and
feature selection at threshold 0.8 (three features); the data seed and the
model seed are arguments.
"""

from __future__ import annotations

import json
import math
import os

DEFAULT_DATA_SEED = 7
DEFAULT_MODEL_SEED = 1
# Model seeds with stored reference values (data seed 7).  Seed 1 is the
# default; seed 2 is held out and was not used while sizing the workloads.
REFERENCE_SEEDS = (1, 2)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# (model, task, n_months, extra config fields).  Adam's first step is
# lr * sign(g), so only a loss or metric taken after the second step shows
# whether the gradient's magnitude is right.  Regression metrics are taken
# after the last step and are continuous, so two epochs suffice; accuracies
# are too coarse, so classifiers train three epochs and the loss history
# holds the loss after step two.
WORKLOADS = {
    # Gradient path with input and parameter Jacobians plus full BPTT.
    # 156 training windows x 64 shifts x 16 amplitudes of complex128 is
    # about 2.5 MB per state array, more than one core's 2 MiB L2.  The two
    # kernel machines ride on the same series so that the SMO layer is
    # measured: on their own, their pure-Python SMO loop swings with the
    # shared machine's speed by more than a 25% bound can absorb.
    "recurrent": [
        ("qlstm", "regression", 200, {"epochs": 2}),
        ("qgru", "regression", 200, {"epochs": 2}),
        ("lstm", "regression", 200, {"epochs": 3}),
        ("gru", "regression", 200, {"epochs": 3}),
        ("qsvm", "binary", 200, {}),
        ("svc", "ternary", 200, {}),
    ],
    # Trainable-only Jacobians: few, very wide batches (800 rows x 72
    # shifts x 8 amplitudes for qnn-sel).
    "reupload": [
        ("qnn-sel", "binary", 1000, {"epochs": 3}),
        ("qnn-ising", "ternary", 1000, {"epochs": 3}),
        ("nn", "binary", 1000, {"epochs": 3}),
    ],
    # Forward-only reads of 800 rows x 8 amplitudes under COBYLA:
    # thousands of small calls, so per-call overhead dominates.
    "vqc": [
        ("vqc", "binary", 1000, {"iters": 100}),
        ("vqc", "ternary", 1000, {"iters": 100}),
    ],
}

# Sizes for the benchmark's own tests: the same models at a few seconds.
TINY = {"n_months": 60, "epochs": 3, "iters": 5}

# Relative tolerance on float metrics and loss histories.  A last-bit change
# in every gradient moves them by under 1e-15; a wrong gradient moves the
# loss after the second step by far more.
REL_TOL = 1e-6
ABS_TOL = 1e-12


def configs(workload, data_seed=DEFAULT_DATA_SEED, model_seed=DEFAULT_MODEL_SEED, tiny=False):
    """ExperimentConfigs of one workload, in run order."""
    from qweather.bench import ExperimentConfig

    out = []
    for model, task, n_months, extra in WORKLOADS[workload]:
        extra = dict(extra)
        if tiny:
            n_months = TINY["n_months"]
            extra = {k: TINY[k] for k in extra}
        out.append(
            ExperimentConfig(
                model=model,
                task=task,
                data={"kind": "synth", "seed": data_seed, "n_months": n_months},
                selection={"threshold": 0.8},
                seed=model_seed,
                **extra,
            )
        )
    return out


def run_key(cfg):
    """Identifier of one model run: workload-independent and seed-specific."""
    data = cfg.data
    return f"{cfg.model}/{cfg.task}/n{data['n_months']}/data{data['seed']}/seed{cfg.seed}"


def load_references():
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def reference_entry(report):
    """The values of a report that the correctness check compares."""
    return {
        "metrics": dict(report["metrics"]),
        "loss_history": list(report["loss_history"]),
    }


def _close(a, b):
    return abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))


def check_report(report, reference=None):
    """Problems found in one run's report; an empty list means it passed.

    Every metric and loss value must be finite.  With a reference, float
    metrics and the full loss history must match to ``REL_TOL``.  Accuracy
    metrics may differ by one test or training sample: the kernel machines
    and COBYLA make discrete choices that a last-bit change can flip for a
    point on the margin, and that is not a wrong result.
    """
    problems = []
    metrics = report["metrics"]
    history = report["loss_history"]
    for name, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is not finite: {value!r}")
    if not all(math.isfinite(v) for v in history):
        problems.append("loss history holds a non-finite value")
    if reference is None:
        return problems
    if set(metrics) != set(reference["metrics"]):
        problems.append(f"metric names {sorted(metrics)} differ from the reference")
        return problems
    for name, ref in reference["metrics"].items():
        value = metrics[name]
        if name.endswith("accuracy"):
            n = report["n_train"] if name.startswith("train") else report["n_test"]
            ok = abs(value - ref) <= 1.0 / n + ABS_TOL
        else:
            ok = _close(value, ref)
        if not ok:
            problems.append(f"metric {name} = {value!r}, reference {ref!r}")
    ref_history = reference["loss_history"]
    if len(history) != len(ref_history):
        problems.append(
            f"loss history has {len(history)} entries, reference {len(ref_history)}"
        )
    else:
        for i, (value, ref) in enumerate(zip(history, ref_history)):
            if not _close(value, ref):
                problems.append(f"loss_history[{i}] = {value!r}, reference {ref!r}")
                break
    return problems
