"""Tests of the benchmark itself: tracer self-test and correctness check.

Run from the root of a checkout with ``python -m pytest -q perfbench``.
Every workload runs here at tiny sizes (``workloads.TINY``).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import qweather.bench  # noqa: E402
import qweather.models_qnn  # noqa: E402
import run as perfrun  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import WORKLOADS, check_report, configs, reference_entry, run_key  # noqa: E402

# The wrapped functions each workload is meant to exercise; the per-layer
# metrics read their spans and counts.
EXERCISED = {
    "recurrent": [
        "bench.run",
        "weather.synth_generate",
        "weather.correlation_report",
        "weather.select_features",
        "weather.scale",
        "models_recurrent.make_windows",
        "models_recurrent.train_sequence_model",
        "models_recurrent.sequence_loss_and_grad",
        "models_recurrent.sequence_forward",
        "autodiff.expectation_jacobian_pair",
        "autodiff.expectation_batch",
        "circuits.run_circuit_batch",
        "qsim.apply_matrix",
        "qsim.gate_matrix",
        "optim.adam_step",
        "qkernel.fidelity_kernel",
        "qkernel.embed_states",
        "qkernel.rbf_kernel",
        "qkernel.default_gamma",
        "qkernel.svm_train",
        "qkernel.ovr_train",
        "qkernel.svm_decision",
        "qkernel.ovr_decision",
    ],
    "reupload": [
        "weather.bin_target",
        "models_qnn.qnn_train",
        "models_qnn.qnn_expectations",
        "models_qnn.dense_train",
        "autodiff.expectation_jacobian",
        "autodiff.expectation_batch",
        "circuits.run_circuit_batch",
        "qsim.apply_matrix",
        "optim.adam_step",
    ],
    "vqc": [
        "models_qnn.vqc_train",
        "models_qnn.vqc_probabilities",
        "models_qnn.objective",
        "optim.cobyla_minimize",
        "circuits.run_circuit_batch",
        "qsim.apply_matrix",
    ],
}


def _module_state():
    """Every function-valued attribute of every loaded qweather module."""
    return {
        (name, attr): obj
        for name, module in list(sys.modules.items())
        if module is not None and (name == "qweather" or name.startswith("qweather."))
        for attr, obj in vars(module).items()
        if callable(obj)
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracer_self_test(workload, tmp_path):
    before = _module_state()
    runner = perfrun.Runner(workload, configs(workload, tiny=True), {}, str(tmp_path))
    runner.iteration("untraced")
    tracer = tracer_mod.Tracer()
    with tracer:
        assert tracer.patches
        run_s = runner.iteration("traced")
        spans = list(tracer.spans)
        metrics = tracer.layer_metrics(run_s)
        calls = dict(tracer.calls)
    # traced and untraced runs wrote byte-identical reports
    assert runner.failed == 0 and runner.attempted == 2 * len(runner.cfgs)

    missing = [key for key in EXERCISED[workload] if calls.get(key, 0) < 1]
    assert not missing, f"no calls recorded for {missing}"

    for index, (name, start, end, parent) in enumerate(spans):
        assert start <= end, name
        if parent >= 0:
            assert parent < index
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, (name, spans[parent][0])
        else:
            assert name == "bench.run"
    assert abs(metrics["trace.coverage"] - 1.0) < 0.03

    after = _module_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    traced = set(tracer_mod.Tracer().layer_metrics(1.0))
    traced |= {"proc.cpu_s", "proc.cores_used", "trace.overhead"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: perfrun._unit(name) for name in traced
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "setup_s": "s",
        "run_s": "s",
        "peak_rss_mb": "MiB",
    }
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.fixture(scope="module")
def qnn_report():
    cfg = configs("reupload", tiny=True)[0]
    return cfg, qweather.bench.run(cfg).as_dict()


def _perturbed(report, path, factor):
    doc = json.loads(json.dumps(report))
    section, key = path
    doc[section][key] *= factor
    return doc


def test_check_passes_on_its_reference(qnn_report):
    _, report = qnn_report
    assert check_report(report, reference_entry(report)) == []


def test_check_allows_last_bit_changes(qnn_report):
    _, report = qnn_report
    ref = reference_entry(report)
    doc = json.loads(json.dumps(report))
    doc["loss_history"] = [float(np.nextafter(v, np.inf)) for v in doc["loss_history"]]
    assert check_report(doc, ref) == []


@pytest.mark.parametrize(
    "path", [("loss_history", 1), ("loss_history", 0), ("metrics", "train_accuracy")]
)
def test_check_fails_perturbed_output(qnn_report, path):
    _, report = qnn_report
    ref = reference_entry(report)
    factor = 1.5 if path[0] == "metrics" else 1.0 + 1e-4
    assert check_report(_perturbed(report, path, factor), ref)


def test_check_allows_one_sample_of_accuracy(qnn_report):
    _, report = qnn_report
    ref = reference_entry(report)
    doc = json.loads(json.dumps(report))
    doc["metrics"]["test_accuracy"] += 1.0 / doc["n_test"]
    assert check_report(doc, ref) == []
    doc["metrics"]["test_accuracy"] += 1.0 / doc["n_test"]
    assert check_report(doc, ref)


def test_check_fails_non_finite(qnn_report):
    _, report = qnn_report
    doc = json.loads(json.dumps(report))
    doc["loss_history"][0] = math.nan
    assert check_report(doc)


def test_check_catches_a_wrong_gradient(qnn_report, monkeypatch):
    cfg, report = qnn_report
    ref = reference_entry(report)
    adam_step = qweather.models_qnn.adam_step

    def skewed(state, params, grad):
        grad = np.array(grad, dtype=float)
        grad[0] += 0.1 * np.max(np.abs(grad))
        return adam_step(state, params, grad)

    monkeypatch.setattr(qweather.models_qnn, "adam_step", skewed)
    assert check_report(qweather.bench.run(cfg).as_dict(), ref)


def test_runner_counts_a_perturbed_run_as_failed(qnn_report, tmp_path, monkeypatch):
    cfg, report = qnn_report
    references = {run_key(cfg): reference_entry(report)}
    runner = perfrun.Runner("reupload", [cfg], references, str(tmp_path))
    runner.iteration("untraced")
    assert (runner.attempted, runner.failed) == (1, 0)
    write = qweather.bench.write_run_artifacts

    def perturbed_write(rep, out_dir):
        history = list(rep.loss_history)
        history[-1] *= 1.0 + 1e-5
        write(replace(rep, loss_history=tuple(history)), out_dir)

    monkeypatch.setattr(qweather.bench, "write_run_artifacts", perturbed_write)
    runner.iteration("untraced")
    assert (runner.attempted, runner.failed) == (2, 1)


def test_refuses_to_run_without_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            (bare / "perfbench" / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (bare / "BENCHMARK.json").write_bytes(open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vqc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
