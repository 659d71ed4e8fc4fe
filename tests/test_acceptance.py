"""Acceptance gate: ten pinned end-to-end checks.

Every test emits exactly one PASS/FAIL summary line; the conftest hook
replays them after the run so they survive pytest's output capture.
Tolerances are pinned here and nowhere else; loosening them is not an
option.
"""

import sys
import time

import numpy as np
from conftest import record_verdict
from reference import apply_gates, finite_diff, inverse, param_shift, zero_state
from scipy.optimize import minimize

from qweather.bench import ExperimentConfig, run
from qweather.circuits import (
    build_qlstm_vqc,
    build_real_amplitudes,
    build_reuploading_ising,
    build_reuploading_sel,
    build_z_feature_map,
)
from qweather.models_recurrent import (
    classical_param_count,
    qgru_param_count,
    qlstm_param_count,
)
from qweather.optim import cobyla_minimize
from qweather.qkernel import (
    fidelity_kernel,
    rbf_kernel,
    svm_decision,
    svm_train,
)
from qweather.weather import (
    REFERENCE_CORRELATIONS,
    CorrelationReport,
    bin_target,
    select_features,
)

SYNTH = {"kind": "synth", "seed": 7, "n_months": 1000}


def _verdict(number, label, ok, detail):
    line = f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    record_verdict(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


_GATE_POOL = ("H", "RX", "RY", "RZ", "R3", "CNOT", "CZ", "RXX", "RYY", "RZZ")
_N_ANGLES = {"H": 0, "CNOT": 0, "CZ": 0, "R3": 3}


def _random_gate(rng, n_qubits):
    kind = _GATE_POOL[rng.integers(len(_GATE_POOL))]
    if kind in ("H", "RX", "RY", "RZ", "R3"):
        targets = (int(rng.integers(n_qubits)),)
    else:
        pair = rng.choice(n_qubits, size=2, replace=False)
        targets = (int(pair[0]), int(pair[1]))
    n = _N_ANGLES.get(kind, 1)
    angles = tuple(float(a) for a in rng.uniform(-2 * np.pi, 2 * np.pi, n))
    return kind, targets, angles


def test_criterion_01_simulator_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    state = zero_state(6)
    worst_norm = 0.0
    worst_inverse = 0.0
    for _ in range(1000):
        gate = _random_gate(rng, 6)
        before = state
        state = apply_gates(state, [gate])
        worst_norm = max(worst_norm, abs(np.linalg.norm(state) - 1.0))
        back = apply_gates(state, [inverse(gate)])
        worst_inverse = max(worst_inverse, float(np.abs(back - before).max()))
    # exact constant-gate identities
    h0 = apply_gates(zero_state(1), [("H", (0,), ())])
    exact = bool(np.all(h0 == np.array([1, 1]) / np.sqrt(2)))
    s10 = apply_gates(zero_state(2), [("RX", (0,), (np.pi,))])  # |00> -> -i|10>
    flipped = apply_gates(s10, [("CNOT", (0, 1), ())])
    exact = exact and abs(flipped[3] + 1j) < 1e-12
    signed = apply_gates(flipped, [("CZ", (0, 1), ())])
    exact = exact and abs(signed[3] - 1j) < 1e-12
    elapsed = time.perf_counter() - started
    ok = (
        worst_norm < 1e-10
        and worst_inverse < 1e-12
        and exact
        and elapsed < 10.0
    )
    _verdict(
        1,
        "simulator exactness",
        ok,
        f"norm drift {worst_norm:.2e}, inverse error {worst_inverse:.2e}, "
        f"constant gates exact={exact}, {elapsed:.2f}s",
    )


def test_criterion_02_gradient_oracle():
    started = time.perf_counter()
    templates = (
        build_reuploading_ising(3, 2),
        build_reuploading_sel(3, 2),
        build_real_amplitudes(3, 2),
        build_qlstm_vqc(3, 2),
    )
    worst = 0.0
    for circuit in templates:
        for seed in range(20):
            rng = np.random.default_rng(seed)
            theta = rng.uniform(-np.pi, np.pi, circuit.n_trainable)
            x = rng.uniform(-1.0, 1.0, circuit.n_inputs)
            for wrt in ("trainable", "inputs"):
                n_slots = (
                    circuit.n_trainable if wrt == "trainable" else circuit.n_inputs
                )
                if n_slots == 0:
                    continue
                shift = param_shift(circuit, theta, x, 0, wrt)
                fd = finite_diff(circuit, theta, x, 0, wrt, h=1e-5)
                worst = max(worst, float(np.abs(shift - fd).max()))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-5 and elapsed < 120.0
    _verdict(
        2,
        "gradient oracle",
        ok,
        f"max |shift - fd| = {worst:.2e} over 4 templates x 20 seeds, "
        f"{elapsed:.1f}s",
    )


def test_criterion_03_kernel_properties():
    rng = np.random.default_rng(23)
    fm = build_z_feature_map(4, 1)
    X = rng.uniform(0.0, 1.0, (30, 4))
    K = fidelity_kernel(X, X, fm)
    sym = float(np.abs(K - K.T).max())
    diag = float(np.abs(np.diag(K) - 1.0).max())
    lam_min = float(np.linalg.eigvalsh(K).min())
    fm1 = build_z_feature_map(1, 1)
    worst_pair = 0.0
    for _ in range(50):
        a, b = rng.uniform(0.0, 2 * np.pi, 2)
        got = fidelity_kernel([[a]], [[b]], fm1)[0, 0]
        worst_pair = max(worst_pair, abs(got - np.cos(a - b) ** 2))
    ok = (
        sym < 1e-10
        and diag < 1e-10
        and lam_min > -1e-8
        and worst_pair < 1e-10
    )
    _verdict(
        3,
        "kernel properties",
        ok,
        f"asymmetry {sym:.2e}, diagonal error {diag:.2e}, "
        f"lambda_min {lam_min:.2e}, analytic mismatch {worst_pair:.2e}",
    )


def _dual_objective(K, y, alpha):
    return alpha.sum() - 0.5 * alpha @ (np.outer(y, y) * K) @ alpha


def _brute_force_dual(K, y, C):
    n = len(y)
    res = minimize(
        lambda a: -_dual_objective(K, y, a),
        np.full(n, C / 2),
        bounds=[(0.0, C)] * n,
        constraints=[{"type": "eq", "fun": lambda a: float(a @ y)}],
        method="SLSQP",
        options={"maxiter": 1000, "ftol": 1e-14},
    )
    return -res.fun


def _kkt_residual(K, y, alpha, bias, C):
    f = (alpha * y) @ K + bias
    margins = y * f
    worst = 0.0
    for i in range(len(y)):
        if alpha[i] < 1e-9:
            worst = max(worst, max(0.0, 1.0 - margins[i]))
        elif alpha[i] > C - 1e-9:
            worst = max(worst, max(0.0, margins[i] - 1.0))
        else:
            worst = max(worst, abs(margins[i] - 1.0))
    return worst


def test_criterion_04_svm_correctness():
    worst_gap = 0.0
    worst_kkt = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        X = rng.normal(size=(n, 2))
        y = rng.choice([-1.0, 1.0], size=n)
        y[0], y[1] = -1.0, 1.0
        K = rbf_kernel(X, X, 0.7)
        model = svm_train(K, y, C=1.0)
        alpha = np.zeros(n)
        alpha[model.support_indices] = model.dual_coefficients
        got = _dual_objective(K, y, alpha)
        want = _brute_force_dual(K, y, 1.0)
        worst_gap = max(worst_gap, abs(got - want))
        worst_kkt = max(worst_kkt, _kkt_residual(K, y, alpha, model.bias, 1.0))
    rng = np.random.default_rng(404)
    X = np.vstack(
        [rng.normal((-2, 0), 0.3, (10, 2)), rng.normal((2, 0), 0.3, (10, 2))]
    )
    y = np.array([-1.0] * 10 + [1.0] * 10)
    K = rbf_kernel(X, X, 1.0)
    model = svm_train(K, y, C=10.0)
    acc = float(np.mean(np.sign(svm_decision(model, K)) == y))
    ok = worst_gap < 1e-4 and worst_kkt < 1e-3 and acc == 1.0
    _verdict(
        4,
        "SVM correctness",
        ok,
        f"dual gap {worst_gap:.2e}, KKT residual {worst_kkt:.2e}, "
        f"separable accuracy {acc}",
    )


def test_criterion_05_parameter_counts():
    gru = classical_param_count("gru", 4, 16)
    lstm = classical_param_count("lstm", 4, 8)
    sel = build_reuploading_sel(4, 4).n_trainable
    ising = build_reuploading_ising(3, 2).n_trainable
    qlstm = qlstm_param_count(4, 4, 2)
    qgru = qgru_param_count(4, 4, 2)
    ok = (
        gru == 1073
        and lstm == 457
        and sel == 48
        and ising == 21
        and qlstm < lstm
        and qgru < gru
    )
    _verdict(
        5,
        "parameter counts",
        ok,
        f"gru={gru} lstm={lstm} sel={sel} ising={ising} "
        f"qlstm={qlstm} qgru={qgru}",
    )


def test_criterion_06_binning_boundaries():
    eps = 1e-9
    binary = bin_target(
        [298.0 - eps, 298.0, 298.0 + eps], "binary"
    ).tolist()
    ternary = bin_target(
        [
            295.55 - eps,
            295.55,
            295.55 + eps,
            306.57 - eps,
            306.57,
            306.57 + eps,
        ],
        "ternary",
    ).tolist()
    ok = binary == [0, 1, 1] and ternary == [0, 1, 1, 1, 2, 2]
    _verdict(
        6,
        "binning boundaries",
        ok,
        f"binary around 298K -> {binary}, ternary around "
        f"295.55/306.57K -> {ternary}",
    )


def test_criterion_07_feature_selection():
    report = CorrelationReport(
        target_name="t2m", correlations=dict(REFERENCE_CORRELATIONS)
    )
    at_80 = select_features(report, threshold=0.8)
    at_78 = select_features(report, threshold=0.78)
    ok = set(at_80) == {"skt", "sp", "tsr"} and set(at_78) == {
        "skt",
        "sp",
        "tsr",
        "ssrdc",
    }
    _verdict(
        7,
        "feature selection",
        ok,
        f"threshold 0.80 -> {at_80}, threshold 0.78 -> {at_78}",
    )


def test_criterion_08_cobyla_quadratics():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A = q @ np.diag(rng.uniform(0.5, 3.0, n)) @ q.T
        b = rng.normal(size=n)
        target = -np.linalg.solve(A, b)

        def objective(v):
            return 0.5 * v @ A @ v + b @ v

        result = cobyla_minimize(objective, np.zeros(n), max_iters=150)
        worst = max(worst, float(np.linalg.norm(result.x_best - target)))
    ok = worst < 1e-3
    _verdict(
        8,
        "COBYLA quadratics",
        ok,
        f"max |x - x*| = {worst:.2e} over 10 seeded instances",
    )


def test_criterion_09_end_to_end_runs():
    details = []
    ok = True
    for model, task, check in (
        ("qsvm", "binary", ("accuracy", 0.90)),
        ("qnn-sel", "binary", ("accuracy", 0.90)),
        ("vqc", "ternary", ("accuracy", 0.70)),
        ("qnn-ising", "ternary", ("accuracy", 0.70)),
        ("qlstm", "regression", ("mse", 0.1)),
        ("qgru", "regression", ("converges", None)),
    ):
        cfg = ExperimentConfig(model=model, task=task, data=SYNTH, seed=1)
        report = run(cfg)
        within_budget = report.wall_time_s < 600.0
        if check[0] == "accuracy":
            value = report.metrics["test_accuracy"]
            passed = value >= check[1]
            details.append(f"{model} acc={value:.3f}")
        elif check[0] == "mse":
            value = report.metrics["test_mse_scaled"]
            passed = value < check[1]
            details.append(f"{model} scaled mse={value:.4f}")
        else:
            history = report.loss_history
            head = float(np.mean(history[:5]))
            tail = float(np.mean(history[-5:]))
            passed = tail < head and history[-1] < history[0]
            details.append(f"{model} loss {head:.4f}->{tail:.4f}")
        if not within_budget:
            details[-1] += f" OVER TIME ({report.wall_time_s:.0f}s)"
        ok = ok and passed and within_budget
    _verdict(9, "end-to-end runs", ok, "; ".join(details))


def test_criterion_10_byte_determinism(tmp_path):
    small = {"kind": "synth", "seed": 7, "n_months": 200}
    configs = (
        ExperimentConfig(model="qsvm", task="binary", data=small, seed=5),
        ExperimentConfig(
            model="nn", task="regression", data=small, epochs=40, seed=5
        ),
        ExperimentConfig(
            model="qlstm",
            task="regression",
            data={"kind": "synth", "seed": 7, "n_months": 60},
            epochs=2,
            seed=5,
        ),
    )
    identical = True
    for i, cfg in enumerate(configs):
        a = tmp_path / f"a{i}"
        b = tmp_path / f"b{i}"
        run(cfg, out_dir=str(a))
        run(cfg, out_dir=str(b))
        for name in ("report.json", "predictions.csv"):
            identical = identical and (
                (a / name).read_bytes() == (b / name).read_bytes()
            )
    _verdict(
        10,
        "byte determinism",
        identical,
        "report.json and predictions.csv identical across repeated runs "
        "(qsvm, nn, qlstm)",
    )
