"""Tests for the quantum and classical recurrent sequence models."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import same_bytes

from qweather import models_recurrent
from qweather.bench import model_from_json
from qweather.autodiff import bind, circuit_vjp
from qweather.circuits import run_circuit_batch
from qweather.models_qnn import INIT_ANGLE, _flat, _unpack, build_dense_baseline
from qweather.models_recurrent import (
    ClassicalRnnBaseline,
    QgruCell,
    QlstmCell,
    build_classical_gru,
    build_classical_lstm,
    build_qgru,
    build_qlstm,
    classical_param_count,
    gru_step,
    lstm_step,
    make_windows,
    qgru_param_count,
    qgru_step,
    qlstm_param_count,
    qlstm_step,
    sequence_forward,
    sequence_loss_and_grad,
    train_sequence_model,
)
from qweather.qsim import z_expectations


def _seq_loss(model, X, y):
    yhat = sequence_forward(model, X)
    return float(np.mean((yhat - y) ** 2))


def _sine_windows(n_points=40, window=4, input_dim=1):
    t = np.arange(n_points)
    series = np.sin(2 * np.pi * t / 12.0)
    target = (series + 1.0) / 2.0
    features = np.repeat(series[:, None], input_dim, axis=1)
    return make_windows(features, target, window=window)


class TestParamCounts:
    def test_qlstm_circuit_only_count(self):
        cell = build_qlstm(input_dim=4, n_qubits=4, n_layers=2)
        assert cell.n_circuit_params == 144

    def test_qlstm_total_count(self):
        assert qlstm_param_count(4, 4, 2) == 185
        cell = build_qlstm(input_dim=4)
        assert cell.params.size == 185

    def test_qgru_total_count(self):
        assert qgru_param_count(4, 4, 2) == 113
        assert build_qgru(input_dim=4).params.size == 113

    def test_classical_lstm_count(self):
        assert classical_param_count("lstm", 4, 8) == 457
        assert build_classical_lstm(4, 8).params.size == 457

    def test_classical_gru_count(self):
        assert classical_param_count("gru", 4, 16) == 1073
        assert build_classical_gru(4, 16).params.size == 1073

    def test_quantum_cells_are_smaller_than_baselines(self):
        assert build_qlstm(4).params.size < build_classical_lstm(4, 8).params.size
        assert build_qgru(4).params.size < build_classical_gru(4, 16).params.size

    def test_param_length_checked(self):
        cell = build_qgru(input_dim=2, n_qubits=2, n_layers=1)
        with pytest.raises(ValueError):
            QgruCell(cell.circuit, 2, cell.params[:-1])
        with pytest.raises(ValueError):
            ClassicalRnnBaseline("lstm", 4, 8, np.zeros(456))
        with pytest.raises(ValueError):
            ClassicalRnnBaseline("rnn", 4, 8, np.zeros(457))

    def test_unknown_kind_has_no_count(self):
        with pytest.raises(ValueError, match="rnn"):
            classical_param_count("rnn", 4, 8)


def _angles_then_affine(n_angles, n, bound, seed):
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-INIT_ANGLE, INIT_ANGLE, size=n_angles)
    return np.concatenate([angles, rng.uniform(-bound, bound, size=n - n_angles)])


def _one_bound(n, bound, seed):
    return np.random.default_rng(seed).uniform(-bound, bound, size=n)


def _dense(budget, input_dim, task, blocks):
    """A dense baseline's LAYOUTS entry: its whole vector draws in +-0.5."""
    return (
        lambda seed=None: build_dense_baseline(budget, input_dim, task, seed=seed),
        budget,
        blocks,
        lambda seed: _one_bound(budget, 0.5, seed),
    )


# (build, parameter count, (name, shape) blocks in vector order, seeded draws)
# of every model trained on one parameter vector through ``_unpack``/``_flat``
LAYOUTS = {
    "qlstm": (
        lambda seed=None: build_qlstm(4, seed=seed),
        185,
        [("thetas", (6, 24)), ("W", (8, 4)), ("b", (4,)), ("head_w", (4,)), ("head_b", ())],
        lambda seed: _angles_then_affine(144, 185, 1 / np.sqrt(8), seed),
    ),
    "qgru": (
        lambda seed=None: build_qgru(4, seed=seed),
        113,
        [("thetas", (3, 24)), ("W", (8, 4)), ("b", (4,)), ("head_w", (4,)), ("head_b", ())],
        lambda seed: _angles_then_affine(72, 113, 1 / np.sqrt(8), seed),
    ),
    "lstm": (
        lambda seed=None: build_classical_lstm(4, 8, seed=seed),
        457,
        [
            ("W_ih", (32, 4)), ("W_hh", (32, 8)), ("b_ih", (32,)), ("b_hh", (32,)),
            ("head_w", (8,)), ("head_b", ()),
        ],
        lambda seed: _one_bound(457, 1 / np.sqrt(8), seed),
    ),
    "gru": (
        lambda seed=None: build_classical_gru(4, 16, seed=seed),
        1073,
        [
            ("W_ih", (48, 4)), ("W_hh", (48, 16)), ("b_ih", (48,)), ("b_hh", (48,)),
            ("head_w", (16,)), ("head_b", ()),
        ],
        lambda seed: _one_bound(1073, 1 / np.sqrt(16), seed),
    ),
    # a dense baseline holds a bias block only where its layout flags one
    "nn-21-regression": _dense(
        21, 3, "regression", [("w1", (3, 4)), ("b1", (4,)), ("w2", (4, 1)), ("b2", (1,))]
    ),
    "nn-48-binary": _dense(48, 4, "binary", [("w1", (4, 8)), ("b1", (8,)), ("w2", (8, 1))]),
    "nn-21-ternary": _dense(21, 3, "ternary", [("w1", (3, 3)), ("b1", (3,)), ("w2", (3, 3))]),
    "nn-48-ternary": _dense(48, 4, "ternary", [("w1", (4, 6)), ("b1", (6,)), ("w2", (6, 3))]),
}


@pytest.mark.parametrize("kind", LAYOUTS)
class TestLayout:
    def test_flat_of_unpack_is_the_vector(self, kind):
        model = LAYOUTS[kind][0](seed=3)
        assert same_bytes(_flat(model, _unpack(model)), model.params)

    def test_blocks_tile_the_vector_in_order(self, kind):
        build, count, blocks, _ = LAYOUTS[kind]
        assert build().params.size == count
        model = replace(build(), params=np.arange(count, dtype=float))
        views = _unpack(model)
        assert [(name, view.shape) for name, view in views.items()] == blocks
        assert all(np.shares_memory(view, model.params) for view in views.values())
        # every index once, in vector order: no gap and no overlap
        covered = np.concatenate([view.ravel() for view in views.values()])
        assert np.array_equal(covered, np.arange(count))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_build_draws_in_order(self, kind, seed):
        build, _, _, draws = LAYOUTS[kind]
        assert same_bytes(build(seed=seed).params, draws(seed))
        assert not build().params.any()


class TestWindows:
    def test_shapes_and_values(self):
        features = np.arange(20, dtype=float).reshape(10, 2)
        target = np.arange(10, dtype=float)
        X, y = make_windows(features, target, window=4)
        assert X.shape == (6, 4, 2)
        assert y.shape == (6,)
        assert np.allclose(X[0], features[0:4])
        assert y[0] == target[4]
        assert y[-1] == target[9]

    def test_validation(self):
        with pytest.raises(ValueError):
            make_windows(np.zeros((5, 1)), np.zeros(4))
        with pytest.raises(ValueError):
            make_windows(np.zeros((4, 1)), np.zeros(4), window=4)
        with pytest.raises(ValueError):
            make_windows(np.zeros((5, 1)), np.zeros(5), window=0)


class TestQlstmStep:
    def test_zero_params_halve_the_cell_state(self):
        cell = build_qlstm(input_dim=3, n_qubits=4, n_layers=2)
        x = np.zeros((2, 3))
        h = np.zeros((2, 4))
        c = np.array([[0.8, -0.4, 0.2, 1.0], [0.1, 0.3, -0.5, 0.0]])
        (h2, c2), rec = qlstm_step(cell, x, h, c)
        assert np.allclose(rec["f"], 0.5, atol=1e-12)
        assert np.allclose(rec["i"], 0.5, atol=1e-12)
        assert np.allclose(rec["o"], 0.5, atol=1e-12)
        assert np.allclose(rec["g"], 0.0, atol=1e-12)
        assert np.allclose(c2, 0.5 * c, atol=1e-12)
        assert np.allclose(sequence_forward(cell, np.zeros((2, 3, 3))), 0.0, atol=1e-12)

    def test_zero_cell_state_gives_input_times_update(self):
        cell = build_qlstm(input_dim=2, n_qubits=2, n_layers=1, seed=5)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 2))
        h = rng.normal(size=(3, 2)) * 0.3
        c = np.zeros((3, 2))
        (_, c2), rec = qlstm_step(cell, x, h, c)
        assert np.allclose(c2, rec["i"] * rec["g"], atol=1e-12)

    def test_gate_ranges(self):
        cell = build_qlstm(input_dim=2, n_qubits=2, n_layers=1, seed=1)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 2)) * 2
        h = rng.normal(size=(8, 2))
        c = rng.normal(size=(8, 2))
        (h2, c2), rec = qlstm_step(cell, x, h, c)
        for name in ("f", "i", "o"):
            assert np.all(rec[name] > 0) and np.all(rec[name] < 1)
        assert np.all(rec["g"] > -1) and np.all(rec["g"] < 1)
        assert np.all(np.abs(h2) <= 1.0)

    def test_sequence_forward_matches_manual_loop(self):
        cell = build_qlstm(input_dim=2, n_qubits=2, n_layers=1, seed=3)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(4, 3, 2))
        h = np.zeros((4, 2))
        c = np.zeros((4, 2))
        for t in range(3):
            (h, c), rec = qlstm_step(cell, X[:, t], h, c)
        # the readout circuit is the sixth block; the head is the last three values
        per = cell.circuit.n_trainable
        theta = cell.params[5 * per : 6 * per]
        states = run_circuit_batch(cell.circuit, theta, rec["u2"])
        q = z_expectations(states, cell.n_qubits, (0, 1))
        y = q @ cell.params[-3:-1] + cell.params[-1]
        assert np.allclose(sequence_forward(cell, X), y, atol=1e-12)


class TestQgruStep:
    def test_gating_identity(self):
        cell = build_qgru(input_dim=2, n_qubits=2, n_layers=1, seed=2)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 2))
        h = rng.normal(size=(5, 2)) * 0.5
        (h2,), rec = qgru_step(cell, x, h)
        assert np.allclose(h2, (1.0 - rec["z"]) * h + rec["z"] * rec["g"], atol=1e-12)
        for name in ("r", "z"):
            assert np.all(rec[name] > 0) and np.all(rec[name] < 1)

    def test_update_gate_extremes_interpolate(self):
        cell = build_qgru(input_dim=2, n_qubits=2, n_layers=1, seed=4)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 2))
        h = rng.normal(size=(3, 2))
        (h2,), rec = qgru_step(cell, x, h)
        # z lies strictly inside (0, 1), so h' lies strictly between h and g
        assert np.all((rec["z"] > 0) & (rec["z"] < 1))
        assert np.all((h2 - h) * (h2 - rec["g"]) < 0)

    def test_zero_params_keep_hidden_at_candidate_mix(self):
        cell = build_qgru(input_dim=2, n_qubits=2, n_layers=1)
        x = np.zeros((2, 2))
        h = np.array([[0.6, -0.2], [0.1, 0.4]])
        (h2,), rec = qgru_step(cell, x, h)
        # zero weights blind the gates to h, so r = z = 1/2 and g = 0
        assert np.allclose(rec["r"], 0.5, atol=1e-12)
        assert np.allclose(rec["z"], 0.5, atol=1e-12)
        assert np.allclose(rec["g"], 0.0, atol=1e-12)
        assert np.allclose(h2, 0.5 * h, atol=1e-12)


class TestClassicalSteps:
    def test_zero_params_zero_everything(self):
        model = build_classical_lstm(3, 4)
        x = np.ones((2, 3))
        h = np.zeros((2, 4))
        c = np.zeros((2, 4))
        (h2, c2), _ = lstm_step(model, x, h, c)
        assert np.allclose(h2, 0.0) and np.allclose(c2, 0.0)
        assert np.allclose(sequence_forward(model, np.ones((2, 3, 3))), 0.0)

    def test_gru_step_shapes(self):
        model = build_classical_gru(3, 5, seed=6)
        rng = np.random.default_rng(6)
        (h2,), _ = gru_step(model, rng.normal(size=(4, 3)), rng.normal(size=(4, 5)))
        assert h2.shape == (4, 5)
        assert sequence_forward(model, rng.normal(size=(4, 2, 3))).shape == (4,)

    def test_lstm_step_identities(self):
        model = build_classical_lstm(3, 4, seed=10)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(5, 3))
        h = rng.normal(size=(5, 4)) * 0.5
        c = rng.normal(size=(5, 4))
        (h2, c2), rec = lstm_step(model, x, h, c)
        assert np.allclose(c2, rec["f"] * c + rec["i"] * rec["g"], atol=1e-12)
        assert np.allclose(h2, rec["o"] * np.tanh(c2), atol=1e-12)
        assert not np.allclose(c2, rec["i"] * rec["g"])

    def test_gru_step_identity(self):
        model = build_classical_gru(3, 5, seed=11)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 3))
        h = rng.normal(size=(5, 5)) * 0.5
        (h2,), rec = gru_step(model, x, h)
        assert np.allclose(h2, (1.0 - rec["z"]) * rec["n"] + rec["z"] * h, atol=1e-12)
        assert not np.allclose(h2, (1.0 - rec["z"]) * rec["n"])


class TestGradients:
    @pytest.mark.parametrize(
        "model",
        [
            build_qlstm(input_dim=2, n_qubits=2, n_layers=1, seed=12),
            build_qgru(input_dim=2, n_qubits=2, n_layers=1, seed=12),
            build_classical_lstm(2, 4, seed=12),
            build_classical_gru(2, 4, seed=12),
        ],
        ids=["qlstm", "qgru", "lstm", "gru"],
    )
    def test_loss_is_mse_of_sequence_forward(self, model):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(5, 4, 2))
        y = rng.normal(size=5)
        loss, _ = sequence_loss_and_grad(model, X, y)
        assert loss == float(np.mean((sequence_forward(model, X) - y) ** 2))

    @pytest.mark.parametrize(
        "builder,kwargs",
        [
            (build_qlstm, {"input_dim": 2, "n_qubits": 2, "n_layers": 1}),
            (build_qgru, {"input_dim": 2, "n_qubits": 2, "n_layers": 1}),
        ],
    )
    def test_quantum_gradients_match_finite_difference(self, builder, kwargs):
        model = builder(seed=7, **kwargs)
        rng = np.random.default_rng(7)
        X = rng.normal(size=(3, 3, 2)) * 0.7
        y = rng.normal(size=3) * 0.5
        _, grad = sequence_loss_and_grad(model, X, y)
        h = 1e-6
        fd = np.zeros_like(grad)
        for k in range(model.params.size):
            up = model.params.copy()
            up[k] += h
            dn = model.params.copy()
            dn[k] -= h
            fd[k] = (
                _seq_loss(replace(model, params=up), X, y)
                - _seq_loss(replace(model, params=dn), X, y)
            ) / (2 * h)
        assert np.max(np.abs(grad - fd)) < 1e-4
        assert np.allclose(grad, fd, atol=1e-6)

    def test_full_size_qlstm_gradient_spot_check(self):
        model = build_qlstm(input_dim=4, seed=9)
        rng = np.random.default_rng(9)
        X = rng.normal(size=(2, 3, 4)) * 0.5
        y = rng.normal(size=2) * 0.5
        _, grad = sequence_loss_and_grad(model, X, y)
        h = 1e-6
        idx = rng.choice(model.params.size, size=12, replace=False)
        for k in idx:
            up = model.params.copy()
            up[k] += h
            dn = model.params.copy()
            dn[k] -= h
            fd = (
                _seq_loss(replace(model, params=up), X, y)
                - _seq_loss(replace(model, params=dn), X, y)
            ) / (2 * h)
            assert grad[k] == pytest.approx(fd, abs=1e-4)

    @pytest.mark.parametrize(
        "builder,hidden", [(build_classical_lstm, 4), (build_classical_gru, 4)]
    )
    def test_classical_gradients_match_finite_difference(self, builder, hidden):
        model = builder(3, hidden, seed=8)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(4, 4, 3))
        y = rng.normal(size=4)
        _, grad = sequence_loss_and_grad(model, X, y)
        h = 1e-6
        fd = np.zeros_like(grad)
        for k in range(model.params.size):
            up = model.params.copy()
            up[k] += h
            dn = model.params.copy()
            dn[k] -= h
            fd[k] = (
                _seq_loss(ClassicalRnnBaseline(model.kind, 3, hidden, up), X, y)
                - _seq_loss(ClassicalRnnBaseline(model.kind, 3, hidden, dn), X, y)
            ) / (2 * h)
        assert np.max(np.abs(grad - fd)) < 1e-4
        assert np.allclose(grad, fd, atol=1e-6)


class TestTraining:
    def test_zero_epochs_and_empty_windows_rejected(self):
        model = build_classical_gru(2, 4)
        X, y = np.zeros((3, 2, 2)), np.zeros(3)
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            train_sequence_model(model, X, y, epochs=0)
        with pytest.raises(ValueError, match="dataset is empty"):
            train_sequence_model(model, X[:0], y[:0], epochs=1)

    def test_constant_target_learned_by_qlstm(self):
        X = np.zeros((8, 3, 2))
        y = np.full(8, 0.3)
        model = build_qlstm(input_dim=2, n_qubits=2, n_layers=1, seed=0)
        model, history = train_sequence_model(model, X, y, epochs=70, lr=0.05)
        assert history[-1] < 1e-3
        assert history[-1] < history[0]

    def test_qlstm_learns_sinusoid(self):
        X, y = _sine_windows()
        model = build_qlstm(input_dim=1, n_qubits=4, n_layers=1, seed=1)
        model, history = train_sequence_model(model, X, y, epochs=40, lr=0.05)
        assert history[-1] < 0.1
        assert history[-1] < history[0] / 2

    def test_qgru_converges_on_sinusoid(self):
        X, y = _sine_windows()
        model = build_qgru(input_dim=1, n_qubits=4, n_layers=1, seed=2)
        model, history = train_sequence_model(model, X, y, epochs=15, lr=0.05)
        assert history[-1] < history[0]
        assert min(history) == pytest.approx(history[-1], rel=0.5)

    @pytest.mark.parametrize(
        "builder,hidden", [(build_classical_lstm, 8), (build_classical_gru, 16)]
    )
    def test_classical_baselines_learn_sinusoid(self, builder, hidden):
        X, y = _sine_windows()
        model = builder(1, hidden, seed=3)
        model, history = train_sequence_model(model, X, y, epochs=120, lr=0.02)
        assert history[-1] < 0.05
        assert history[-1] < history[0]

    def test_seed_determinism(self):
        X, y = _sine_windows(n_points=20)
        runs = []
        for _ in range(2):
            model = build_qgru(input_dim=1, n_qubits=2, n_layers=1, seed=11)
            _, history = train_sequence_model(model, X, y, epochs=4, lr=0.05)
            runs.append(history)
        assert runs[0] == runs[1]
        model = build_qgru(input_dim=1, n_qubits=2, n_layers=1, seed=12)
        _, other = train_sequence_model(model, X, y, epochs=4, lr=0.05)
        assert runs[0] != other

    @pytest.mark.parametrize("builder", [build_qlstm, build_qgru], ids=["qlstm", "qgru"])
    def test_one_epoch_sweeps_each_gate_circuit_once_per_step(
        self, builder, circuit_sweeps
    ):
        # qlstm: the forget/input/update/output group as one stacked call
        # and hidden per step, the readout in place of hidden at the last
        # step; qgru: the reset/update group and candidate per step.  The
        # backward pass reads the taped states and adds no sweep.
        X, y = _sine_windows(n_points=20, window=4)
        model = builder(input_dim=1, n_qubits=2, n_layers=1, seed=5)
        train_sequence_model(model, X, y, epochs=1)
        assert len(circuit_sweeps) == 2 * X.shape[1]

    def test_qlstm_forward_skips_the_last_hidden_circuit(self, monkeypatch):
        # the hidden circuit's output at a window's last step feeds nothing:
        # the head reads the readout circuit on that step's u2
        calls = []
        original = models_recurrent._gate_readout

        def counted(cell, p, gates, *args):
            calls.append(gates)
            return original(cell, p, gates, *args)

        monkeypatch.setattr(models_recurrent, "_gate_readout", counted)
        X, _ = _sine_windows(n_points=20, window=5)
        model = build_qlstm(input_dim=1, n_qubits=2, n_layers=1, seed=5)
        sequence_forward(model, X)
        T = X.shape[1]
        assert calls.count(models_recurrent._QLSTM_GROUP) == T
        assert calls.count("hidden") == T - 1
        assert calls.count("readout") == 1
        assert len(calls) == 2 * T

    @pytest.mark.parametrize(
        "builder,shapes",
        [(build_qlstm, [(4, 6), (6,), (6,)]), (build_qgru, [(2, 6), (6,)])],
        ids=["qlstm", "qgru"],
    )
    def test_each_pass_binds_each_gate_circuit_once(self, builder, shapes, monkeypatch):
        # one binding per gate group or lone gate circuit per pass over the
        # windows, shared by every step's forward call and every VJP
        made, used = [], []

        def counted(circuit, params, n_rows):
            made.append(bind(circuit, params, n_rows))
            return made[-1]

        def vjp(*args, bound=None):
            used.append(bound)
            return circuit_vjp(*args, bound=bound)

        monkeypatch.setattr(models_recurrent, "bind", counted)
        monkeypatch.setattr(models_recurrent, "circuit_vjp", vjp)
        X, y = _sine_windows(n_points=20, window=4)
        model = builder(input_dim=1, n_qubits=2, n_layers=1, seed=7)
        train_sequence_model(model, X, y, epochs=1)
        assert [b.theta.shape for b in made] == shapes
        assert {id(b) for b in used} == {id(b) for b in made}
        made.clear()
        sequence_forward(model, X)
        assert [b.theta.shape for b in made] == shapes

    @pytest.mark.parametrize("builder", [build_qlstm, build_qgru], ids=["qlstm", "qgru"])
    def test_taped_states_are_a_fresh_forward(self, builder, fresh_forward_vjps):
        X, y = _sine_windows(n_points=20, window=3)
        model = builder(input_dim=1, n_qubits=2, n_layers=1, seed=6)
        train_sequence_model(model, X, y, epochs=2)
        # per step and epoch: the gate group's one sweep, then hidden (or the
        # readout at the last step) or candidate
        assert len(fresh_forward_vjps) == 2 * 2 * X.shape[1]

    def test_window_shape_validated(self):
        model = build_qlstm(input_dim=2, n_qubits=2, n_layers=1)
        with pytest.raises(ValueError):
            train_sequence_model(model, np.zeros((3, 2)), np.zeros(3), epochs=1)
        with pytest.raises(ValueError):
            train_sequence_model(
                model, np.zeros((0, 3, 2)), np.zeros(0), epochs=1
            )
        with pytest.raises(ValueError):
            sequence_loss_and_grad(model, np.zeros((2, 3, 2)), np.zeros(3))



class TestSerialization:
    def test_unknown_kind_rejected(self):
        for text in ('{"kind": "tcn", "values": []}', '{"class": "TcnCell", "params": []}'):
            with pytest.raises(ValueError, match="unknown model class"):
                model_from_json(text)
