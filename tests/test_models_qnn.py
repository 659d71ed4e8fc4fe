"""Tests for the feed-forward quantum models and dense baselines."""

import json
from dataclasses import replace

import numpy as np
import pytest
from conftest import same_bytes
from reference import full_circuit

from qweather.circuits import (
    AngleRef,
    Circuit,
    CircuitOp,
    build_real_amplitudes,
    build_reuploading_ising,
    build_reuploading_sel,
    build_z_feature_map,
    build_zz_feature_map,
    run_circuit_batch,
)
from qweather.models_qnn import (
    DenseBaseline,
    QnnModel,
    VqcClassifier,
    build_dense_baseline,
    build_qnn,
    build_vqc_classifier,
    dense_forward,
    init_params,
    dense_predict,
    dense_train,
    _dense_loss_and_grad,
    _qnn_loss_and_grad,
    qnn_expectations,
    qnn_predict,
    qnn_train,
    readout_class_masks,
    vqc_probabilities,
    vqc_train,
)
from qweather.bench import model_from_json, model_to_json
from qweather.optim import cobyla_minimize


def _ry_ansatz():
    # minimal trainable circuit: one RY angle on a single qubit
    return Circuit(
        name="ry_ansatz(1,1)",
        n_qubits=1,
        ops=(CircuitOp("RY", (0,), (AngleRef("trainable", 0),)),),
        n_trainable=1,
        n_inputs=0,
    )


class TestRegressionEncoding:
    # a regression QNN is handed targets y in [0, 1]: it fits <Z> to 2y - 1
    # and predicts (<Z> + 1)/2

    def test_training_fits_z_to_twice_the_target_less_one(self):
        rng = np.random.default_rng(15)
        X = rng.uniform(-1, 1, size=(9, 2))
        y = rng.uniform(0, 1, size=9)
        model = build_qnn(build_reuploading_sel(2, 2), "regression", seed=15)
        _, history = qnn_train(model, (X, y), epochs=1)
        assert history == [_qnn_loss_and_grad(model, X, 2.0 * y - 1.0)[0]]
        z = qnn_expectations(model, X)[:, 0]
        assert history[0] == pytest.approx(np.mean((z - (2.0 * y - 1.0)) ** 2), rel=1e-12)

    def test_prediction_is_half_of_z_plus_one(self):
        rng = np.random.default_rng(16)
        X = rng.uniform(-1, 1, size=(7, 3))
        model = build_qnn(build_reuploading_ising(3, 2), "regression", seed=16)
        z = qnn_expectations(model, X)[:, 0]
        assert same_bytes(qnn_predict(model, X), (z + 1.0) / 2.0)


# one sample with no features, for the circuits that take no inputs
NO_INPUT = np.zeros((1, 0))


class TestQnnForward:
    def test_ternary_uniform_for_zero_params_constant_features(self):
        model = build_qnn(build_reuploading_ising(3, 2), "ternary")
        x = np.array([[0.7, 0.7, 0.7]])
        probs = qnn_predict(model, x)
        assert probs.shape == (1, 3)
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_binary_certain_zero_state(self):
        # |00> gives <Z_0> = 1, hence p(class 1) = 0
        model = build_qnn(build_real_amplitudes(2, 0), "binary")
        probs = qnn_predict(model, NO_INPUT)
        assert probs.shape == (1, 2)
        assert probs[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert probs[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_binary_balanced_superposition(self):
        model = QnnModel(
            circuit=build_real_amplitudes(2, 0),
            params=np.array([np.pi / 2, 0.0]),
            task="binary",
        )
        probs = qnn_predict(model, NO_INPUT)
        assert probs[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_regression_unscales_readout(self):
        # <Z> = 0 is the middle of the [0, 1] target space
        model = QnnModel(
            circuit=build_real_amplitudes(2, 0),
            params=np.array([np.pi / 2, 0.0]),
            task="regression",
        )
        assert qnn_predict(model, NO_INPUT) == pytest.approx([0.5], abs=1e-12)
        assert qnn_predict(replace(model, params=np.zeros(2)), NO_INPUT) == [1.0]

    def test_feature_count_checked(self):
        model = build_qnn(build_reuploading_sel(4, 2), "regression")
        with pytest.raises(ValueError):
            qnn_predict(model, [[0.1, 0.2, 0.3]])
        with pytest.raises(ValueError):
            qnn_predict(replace(model, task="binary"), [[0.1, 0.2, 0.3]])

    def test_readout_shape_checked(self):
        # the readout is the task's: ternary reads qubits 0, 1 and 2
        circuit = build_reuploading_sel(2, 1)
        assert QnnModel(circuit, np.zeros(6), "binary").readout == (0,)
        with pytest.raises(ValueError, match="ternary readout needs 3 qubits"):
            QnnModel(circuit, np.zeros(6), "ternary")


class TestQnnGradients:
    @pytest.mark.parametrize("task", ["regression", "binary", "ternary"])
    def test_loss_grad_matches_finite_difference(self, task):
        rng = np.random.default_rng(11)
        if task == "ternary":
            circuit = build_reuploading_ising(3, 1)
            X = rng.uniform(-1, 1, size=(6, 3))
            y = rng.integers(0, 3, size=6).astype(float)
        else:
            circuit = build_reuploading_sel(2, 2)
            X = rng.uniform(-1, 1, size=(6, 2))
            y = (
                rng.integers(0, 2, size=6).astype(float)
                if task == "binary"
                else rng.uniform(-0.8, 0.8, size=6)
            )
        model = build_qnn(circuit, task, seed=5)
        loss, grad = _qnn_loss_and_grad(model, X, y)
        h = 1e-6
        for k in range(model.params.size):
            up = model.params.copy()
            up[k] += h
            down = model.params.copy()
            down[k] -= h
            f_up, _ = _qnn_loss_and_grad(
                QnnModel(circuit, up, task), X, y
            )
            f_dn, _ = _qnn_loss_and_grad(
                QnnModel(circuit, down, task), X, y
            )
            assert grad[k] == pytest.approx((f_up - f_dn) / (2 * h), abs=5e-5)


class TestQnnTrain:
    def test_sine_regression_converges(self):
        x = np.linspace(-1.0, 1.0, 64)
        X = np.repeat(x[:, None], 4, axis=1)
        y = (np.sin(np.pi * x) + 1.0) / 2.0
        model = build_qnn(build_reuploading_sel(4, 4), "regression", seed=0)
        model, history = qnn_train(model, (X, y), epochs=220, lr=0.08)
        assert history[-1] < 0.01
        # <Z> spans twice the target's range, so its MSE is four times as large
        assert np.mean((qnn_predict(model, X) - y) ** 2) < 0.01 / 4

    def test_constant_target_reaches_near_zero_loss(self):
        X = np.repeat(np.linspace(-1, 1, 16)[:, None], 2, axis=1)
        y = np.full(16, 0.75)
        model = build_qnn(build_reuploading_sel(2, 2), "regression", seed=1)
        model, history = qnn_train(model, (X, y), epochs=150, lr=0.05)
        assert history[-1] < 1e-3

    def test_separated_binary_classes(self):
        rng = np.random.default_rng(4)
        x0 = rng.uniform(-1.5, -0.8, size=12)
        x1 = rng.uniform(0.8, 1.5, size=12)
        X = np.concatenate([x0, x1])[:, None].repeat(2, axis=1)
        y = np.concatenate([np.zeros(12), np.ones(12)])
        model = build_qnn(build_reuploading_sel(2, 2), "binary", seed=2)
        model, history = qnn_train(model, (X, y), epochs=120, lr=0.1)
        assert history[-1] < history[0]
        assert np.mean(np.argmax(qnn_predict(model, X), axis=1) == y) == 1.0

    def test_single_qubit_loss_decreases(self):
        circuit = _ry_ansatz()
        X = np.zeros((8, 0))
        y = np.full(8, 0.25)
        model = QnnModel(circuit, np.array([0.3]), "regression")
        model, history = qnn_train(model, (X, y), epochs=150, lr=0.05)
        assert history[-1] < history[0]
        assert history[-1] < 1e-4

    def test_seed_determinism(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, size=(10, 3))
        y = rng.integers(0, 3, size=10)
        circuit = build_reuploading_ising(3, 2)
        _, h1 = qnn_train(build_qnn(circuit, "ternary", seed=42), (X, y), epochs=5)
        _, h2 = qnn_train(build_qnn(circuit, "ternary", seed=42), (X, y), epochs=5)
        _, h3 = qnn_train(build_qnn(circuit, "ternary", seed=43), (X, y), epochs=5)
        assert h1 == h2
        assert h1 != h3

    @pytest.mark.parametrize("task", ["regression", "binary", "ternary"])
    def test_one_epoch_sweeps_the_circuit_once(self, task, circuit_sweeps):
        rng = np.random.default_rng(10)
        X = rng.uniform(-1, 1, size=(6, 3))
        y = rng.integers(0, 3 if task == "ternary" else 2, size=6)
        model = build_qnn(build_reuploading_ising(3, 1), task, seed=10)
        qnn_train(model, (X, y), epochs=1)
        assert circuit_sweeps == [model.circuit.name]

    @pytest.mark.parametrize("task", ["regression", "binary", "ternary"])
    def test_taped_states_are_a_fresh_forward(self, task, fresh_forward_vjps):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, size=(6, 4))
        y = rng.integers(0, 3 if task == "ternary" else 2, size=6)
        model = build_qnn(build_reuploading_sel(4, 2), task, seed=11)
        qnn_train(model, (X, y), epochs=3)
        assert len(fresh_forward_vjps) == 3

    def test_empty_dataset_rejected(self):
        model = build_qnn(build_reuploading_ising(3, 1), "ternary")
        with pytest.raises(ValueError):
            qnn_train(model, (np.zeros((0, 3)), np.zeros(0)), epochs=3)

    def test_bad_labels_rejected(self):
        model = build_qnn(build_reuploading_ising(3, 1), "ternary")
        X = np.zeros((4, 3))
        with pytest.raises(ValueError):
            qnn_train(model, (X, np.array([0, 1, 2, 3])), epochs=2)

    def test_zero_epochs_rejected(self):
        model = build_qnn(build_reuploading_ising(3, 1), "binary")
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            qnn_train(model, (np.zeros((4, 3)), np.zeros(4)), epochs=0)


class TestVqcClassifier:
    def test_mod3_class_sizes_on_4_qubits(self):
        masks = readout_class_masks(4, 3)
        assert masks.shape == (3, 16)
        assert list(masks.sum(axis=1)) == [6, 5, 5]

    def test_parity_masks_split_evenly(self):
        masks = readout_class_masks(3, 2)
        assert list(masks.sum(axis=1)) == [4, 4]
        # |011> has two set bits, so it is even parity
        assert masks[0][3]

    def test_uniform_state_gives_balanced_parity(self):
        clf = build_vqc_classifier(2, 2)
        probs = vqc_probabilities(clf, [[0.0, 0.0]])[0]
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_probabilities_sum_to_one(self):
        clf = build_vqc_classifier(4, 3, seed=8)
        rng = np.random.default_rng(8)
        X = rng.uniform(0, np.pi, size=(6, 4))
        probs = vqc_probabilities(clf, X)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_full_circuit_slot_counts(self):
        clf = build_vqc_classifier(4, 3)
        full = full_circuit(clf)
        assert full.n_trainable == 16
        assert full.n_inputs == 4

    def test_predict_tie_goes_to_lowest_class(self):
        clf = build_vqc_classifier(2, 2)
        probs = vqc_probabilities(clf, [[0.0, 0.0]])
        assert probs[0, 0] == pytest.approx(probs[0, 1], abs=1e-12)
        assert np.argmax(probs, axis=1).tolist() == [0]

    def test_qubit_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VqcClassifier(
                feature_map=build_zz_feature_map(3, 1),
                ansatz=build_real_amplitudes(2, 1),
                params=np.zeros(4),
                n_classes=2,
            )

    def test_single_qubit_phase_classes_learned(self):
        # Z map sends x=0 and x=pi/2 to orthogonal states, so one RY
        # suffices for a perfect parity split.
        clf = VqcClassifier(
            feature_map=build_z_feature_map(1, 1),
            ansatz=_ry_ansatz(),
            params=init_params(1, 1),
            n_classes=2,
        )
        rng = np.random.default_rng(3)
        x = np.concatenate([np.zeros(10), np.full(10, np.pi / 2)])
        x = (x + rng.normal(0, 0.02, size=20))[:, None]
        y = np.concatenate([np.zeros(10, dtype=int), np.ones(10, dtype=int)])
        clf, history = vqc_train(clf, (x, y), iters=60)
        preds = np.argmax(vqc_probabilities(clf, x), axis=1)
        acc = max(np.mean(preds == y), np.mean(preds == 1 - y))
        assert acc >= 0.9
        assert len(history) >= 2
        assert min(history) <= history[0]

    def test_train_improves_three_class_ring(self):
        rng = np.random.default_rng(12)
        centers = np.array([[0.4, 0.4], [2.2, 0.4], [1.3, 2.2]])
        X = np.concatenate(
            [c + rng.normal(0, 0.08, size=(8, 2)) for c in centers]
        )
        y = np.repeat([0, 1, 2], 8)
        clf = build_vqc_classifier(2, 3, seed=2)
        trained, history = vqc_train(clf, (X, y), iters=80)
        assert min(history) < history[0]
        preds = np.argmax(vqc_probabilities(trained, X), axis=1)
        assert np.mean(preds == y) >= 0.5

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_probabilities_are_the_full_circuit_bytes(self, n_classes):
        # the full circuit is the oracle: feature map then ansatz in one run
        clf = build_vqc_classifier(3, n_classes, seed=13)
        X = np.random.default_rng(13).uniform(0, np.pi, size=(9, 3))
        probs = np.abs(run_circuit_batch(full_circuit(clf), clf.params, X)) ** 2
        masks = readout_class_masks(3, n_classes)
        want = np.stack([probs[:, m].sum(axis=1) for m in masks], axis=1)
        assert same_bytes(vqc_probabilities(clf, X), want)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_training_matches_a_full_circuit_objective(self, n_classes, circuit_sweeps):
        clf = build_vqc_classifier(3, n_classes, seed=14)
        rng = np.random.default_rng(14)
        X = rng.uniform(0, np.pi, size=(12, 3))
        y = rng.integers(0, n_classes, size=12)
        _, history = vqc_train(clf, (X, y), iters=5)
        # the feature map runs once per fit, the ansatz once per evaluation
        assert len(circuit_sweeps) == 1 + len(history)
        want = []

        def full_objective(theta):
            probs = np.abs(run_circuit_batch(full_circuit(clf), theta, X)) ** 2
            masks = readout_class_masks(3, n_classes)
            p = np.stack([probs[:, m].sum(axis=1) for m in masks], axis=1)
            loss = float(-np.mean(np.log(np.clip(p[np.arange(12), y], 1e-12, None))))
            want.append(loss)
            return loss

        cobyla_minimize(full_objective, init_params(clf.ansatz.n_trainable, 14), max_iters=5)
        assert len(history) >= 5
        assert history == want

    def test_feature_map_must_be_input_only(self):
        with pytest.raises(ValueError):
            VqcClassifier(
                feature_map=build_real_amplitudes(2, 1),
                ansatz=build_real_amplitudes(2, 1),
                params=np.zeros(4),
                n_classes=2,
            )

    def test_label_range_checked(self):
        clf = build_vqc_classifier(2, 2)
        with pytest.raises(ValueError):
            vqc_train(clf, (np.zeros((3, 2)), np.array([0, 1, 2])), iters=5)

    @pytest.mark.parametrize(
        "n_classes, X, y, message",
        [
            (2, np.zeros((0, 2)), np.zeros(0), "dataset is empty"),
            (2, np.zeros((3, 2)), np.array([0, 1, 2]), r"labels must be in \[0, 2\)"),
            (3, np.zeros((3, 2)), np.array([0, 3, 1]), r"labels must be in \[0, 3\)"),
            (3, np.zeros((3, 2)), np.array([0, -1, 1]), r"labels must be in \[0, 3\)"),
        ],
    )
    def test_data_check_errors_are_the_shared_ones(self, n_classes, X, y, message):
        # vqc_train runs the data check of the Adam trainers, messages and all
        clf = build_vqc_classifier(2, n_classes)
        with pytest.raises(ValueError, match=message):
            vqc_train(clf, (X, y), iters=5)

    def test_an_iteration_count_is_not_called_epochs(self):
        clf = build_vqc_classifier(2, 2)
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            vqc_train(clf, (np.zeros((2, 2)), np.array([0, 1])), iters=0)


class TestDenseBaseline:
    @pytest.mark.parametrize(
        "budget,input_dim,task,sizes,flags",
        [
            (21, 3, "regression", (3, 4, 1), (True, True)),
            (21, 3, "binary", (3, 4, 1), (True, True)),
            (48, 4, "regression", (4, 8, 1), (True, False)),
            (48, 4, "binary", (4, 8, 1), (True, False)),
            (21, 3, "ternary", (3, 3, 3), (True, False)),
            (48, 4, "ternary", (4, 6, 3), (True, False)),
        ],
    )
    def test_layouts_hit_budget_exactly(self, budget, input_dim, task, sizes, flags):
        model = build_dense_baseline(budget, input_dim, task, seed=0)
        assert model.layer_sizes == sizes
        assert model.bias_flags == flags
        assert model.params.size == budget

    @pytest.mark.parametrize(
        "budget,input_dim,task",
        [(21, 4, "regression"), (48, 3, "binary"), (30, 3, "regression")],
    )
    def test_unmatchable_budgets_rejected(self, budget, input_dim, task):
        with pytest.raises(ValueError):
            build_dense_baseline(budget, input_dim, task)

    def test_zero_params_give_zero_output(self):
        model = build_dense_baseline(21, 3, "regression")
        out = dense_forward(model, np.ones((4, 3)))
        assert np.allclose(out, 0.0)

    @pytest.mark.parametrize("task", ["regression", "binary", "ternary"])
    def test_gradient_matches_finite_difference(self, task):
        rng = np.random.default_rng(6)
        input_dim = 3
        X = rng.normal(size=(7, input_dim))
        if task == "regression":
            y = rng.normal(size=7)
        else:
            y = rng.integers(0, 3 if task == "ternary" else 2, size=7).astype(float)
        model = build_dense_baseline(21, input_dim, task, seed=1)
        loss, grad = _dense_loss_and_grad(model, X, y)
        h = 1e-6
        for k in range(model.params.size):
            up = model.params.copy()
            up[k] += h
            dn = model.params.copy()
            dn[k] -= h
            f_up, _ = _dense_loss_and_grad(
                DenseBaseline(model.layer_sizes, model.bias_flags, task, up), X, y
            )
            f_dn, _ = _dense_loss_and_grad(
                DenseBaseline(model.layer_sizes, model.bias_flags, task, dn), X, y
            )
            assert grad[k] == pytest.approx((f_up - f_dn) / (2 * h), abs=1e-6)

    def test_training_fits_linear_function(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(32, 3))
        y = X @ np.array([0.5, -0.3, 0.2])
        model = build_dense_baseline(21, 3, "regression", seed=3)
        model, history = dense_train(model, (X, y), epochs=400, lr=0.05)
        assert history[-1] < 5e-3
        assert history[-1] < history[0]

    def test_training_separates_binary_clusters(self):
        rng = np.random.default_rng(5)
        X = np.concatenate(
            [rng.normal(-1.0, 0.2, size=(12, 4)), rng.normal(1.0, 0.2, size=(12, 4))]
        )
        y = np.repeat([0.0, 1.0], 12)
        model = build_dense_baseline(48, 4, "binary", seed=4)
        model, _ = dense_train(model, (X, y), epochs=200, lr=0.05)
        assert np.mean(np.argmax(dense_predict(model, X), axis=1) == y) == 1.0

    def test_zero_epochs_rejected(self):
        model = build_dense_baseline(21, 3, "binary")
        with pytest.raises(ValueError):
            dense_train(model, (np.ones((4, 3)), np.zeros(4)), epochs=0)

    @pytest.mark.parametrize("flags, n", [((True, True), 21), ((True, False), 20)])
    def test_parameter_length_follows_the_bias_flags(self, flags, n):
        # w1 (3, 4) and w2 (4, 1) hold 16 entries, b1 4 and b2 1
        assert DenseBaseline((3, 4, 1), flags, "binary", np.zeros(n)).params.size == n
        with pytest.raises(ValueError, match="wrong length"):
            DenseBaseline((3, 4, 1), flags, "binary", np.zeros(n + 1))

    @pytest.mark.parametrize("task, label", [("binary", 2), ("binary", -1), ("ternary", -1)])
    @pytest.mark.parametrize("train", [qnn_train, dense_train])
    def test_labels_outside_the_classes_rejected(self, train, task, label):
        # a ternary -1 would train as class 2 through np.eye(3)[-1]
        if train is qnn_train:
            model = build_qnn(build_reuploading_ising(3, 1), task)
        else:
            model = build_dense_baseline(21, 3, task)
        y = np.array([0.0, 1.0, 0.0, label])
        with pytest.raises(ValueError, match="labels must be in"):
            train(model, (np.ones((4, 3)), y), epochs=1)

    def test_binary_tie_goes_to_lowest_class(self):
        # zero parameters give a zero logit, and sigmoid(0) is exactly 0.5
        model = build_dense_baseline(21, 3, "binary")
        X = np.ones((2, 3))
        probs = dense_predict(model, X)
        assert probs.tolist() == [[0.5, 0.5], [0.5, 0.5]]
        assert np.argmax(probs, axis=1).tolist() == [0, 0]

    @pytest.mark.parametrize("task", ["binary", "ternary"])
    def test_labels_are_argmax_of_probabilities(self, task):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(9, 3))
        model = build_dense_baseline(21, 3, task, seed=2)
        probs = dense_predict(model, X)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        # sigmoid and softmax keep the order of the network's raw outputs
        out = dense_forward(model, X)
        scores = np.column_stack([-out[:, 0], out[:, 0]]) if task == "binary" else out
        assert np.array_equal(np.argmax(probs, axis=1), np.argmax(scores, axis=1))



class TestSerialization:
    def test_wrong_kind_rejected(self):
        # a classifier's document does not read as a regression QNN
        doc = json.loads(model_to_json(build_vqc_classifier(2, 2, seed=0)))
        assert type(model_from_json(json.dumps(doc))) is VqcClassifier
        with pytest.raises(ValueError, match="holds exactly the keys"):
            model_from_json(json.dumps(dict(doc, **{"class": "QnnModel"})))
