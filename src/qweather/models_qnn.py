"""Feed-forward quantum models and their parameter-matched dense baselines.

QnnModel reads per-qubit Z expectations off a reuploading circuit.
Regression takes targets already scaled to [0, 1], trains <Z> against
2y - 1 and predicts (<Z> + 1)/2; binary classification uses
p(class 1) = (1 - <Z>)/2, ternary applies softmax over three readouts.
VqcClassifier runs a trainable ansatz behind a feature map and aggregates
basis-state probabilities by a readout rule (bitstring parity for binary,
basis index mod n_classes for ternary); it trains derivative-free.  The
feature map reads only inputs, so a fit simulates it once and every COBYLA
evaluation runs the ansatz from those cached states; it runs every gate on
its own, so its float arithmetic stays that of the per-gate path.  QNN
training binds its circuit to each epoch's angles once, runs the forward
pass under that binding and keeps the forward states for ``circuit_vjp``,
which reuses the binding and, as the loss reads no input gradient, sweeps
back only as far as the trainable angles.
Every model here has one scorer: ``qnn_predict``, ``vqc_probabilities`` and
``dense_predict`` return values in the [0, 1] target space (regression) or
(n, n_classes) class probabilities; the harness takes the labels.
Every trained model here and in ``models_recurrent`` shares one loss per
task (``_task_loss``, where a family supplies only its binary link), one
parameter layout (``_unpack``/``_flat``) and one seeded draw (``_uniform``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .autodiff import bind, circuit_vjp
from .circuits import (
    Circuit,
    build_real_amplitudes,
    build_zz_feature_map,
    run_circuit_batch,
)
from .optim import adam_init, adam_step, cobyla_minimize
from .qsim import z_expectations

INIT_ANGLE = np.pi / 8


def _uniform(n: int, bound: float, seed) -> np.ndarray:
    """Zeros when seed is None, else n seeded uniform draws in +-bound."""
    if seed is None:
        return np.zeros(n)
    return np.random.default_rng(seed).uniform(-bound, bound, size=n)


def init_params(n: int, seed) -> np.ndarray:
    """Small random angles; zeros when seed is None."""
    return _uniform(n, INIT_ANGLE, seed)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# A binary link: p(class 1) from the one score column, and the gradient of the
# mean binary cross-entropy with respect to that score at the clipped p, labels
# y and row count n.  A QNN reads p1 = (1 - <Z>)/2, a dense baseline a sigmoid.
_QNN_LINK = (
    lambda z: (1.0 - z) / 2.0,
    lambda p, y, n: (-y / p + (1 - y) / (1 - p)) * (-0.5) / n,
)
_DENSE_LINK = (_sigmoid, lambda p, y, n: (p - y) / n)


def _class_probabilities(task, scores, link):
    """(n, 2) from the binary link, or the softmax over three scores."""
    if task == "binary":
        p1 = link[0](scores[:, 0])
        return np.column_stack([1.0 - p1, p1])
    return _softmax(scores)


def _cross_entropy(p, y):
    """Mean -log of each row's probability of its label."""
    return float(-np.mean(np.log(np.clip(p[np.arange(len(y)), y.astype(int)], 1e-12, None))))


def _task_loss(task, scores, y, link=None):
    """(loss, gradient with respect to ``scores``) of the task's mean loss:
    the MSE of the one score, the cross-entropy of the ``link``'s p(class 1),
    or (ternary, three scores) the cross-entropy of their softmax."""
    n = scores.shape[0]
    if task == "regression":
        resid = scores[:, 0] - y
        return float(np.mean(resid**2)), (2.0 / n) * resid[:, None]
    if task == "binary":
        p = np.clip(link[0](scores[:, 0]), 1e-12, 1.0 - 1e-12)
        loss = float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))
        return loss, link[1](p, y, n)[:, None]
    p = _softmax(scores)
    return _cross_entropy(p, y), (p - np.eye(3)[y.astype(int)]) / n


@dataclass(frozen=True)
class QnnModel:
    circuit: Circuit
    params: np.ndarray
    task: str

    def __post_init__(self):
        if self.task not in ("regression", "binary", "ternary"):
            raise ValueError(f"unknown task {self.task!r}")
        if len(self.readout) > self.circuit.n_qubits:
            raise ValueError(f"{self.task} readout needs {len(self.readout)} qubits")
        if len(self.params) != self.circuit.n_trainable:
            raise ValueError("parameter length does not match circuit")

    @property
    def readout(self) -> tuple:
        """The qubits whose <Z> the task reads: three for ternary, else one."""
        return (0, 1, 2) if self.task == "ternary" else (0,)


def build_qnn(circuit: Circuit, task: str, seed=None) -> QnnModel:
    return QnnModel(
        circuit=circuit,
        params=init_params(circuit.n_trainable, seed),
        task=task,
    )


def qnn_expectations(model: QnnModel, X) -> np.ndarray:
    """Readout expectations for a batch, shape (n, len(readout))."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    psi = run_circuit_batch(model.circuit, model.params, X)
    return z_expectations(psi, model.circuit.n_qubits, model.readout)


def qnn_predict(model: QnnModel, X) -> np.ndarray:
    """Values in the [0, 1] target space (regression), or class
    probabilities, shape (n, 2) or (n, 3)."""
    z = qnn_expectations(model, X)
    if model.task == "regression":
        return (z[:, 0] + 1.0) / 2.0
    return _class_probabilities(model.task, z, _QNN_LINK)


def _fit_data(task, dataset):
    """(X, y) of a fit as float arrays, once the rows are not empty and a
    classifier's labels lie in [0, n_classes)."""
    X, y = dataset
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] == 0:
        raise ValueError("dataset is empty")
    n_classes = {"binary": 2, "ternary": 3}.get(task)
    if n_classes is not None and np.any((y < 0) | (y >= n_classes)):
        raise ValueError(f"labels must be in [0, {n_classes})")
    return X, y


def _adam_fit(loss_and_grad, model, X, y, epochs, lr):
    """Full-batch Adam from the model's parameters on ``loss_and_grad(model,
    X, y) -> (loss, gradient)``; the trained model and each epoch's loss.
    It calls ``adam_step`` through this module, where perfbench patches it."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    params = model.params.copy()
    state = adam_init(params.size, learning_rate=lr)
    history = []
    for _ in range(epochs):
        loss, grad = loss_and_grad(replace(model, params=params), X, y)
        history.append(loss)
        state, params = adam_step(state, params, grad)
    return replace(model, params=params), history


@lru_cache(maxsize=None)
def _slices(blocks):
    """((name, slice, shape), ...) of (name, shape) blocks laid end to end
    in a parameter vector, and the vector's length."""
    table, k = [], 0
    for name, shape in blocks:
        n = math.prod(shape)
        table.append((name, slice(k, k + n), shape))
        k += n
    return tuple(table), k


def _unpack(model):
    """The blocks of the model's ``layout`` by name, as views of its vector."""
    table, _ = _slices(model.layout)
    return {name: model.params[s].reshape(shape) for name, s, shape in table}


def _flat(model, blocks):
    """Blocks named as in the model's layout, packed into one vector."""
    return np.concatenate([np.ravel(blocks[name]) for name, _ in model.layout])


def _qnn_loss_and_grad(model: QnnModel, X, y_enc):
    # one binding of the epoch's angles serves the forward pass and the VJP;
    # the forward states are the tape circuit_vjp reverses
    bound = bind(model.circuit, model.params, X.shape[0])
    psi = run_circuit_batch(model.circuit, model.params, X, bound=bound)
    z = z_expectations(psi, model.circuit.n_qubits, model.readout)
    loss, dl_dz = _task_loss(model.task, z, y_enc, _QNN_LINK)
    # the loss reads no input gradient, so the sweep takes none
    grad, _ = circuit_vjp(
        model.circuit, model.params, X, psi, model.readout, dl_dz, bound, wrt_inputs=False
    )
    return loss, grad


def qnn_train(model: QnnModel, dataset, epochs: int, lr: float = 0.01):
    """Full-batch Adam from the model's parameters, on the MSE of <Z>
    against 2y - 1 (regression, y in [0, 1]) or on cross-entropy."""
    X, y = _fit_data(model.task, dataset)
    y_enc = 2.0 * y - 1.0 if model.task == "regression" else y
    return _adam_fit(_qnn_loss_and_grad, model, X, y_enc, epochs, lr)


# a classifier's readout rule by class count: the masks and readout_rule read it
_READOUT_RULES = {2: "parity", 3: "mod"}


@dataclass(frozen=True)
class VqcClassifier:
    feature_map: Circuit
    ansatz: Circuit
    params: np.ndarray
    n_classes: int

    def __post_init__(self):
        if self.n_classes not in (2, 3):
            raise ValueError("n_classes must be 2 or 3")
        if self.feature_map.n_qubits != self.ansatz.n_qubits:
            raise ValueError("feature map and ansatz must share the qubit count")
        if len(self.params) != self.ansatz.n_trainable:
            raise ValueError("parameter length does not match ansatz")
        if self.feature_map.n_trainable or self.ansatz.n_inputs:
            raise ValueError("the feature map reads only inputs, the ansatz only parameters")

    @property
    def readout_rule(self) -> str:
        """Bitstring parity for two classes, basis index mod 3 for three."""
        return _READOUT_RULES[self.n_classes]


def build_vqc_classifier(n_features: int, n_classes: int, seed=None) -> VqcClassifier:
    """One repetition of the ZZ feature map, then real amplitudes with three."""
    feature_map = build_zz_feature_map(n_features, 1)
    ansatz = build_real_amplitudes(n_features, 3)
    return VqcClassifier(
        feature_map=feature_map,
        ansatz=ansatz,
        params=init_params(ansatz.n_trainable, seed),
        n_classes=n_classes,
    )


def readout_class_masks(n_qubits: int, n_classes: int) -> np.ndarray:
    """Boolean (n_classes, 2**n) masks mapping basis states to classes."""
    idx = np.arange(1 << n_qubits)
    if _READOUT_RULES[n_classes] == "parity":
        classes = np.bitwise_count(idx.astype(np.uint64)).astype(int) % 2
    else:
        classes = idx % n_classes
    return np.stack([classes == c for c in range(n_classes)])


def _vqc_fixed_part(clf: VqcClassifier, X):
    """What no trainable angle changes: the feature map's states of X and
    the readout masks."""
    states = run_circuit_batch(clf.feature_map, (), X)
    masks = readout_class_masks(clf.ansatz.n_qubits, clf.n_classes)
    return states, masks


def _vqc_class_probabilities(clf: VqcClassifier, theta, states, masks) -> np.ndarray:
    probs = np.abs(run_circuit_batch(clf.ansatz, theta, (), state=states)) ** 2
    return np.stack([probs[:, m].sum(axis=1) for m in masks], axis=1)


def vqc_probabilities(clf: VqcClassifier, X) -> np.ndarray:
    """Class probabilities per sample, shape (n, n_classes).

    The feature map runs first and the ansatz runs on its states: the same
    gates in the same order as one circuit of the map's ops then the
    ansatz's.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return _vqc_class_probabilities(clf, clf.params, *_vqc_fixed_part(clf, X))


def vqc_train(clf: VqcClassifier, dataset, iters: int = 150):
    """Derivative-free training of the ansatz on mean cross-entropy, from
    the classifier's parameters.

    The feature-map states and readout masks are built once per fit; each
    COBYLA evaluation runs only the ansatz.
    """
    X, y = _fit_data("binary" if clf.n_classes == 2 else "ternary", dataset)
    states, masks = _vqc_fixed_part(clf, X)
    history = []

    def objective(theta):
        loss = _cross_entropy(_vqc_class_probabilities(clf, theta, states, masks), y)
        history.append(loss)
        return loss

    result = cobyla_minimize(objective, clf.params, max_iters=iters)
    return replace(clf, params=result.x_best), history


_DENSE_LAYOUTS = {
    # (budget, input_dim, output_dim) -> (hidden, hidden_bias, out_bias)
    (21, 3, 1): (4, True, True),
    (48, 4, 1): (8, True, False),
    (21, 3, 3): (3, True, False),
    (48, 4, 3): (6, True, False),
}


@dataclass(frozen=True)
class DenseBaseline:
    layer_sizes: tuple
    bias_flags: tuple
    task: str
    params: np.ndarray

    def __post_init__(self):
        if len(self.params) != _slices(self.layout)[1]:
            raise ValueError("parameter vector has the wrong length")

    @property
    def layout(self) -> tuple:
        """(name, shape) blocks: w1, b1 if flagged, w2, b2 if flagged."""
        (d, h, o), (bias_h, bias_o) = self.layer_sizes, self.bias_flags
        blocks = (("w1", (d, h)), ("b1", (h,)), ("w2", (h, o)), ("b2", (o,)))
        return tuple(b for b, kept in zip(blocks, (True, bias_h, True, bias_o)) if kept)


def build_dense_baseline(budget: int, input_dim: int, task: str, seed=None):
    """Single-hidden-layer tanh network hitting the parameter budget exactly."""
    if task not in ("regression", "binary", "ternary"):
        raise ValueError(f"unknown task {task!r}")
    out_dim = 3 if task == "ternary" else 1
    key = (budget, input_dim, out_dim)
    if key not in _DENSE_LAYOUTS:
        raise ValueError(
            f"no exact {budget}-parameter decomposition for input_dim={input_dim}, "
            f"task={task}"
        )
    hidden, bias_h, bias_o = _DENSE_LAYOUTS[key]
    return DenseBaseline(
        layer_sizes=(input_dim, hidden, out_dim),
        bias_flags=(bias_h, bias_o),
        task=task,
        params=_uniform(budget, 0.5, seed),
    )


def _dense_layers(p, X):
    """The hidden activations and raw outputs of blocks ``p`` on rows X; an
    unflagged bias adds 0.0."""
    hidden = np.tanh(X @ p["w1"] + p.get("b1", 0.0))
    return hidden, hidden @ p["w2"] + p.get("b2", 0.0)


def dense_forward(model: DenseBaseline, X) -> np.ndarray:
    """Raw outputs (n, out_dim): values, logits, or class scores."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return _dense_layers(_unpack(model), X)[1]


def dense_predict(model: DenseBaseline, X) -> np.ndarray:
    """Values (regression), or class probabilities, shape (n, 2) or (n, 3)."""
    out = dense_forward(model, X)
    if model.task == "regression":
        return out[:, 0]
    return _class_probabilities(model.task, out, _DENSE_LINK)


def _dense_loss_and_grad(model: DenseBaseline, X, y):
    p = _unpack(model)
    hidden, out = _dense_layers(p, X)
    loss, d_out = _task_loss(model.task, out, y, _DENSE_LINK)
    d_hidden = (d_out @ p["w2"].T) * (1 - hidden**2)
    grads = dict(w1=X.T @ d_hidden, b1=d_hidden.sum(axis=0))
    grads.update(w2=hidden.T @ d_out, b2=d_out.sum(axis=0))
    return loss, _flat(model, grads)


def dense_train(model: DenseBaseline, dataset, epochs: int, lr: float = 0.01):
    """Full-batch Adam from the model's parameters; mirrors the quantum
    training interface."""
    X, y = _fit_data(model.task, dataset)
    return _adam_fit(_dense_loss_and_grad, model, X, y, epochs, lr)
