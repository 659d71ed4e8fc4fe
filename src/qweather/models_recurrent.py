"""Recurrent sequence models with variational-circuit gates.

The quantum LSTM replaces each gate of a classical LSTM cell with a
variational circuit read out as per-qubit Z expectations; two further
circuits project the cell output to the hidden state and to the scalar
prediction.  The quantum GRU does the same for reset/update/candidate
gates.  Classical LSTM/GRU baselines with the dual-bias convention are
provided for parameter-count comparisons.

Each cell's step function is the one place its forward arithmetic lives.
Prediction and training run the same loop over the steps; training then
hands the step records to the cell's backward function (backpropagation
through time, with an adjoint vector-Jacobian product through each gate
circuit) and takes full-batch Adam steps on next-step mean squared error.
The records keep each gate circuit's final states, so the adjoint starts
from them and no circuit is simulated twice in a step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .autodiff import circuit_vjp
from .circuits import Circuit, build_qlstm_vqc, run_circuit_batch
from .models_qnn import INIT_ANGLE, _sigmoid
from .optim import adam_init, adam_step
from .qsim import z_expectations

QLSTM_GATES = ("forget", "input", "update", "output", "hidden", "readout")
QGRU_GATES = ("reset", "update", "candidate")


def make_windows(features, target, window: int = 4, stride: int = 1):
    """Sliding windows plus the value one step past each window.

    ``features`` is (n, d), ``target`` is (n,); returns X of shape
    (m, window, d) and y of shape (m,) with y[i] = target[i * stride + window].
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    target = np.asarray(target, dtype=float).ravel()
    if features.shape[0] != target.size:
        raise ValueError("features and target must have equal length")
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be >= 1")
    n = target.size
    if n <= window:
        raise ValueError(f"need more than {window} rows, got {n}")
    starts = range(0, n - window, stride)
    X = np.stack([features[s : s + window] for s in starts])
    y = np.array([target[s + window] for s in starts])
    return X, y


@dataclass(frozen=True)
class _QuantumCell:
    """Recurrent cell whose gates are variational circuits.

    The hidden state is a per-qubit readout, so hidden_size always equals
    n_qubits.  Parameters are one flat vector: one circuit block per gate,
    then the shared input map (weights and bias), then the scalar head.
    """

    kind: ClassVar[str]
    gates: ClassVar[tuple[str, ...]]
    circuit: Circuit
    input_dim: int
    n_qubits: int
    hidden_size: int
    n_layers: int
    params: np.ndarray

    def __post_init__(self):
        if self.hidden_size != self.n_qubits:
            raise ValueError("hidden_size must equal n_qubits")
        if len(self.params) != _quantum_param_count(
            self.gates, self.input_dim, self.n_qubits, self.n_layers
        ):
            raise ValueError("parameter vector has the wrong length")

    @property
    def n_circuit_params(self) -> int:
        return len(self.gates) * self.circuit.n_trainable


@dataclass(frozen=True)
class QlstmCell(_QuantumCell):
    """LSTM cell: a projection circuit turns the cell output into the
    hidden state and a readout circuit feeds the head."""

    kind: ClassVar[str] = "qlstm"
    gates: ClassVar[tuple[str, ...]] = QLSTM_GATES


@dataclass(frozen=True)
class QgruCell(_QuantumCell):
    """GRU cell with circuit-valued reset, update, and candidate gates."""

    kind: ClassVar[str] = "qgru"
    gates: ClassVar[tuple[str, ...]] = QGRU_GATES


@dataclass(frozen=True)
class ClassicalRnnBaseline:
    """Plain LSTM or GRU with separate input and hidden biases per gate."""

    kind: str
    input_dim: int
    hidden_size: int
    params: np.ndarray

    def __post_init__(self):
        if self.kind not in ("lstm", "gru"):
            raise ValueError(f"kind must be 'lstm' or 'gru', got {self.kind!r}")
        if len(self.params) != classical_param_count(
            self.kind, self.input_dim, self.hidden_size
        ):
            raise ValueError("parameter vector has the wrong length")


def _affine_sizes(input_dim, n_qubits):
    # shared input map (input_dim + hidden) -> n_qubits, then head n_qubits -> 1
    in_dim = input_dim + n_qubits
    return in_dim * n_qubits, n_qubits, n_qubits, 1


def _quantum_param_count(gates, input_dim, n_qubits, n_layers) -> int:
    per_vqc = 3 * n_qubits * n_layers
    return len(gates) * per_vqc + sum(_affine_sizes(input_dim, n_qubits))


def qlstm_param_count(input_dim, n_qubits=4, n_layers=2) -> int:
    return _quantum_param_count(QLSTM_GATES, input_dim, n_qubits, n_layers)


def qgru_param_count(input_dim, n_qubits=4, n_layers=2) -> int:
    return _quantum_param_count(QGRU_GATES, input_dim, n_qubits, n_layers)


def classical_param_count(kind, input_dim, hidden_size) -> int:
    gates = 4 if kind == "lstm" else 3
    recur = gates * ((input_dim + hidden_size) * hidden_size + 2 * hidden_size)
    return recur + hidden_size + 1


def count_params(model) -> int:
    return int(model.params.size)


def _init_quantum_params(input_dim, n_qubits, n_vqc_blocks, per_vqc, seed):
    w_n, b_n, hw_n, hb_n = _affine_sizes(input_dim, n_qubits)
    total = n_vqc_blocks * per_vqc + w_n + b_n + hw_n + hb_n
    if seed is None:
        return np.zeros(total)
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-INIT_ANGLE, INIT_ANGLE, size=n_vqc_blocks * per_vqc)
    bound = 1.0 / np.sqrt(input_dim + n_qubits)
    affine = rng.uniform(-bound, bound, size=w_n + b_n + hw_n + hb_n)
    return np.concatenate([angles, affine])


def build_qlstm(
    input_dim: int, n_qubits: int = 4, n_layers: int = 2, seed=None
) -> QlstmCell:
    circuit = build_qlstm_vqc(n_qubits, n_layers)
    params = _init_quantum_params(
        input_dim, n_qubits, len(QLSTM_GATES), circuit.n_trainable, seed
    )
    return QlstmCell(circuit, input_dim, n_qubits, n_qubits, n_layers, params)


def build_qgru(
    input_dim: int, n_qubits: int = 4, n_layers: int = 2, seed=None
) -> QgruCell:
    circuit = build_qlstm_vqc(n_qubits, n_layers)
    params = _init_quantum_params(
        input_dim, n_qubits, len(QGRU_GATES), circuit.n_trainable, seed
    )
    return QgruCell(circuit, input_dim, n_qubits, n_qubits, n_layers, params)


def build_classical_lstm(input_dim: int, hidden_size: int = 8, seed=None):
    n = classical_param_count("lstm", input_dim, hidden_size)
    params = _init_classical(n, hidden_size, seed)
    return ClassicalRnnBaseline("lstm", input_dim, hidden_size, params)


def build_classical_gru(input_dim: int, hidden_size: int = 16, seed=None):
    n = classical_param_count("gru", input_dim, hidden_size)
    params = _init_classical(n, hidden_size, seed)
    return ClassicalRnnBaseline("gru", input_dim, hidden_size, params)


def _init_classical(n, hidden_size, seed):
    if seed is None:
        return np.zeros(n)
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(hidden_size)
    return rng.uniform(-bound, bound, size=n)


def _head(model):
    # every parameter layout ends with the scalar head: hidden_size weights, then the bias
    hs = model.hidden_size
    return model.params[-hs - 1 : -1], model.params[-1]


def _unpack_quantum(cell):
    per = cell.circuit.n_trainable
    p = cell.params
    thetas = {g: p[i * per : (i + 1) * per] for i, g in enumerate(cell.gates)}
    k = len(cell.gates) * per
    in_dim = cell.input_dim + cell.hidden_size
    W = p[k : k + in_dim * cell.n_qubits].reshape(in_dim, cell.n_qubits)
    k += in_dim * cell.n_qubits
    b = p[k : k + cell.n_qubits]
    return thetas, W, b


def _gate_readout(cell: _QuantumCell, thetas, name, inputs, tape):
    """Per-qubit <Z> of gate circuit ``name`` on ``inputs``.

    Its final states go into ``tape[name]``; backpropagation hands them to
    ``circuit_vjp`` in place of a second forward sweep.
    """
    tape[name] = run_circuit_batch(cell.circuit, thetas[name], inputs)
    return z_expectations(tape[name], cell.n_qubits, range(cell.n_qubits))


def qlstm_step(cell: QlstmCell, x_t, h, c):
    """One step: (x_t, h, c) -> ((h', c'), record).

    Shapes are batched: x_t (B, input_dim), h and c (B, hidden_size).
    Gate values come from circuits evaluated on the shared affine map v of
    u = [x_t; h]; c' = f*c + i*g and the projection circuit turns
    u2 = o*tanh(c') into the next hidden state.  The record holds every
    intermediate that backpropagation through time reads, the gate
    circuits' final states (``tape``) among them.
    """
    thetas, W, b = _unpack_quantum(cell)
    tape = {}
    u = np.concatenate([x_t, h], axis=1)
    v = u @ W + b
    f = _sigmoid(_gate_readout(cell, thetas, "forget", v, tape))
    i = _sigmoid(_gate_readout(cell, thetas, "input", v, tape))
    g = np.tanh(_gate_readout(cell, thetas, "update", v, tape))
    o = _sigmoid(_gate_readout(cell, thetas, "output", v, tape))
    c_next = f * c + i * g
    s = np.tanh(c_next)
    u2 = o * s
    h_next = _gate_readout(cell, thetas, "hidden", u2, tape)
    record = dict(u=u, v=v, c_prev=c, f=f, i=i, g=g, o=o, s=s, u2=u2, tape=tape)
    return (h_next, c_next), record


def _qlstm_readout(cell: QlstmCell, rec):
    # the readout circuit's states join the last step's tape
    thetas, _, _ = _unpack_quantum(cell)
    return _gate_readout(cell, thetas, "readout", rec["u2"], rec["tape"])


def qgru_step(cell: QgruCell, x_t, h):
    """One step: (x_t, h) -> ((h',), record) with h' = (1 - z)*h + z*g.

    The candidate gate sees the input map of u2 = [x_t; r*h], reusing the
    same affine map that feeds the reset and update gates.
    """
    thetas, W, b = _unpack_quantum(cell)
    tape = {}
    u = np.concatenate([x_t, h], axis=1)
    v = u @ W + b
    r = _sigmoid(_gate_readout(cell, thetas, "reset", v, tape))
    z = _sigmoid(_gate_readout(cell, thetas, "update", v, tape))
    u2 = np.concatenate([x_t, r * h], axis=1)
    v2 = u2 @ W + b
    g = np.tanh(_gate_readout(cell, thetas, "candidate", v2, tape))
    h_next = (1.0 - z) * h + z * g
    record = dict(u=u, v=v, u2=u2, v2=v2, r=r, z=z, g=g, h_prev=h, tape=tape)
    return (h_next,), record


def _unpack_classical(model):
    gates = 4 if model.kind == "lstm" else 3
    d, hs = model.input_dim, model.hidden_size
    p = model.params
    k = 0
    W_ih = p[k : k + gates * hs * d].reshape(gates * hs, d)
    k += gates * hs * d
    W_hh = p[k : k + gates * hs * hs].reshape(gates * hs, hs)
    k += gates * hs * hs
    b_ih = p[k : k + gates * hs]
    k += gates * hs
    b_hh = p[k : k + gates * hs]
    return W_ih, W_hh, b_ih, b_hh


def lstm_step(model: ClassicalRnnBaseline, x_t, h, c):
    """One step: (x_t, h, c) -> ((h', c'), record) with gates in i, f, g, o order."""
    W_ih, W_hh, b_ih, b_hh = _unpack_classical(model)
    hs = model.hidden_size
    pre = x_t @ W_ih.T + b_ih + h @ W_hh.T + b_hh
    i = _sigmoid(pre[:, 0:hs])
    f = _sigmoid(pre[:, hs : 2 * hs])
    g = np.tanh(pre[:, 2 * hs : 3 * hs])
    o = _sigmoid(pre[:, 3 * hs :])
    c_next = f * c + i * g
    s = np.tanh(c_next)
    h_next = o * s
    return (h_next, c_next), dict(x=x_t, h_prev=h, c_prev=c, i=i, f=f, g=g, o=o, s=s)


def gru_step(model: ClassicalRnnBaseline, x_t, h):
    """One step: (x_t, h) -> ((h',), record) with h' = (1 - z)*n + z*h."""
    W_ih, W_hh, b_ih, b_hh = _unpack_classical(model)
    hs = model.hidden_size
    gi = x_t @ W_ih.T + b_ih
    gh = h @ W_hh.T + b_hh
    r = _sigmoid(gi[:, 0:hs] + gh[:, 0:hs])
    z = _sigmoid(gi[:, hs : 2 * hs] + gh[:, hs : 2 * hs])
    n = np.tanh(gi[:, 2 * hs :] + r * gh[:, 2 * hs :])
    h_next = (1.0 - z) * n + z * h
    return (h_next,), dict(x=x_t, h_prev=h, r=r, z=z, n=n, gh_n=gh[:, 2 * hs :])


def _qlstm_backward(cell: QlstmCell, steps, q, dy):
    thetas, W, b = _unpack_quantum(cell)
    head_w, _ = _head(cell)
    per = cell.circuit.n_trainable
    qubits = tuple(range(cell.n_qubits))
    B, T = dy.size, len(steps)
    grad_theta = {name: np.zeros(per) for name in QLSTM_GATES}

    def vjp(name, rec, inputs, weights):
        d_theta, d_inputs = circuit_vjp(
            cell.circuit, thetas[name], inputs, rec["tape"][name], qubits, weights
        )
        grad_theta[name] += d_theta
        return d_inputs

    grad_W = np.zeros_like(W)
    grad_b = np.zeros_like(b)
    grad_head_w = q.T @ dy
    grad_head_b = dy.sum()

    dq = dy[:, None] * head_w[None, :]
    du2 = vjp("readout", steps[-1], steps[-1]["u2"], dq)
    dh = np.zeros((B, cell.hidden_size))
    dc = np.zeros((B, cell.hidden_size))
    for t in range(T - 1, -1, -1):
        rec = steps[t]
        du2_t = du2 if t == T - 1 else vjp("hidden", rec, rec["u2"], dh)
        do = du2_t * rec["s"]
        dc = dc + du2_t * rec["o"] * (1.0 - rec["s"] ** 2)
        df = dc * rec["c_prev"]
        di = dc * rec["g"]
        dg = dc * rec["i"]
        dc = dc * rec["f"]
        dz = {
            "forget": df * rec["f"] * (1.0 - rec["f"]),
            "input": di * rec["i"] * (1.0 - rec["i"]),
            "update": dg * (1.0 - rec["g"] ** 2),
            "output": do * rec["o"] * (1.0 - rec["o"]),
        }
        dv = np.zeros((B, cell.n_qubits))
        for name in ("forget", "input", "update", "output"):
            dv += vjp(name, rec, rec["v"], dz[name])
        grad_W += rec["u"].T @ dv
        grad_b += dv.sum(axis=0)
        du = dv @ W.T
        dh = du[:, cell.input_dim :]
    return np.concatenate(
        [grad_theta[name] for name in QLSTM_GATES]
        + [grad_W.ravel(), grad_b, grad_head_w, [grad_head_b]]
    )


def _qgru_backward(cell: QgruCell, steps, h, dy):
    thetas, W, b = _unpack_quantum(cell)
    head_w, _ = _head(cell)
    per = cell.circuit.n_trainable
    qubits = tuple(range(cell.n_qubits))
    T = len(steps)
    grad_theta = {name: np.zeros(per) for name in QGRU_GATES}

    def vjp(name, rec, inputs, weights):
        d_theta, d_inputs = circuit_vjp(
            cell.circuit, thetas[name], inputs, rec["tape"][name], qubits, weights
        )
        grad_theta[name] += d_theta
        return d_inputs

    grad_W = np.zeros_like(W)
    grad_b = np.zeros_like(b)
    grad_head_w = h.T @ dy
    grad_head_b = dy.sum()
    dh = dy[:, None] * head_w[None, :]
    for t in range(T - 1, -1, -1):
        rec = steps[t]
        dz = dh * (rec["g"] - rec["h_prev"])
        dg = dh * rec["z"]
        dh_prev = dh * (1.0 - rec["z"])
        dzg = dg * (1.0 - rec["g"] ** 2)
        dv2 = vjp("candidate", rec, rec["v2"], dzg)
        grad_W += rec["u2"].T @ dv2
        grad_b += dv2.sum(axis=0)
        du2 = dv2 @ W.T
        drh = du2[:, cell.input_dim :]
        dr = drh * rec["h_prev"]
        dh_prev = dh_prev + drh * rec["r"]
        dzr = dr * rec["r"] * (1.0 - rec["r"])
        dzz = dz * rec["z"] * (1.0 - rec["z"])
        dv = vjp("reset", rec, rec["v"], dzr) + vjp("update", rec, rec["v"], dzz)
        grad_W += rec["u"].T @ dv
        grad_b += dv.sum(axis=0)
        du = dv @ W.T
        dh = dh_prev + du[:, cell.input_dim :]
    return np.concatenate(
        [grad_theta[name] for name in QGRU_GATES]
        + [grad_W.ravel(), grad_b, grad_head_w, [grad_head_b]]
    )


def _lstm_backward(model: ClassicalRnnBaseline, steps, h, dy):
    W_ih, W_hh, b_ih, b_hh = _unpack_classical(model)
    head_w, _ = _head(model)
    B, T = dy.size, len(steps)
    g_W_ih = np.zeros_like(W_ih)
    g_W_hh = np.zeros_like(W_hh)
    g_b_ih = np.zeros_like(b_ih)
    g_b_hh = np.zeros_like(b_hh)
    g_head_w = h.T @ dy
    g_head_b = dy.sum()
    dh = dy[:, None] * head_w[None, :]
    dc = np.zeros((B, model.hidden_size))
    for t in range(T - 1, -1, -1):
        rec = steps[t]
        do = dh * rec["s"]
        dc = dc + dh * rec["o"] * (1.0 - rec["s"] ** 2)
        df = dc * rec["c_prev"]
        di = dc * rec["g"]
        dg = dc * rec["i"]
        dc = dc * rec["f"]
        dpre = np.concatenate(
            [
                di * rec["i"] * (1 - rec["i"]),
                df * rec["f"] * (1 - rec["f"]),
                dg * (1 - rec["g"] ** 2),
                do * rec["o"] * (1 - rec["o"]),
            ],
            axis=1,
        )
        g_W_ih += dpre.T @ rec["x"]
        g_W_hh += dpre.T @ rec["h_prev"]
        g_b_ih += dpre.sum(axis=0)
        g_b_hh += dpre.sum(axis=0)
        dh = dpre @ W_hh
    return np.concatenate(
        [g_W_ih.ravel(), g_W_hh.ravel(), g_b_ih, g_b_hh, g_head_w, [g_head_b]]
    )


def _gru_backward(model: ClassicalRnnBaseline, steps, h, dy):
    W_ih, W_hh, b_ih, b_hh = _unpack_classical(model)
    head_w, _ = _head(model)
    T = len(steps)
    g_W_ih = np.zeros_like(W_ih)
    g_W_hh = np.zeros_like(W_hh)
    g_b_ih = np.zeros_like(b_ih)
    g_b_hh = np.zeros_like(b_hh)
    g_head_w = h.T @ dy
    g_head_b = dy.sum()
    dh = dy[:, None] * head_w[None, :]
    for t in range(T - 1, -1, -1):
        rec = steps[t]
        dz = dh * (rec["h_prev"] - rec["n"])
        dn = dh * (1.0 - rec["z"])
        dh_prev = dh * rec["z"]
        dpre_n = dn * (1.0 - rec["n"] ** 2)
        dr = dpre_n * rec["gh_n"]
        dpre_r = dr * rec["r"] * (1.0 - rec["r"])
        dpre_z = dz * rec["z"] * (1.0 - rec["z"])
        gi_rows = np.concatenate([dpre_r, dpre_z, dpre_n], axis=1)
        gh_rows = np.concatenate([dpre_r, dpre_z, dpre_n * rec["r"]], axis=1)
        g_W_ih += gi_rows.T @ rec["x"]
        g_W_hh += gh_rows.T @ rec["h_prev"]
        g_b_ih += gi_rows.sum(axis=0)
        g_b_hh += gh_rows.sum(axis=0)
        dh = dh_prev + gh_rows @ W_hh
    return np.concatenate(
        [g_W_ih.ravel(), g_W_hh.ravel(), g_b_ih, g_b_hh, g_head_w, [g_head_b]]
    )


def _cell_ops(model):
    """(step, number of state arrays, readout circuit or None, backward);
    built per call, so a rebound module global (perfbench's tracer) is used."""
    return {
        "qlstm": (qlstm_step, 2, _qlstm_readout, _qlstm_backward),
        "qgru": (qgru_step, 1, None, _qgru_backward),
        "lstm": (lstm_step, 2, None, _lstm_backward),
        "gru": (gru_step, 1, None, _gru_backward),
    }[model.kind]


def _run(model, X):
    """Run each window through the cell from a zero state.

    Returns the per-step records, the head's input and the predictions.
    The head's input is the final hidden state, except for qlstm, where it
    is the readout circuit on the last step's u2.
    """
    step, n_state, readout, _ = _cell_ops(model)
    B, T, _ = X.shape
    state = tuple(np.zeros((B, model.hidden_size)) for _ in range(n_state))
    steps = []
    for t in range(T):
        state, rec = step(model, X[:, t], *state)
        steps.append(rec)
    head_in = state[0] if readout is None else readout(model, steps[-1])
    head_w, head_b = _head(model)
    return steps, head_in, head_in @ head_w + head_b


def sequence_forward(model, X) -> np.ndarray:
    """Predictions y (B,) after running each window through the cell."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 2:
        X = X[None]
    return _run(model, X)[2]


def sequence_loss_and_grad(model, X, y):
    """Full-batch MSE of final-step predictions and its exact gradient.

    The forward pass is the one ``sequence_forward`` runs; the cell's
    backward function then walks its step records in reverse.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 3:
        raise ValueError("windows must have shape (batch, steps, features)")
    if X.shape[0] != y.size:
        raise ValueError("window count and target count differ")
    steps, head_in, yhat = _run(model, X)
    resid = yhat - y
    dy = (2.0 / y.size) * resid
    backward = _cell_ops(model)[3]
    return float(np.mean(resid**2)), backward(model, steps, head_in, dy)


def _reinitialized(model, seed):
    if isinstance(model, _QuantumCell):
        build = build_qlstm if model.kind == "qlstm" else build_qgru
        return build(model.input_dim, model.n_qubits, model.n_layers, seed=seed)
    params = _init_classical(model.params.size, model.hidden_size, seed)
    return replace(model, params=params)


def train_sequence_model(model, windows, targets, epochs: int, lr: float = 0.01, seed=None):
    """Adam on next-step MSE; targets are expected already scaled.

    Passing ``seed`` re-initializes the parameters first, so a fixed seed
    reproduces the loss history exactly.
    """
    X = np.asarray(windows, dtype=float)
    y = np.asarray(targets, dtype=float).ravel()
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if X.ndim != 3 or X.shape[0] == 0:
        raise ValueError("windows must be a non-empty (batch, steps, features) array")
    if seed is not None:
        model = _reinitialized(model, seed)
    params = model.params.copy()
    state = adam_init(params.size, learning_rate=lr)
    history = []
    for _ in range(epochs):
        loss, grad = sequence_loss_and_grad(replace(model, params=params), X, y)
        history.append(loss)
        state, params = adam_step(state, params, grad)
    return replace(model, params=params), history


def recurrent_to_json(model, seed=None) -> str:
    doc = {
        "kind": model.kind,
        "input_dim": model.input_dim,
        "values": model.params.tolist(),
        "seed": seed,
    }
    if isinstance(model, ClassicalRnnBaseline):
        doc["hidden_size"] = model.hidden_size
    else:
        doc.update(
            layout=model.circuit.name, n_qubits=model.n_qubits, n_layers=model.n_layers
        )
    return json.dumps(doc, sort_keys=True)


def recurrent_from_json(text: str):
    doc = json.loads(text)
    kind = doc.get("kind")
    values = np.asarray(doc["values"], dtype=float)
    if kind in ("qlstm", "qgru"):
        n_qubits, n_layers = doc["n_qubits"], doc["n_layers"]
        cls = QlstmCell if kind == "qlstm" else QgruCell
        circuit = build_qlstm_vqc(n_qubits, n_layers)
        return cls(circuit, doc["input_dim"], n_qubits, n_qubits, n_layers, values)
    if kind in ("lstm", "gru"):
        return ClassicalRnnBaseline(kind, doc["input_dim"], doc["hidden_size"], values)
    raise ValueError(f"unknown model kind {kind!r}")
