"""Recurrent sequence models with variational-circuit gates.

The quantum LSTM replaces each gate of a classical LSTM cell with a
variational circuit read out as per-qubit Z expectations; two further
circuits project the cell output to the hidden state and to the scalar
prediction.  The quantum GRU does the same for reset/update/candidate
gates.  Classical LSTM/GRU baselines with the dual-bias convention are
provided for parameter-count comparisons.  Every cell's vector follows its
``layout``, cut and packed by ``models_qnn``'s layout helpers.

Each cell's step function is the one place its forward arithmetic lives.
Prediction and training run the same loop over the steps; training then
hands the step records to the cell's backward function (backpropagation
through time, with an adjoint vector-Jacobian product through each gate
circuit) and takes full-batch Adam steps on next-step MSE (``_task_loss``).
The gates that read the same input map form a gate group (the quantum
LSTM's forget, input, update and output gates; the quantum GRU's reset and
update gates), which runs as one stacked circuit call forward and one
adjoint sweep backward.  The records hold one tape entry per gate group or
lone gate circuit, its final states, so the adjoint starts from them and
no circuit is simulated twice in a step.  A pass over the windows binds
each gate group or lone gate circuit to its angles once
(``autodiff.bind``): every step's forward call applies each shared run of
gates as one product with the binding's unitary, and every adjoint sweep of
that gate follows the same binding's plan.  The circuit's angle encoding is
the binding's product prefix: forward it is built from per-qubit 2-vectors,
and the adjoint sweep ends there, on per-qubit 2 x 2 matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import ClassVar

import numpy as np

from .autodiff import bind, circuit_vjp
from .circuits import (
    Circuit,
    build_qlstm_vqc,
    run_circuit_batch,
    template_name,
)
from .models_qnn import (
    INIT_ANGLE,
    _adam_fit,
    _fit_data,
    _flat,
    _sigmoid,
    _slices,
    _task_loss,
    _uniform,
    _unpack,
)
from .qsim import z_expectations

QLSTM_GATES = ("forget", "input", "update", "output", "hidden", "readout")
QGRU_GATES = ("reset", "update", "candidate")
# The gate groups: gates whose circuits read the same input map v, run as
# one stacked circuit call and swept back as one adjoint sweep.
_QLSTM_GROUP = QLSTM_GATES[:4]
_QGRU_GROUP = QGRU_GATES[:2]


def make_windows(features, target, window: int = 4):
    """Sliding windows plus the value one step past each window.

    ``features`` is (n, d), ``target`` is (n,); returns X of shape
    (m, window, d) and y of shape (m,) with y[i] = target[i + window], one
    window starting at each row i < m = n - window.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    target = np.asarray(target, dtype=float).ravel()
    if features.shape[0] != target.size:
        raise ValueError("features and target must have equal length")
    if window < 1:
        raise ValueError("window must be >= 1")
    n = target.size
    if n <= window:
        raise ValueError(f"need more than {window} rows, got {n}")
    starts = range(n - window)
    X = np.stack([features[s : s + window] for s in starts])
    y = np.array([target[s + window] for s in starts])
    return X, y


@dataclass(frozen=True)
class _QuantumCell:
    """Recurrent cell whose gates are variational circuits.

    Every gate runs the same ``qlstm_vqc`` circuit, and the cell's qubit
    count is the circuit's.  The hidden state is a per-qubit readout, so
    hidden_size is n_qubits.  The parameter vector follows ``layout``.
    """

    kind: ClassVar[str]
    gates: ClassVar[tuple[str, ...]]
    circuit: Circuit
    input_dim: int
    params: np.ndarray

    def __post_init__(self):
        # a name check, not a rebuild: replace(cell, params=...) runs this
        c = self.circuit
        n_layers = c.n_trainable // (3 * c.n_qubits)
        if c.name != template_name("qlstm_vqc", c.n_qubits, n_layers):
            raise ValueError(f"a quantum cell's gates run qlstm_vqc, not {c.name!r}")
        if len(self.params) != _slices(self.layout)[1]:
            raise ValueError("parameter vector has the wrong length")

    @property
    def layout(self) -> tuple:
        return _layout(self.kind, self.input_dim, self.n_qubits, self.circuit.n_trainable)

    @property
    def n_qubits(self) -> int:
        return self.circuit.n_qubits

    @property
    def hidden_size(self) -> int:
        return self.n_qubits

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
        if len(self.params) != _slices(self.layout)[1]:
            raise ValueError("parameter vector has the wrong length")

    @property
    def layout(self) -> tuple:
        return _layout(self.kind, self.input_dim, self.hidden_size, 0)


@lru_cache(maxsize=None)
def _layout(kind, input_dim, hidden_size, per_circuit):
    """(name, shape) blocks of a cell's parameter vector, in vector order.

    A quantum cell holds one row of circuit angles per gate, then the
    shared input map [x; h] -> circuit inputs; a classical cell holds its
    gates' input and hidden weights and biases, stacked by gate.  Every
    layout ends with the scalar head.
    """
    hs = hidden_size
    if kind in ("qlstm", "qgru"):
        n_gates = len(QLSTM_GATES if kind == "qlstm" else QGRU_GATES)
        blocks = [("thetas", (n_gates, per_circuit))]
        blocks += [("W", (input_dim + hs, hs)), ("b", (hs,))]
    elif kind in ("lstm", "gru"):
        rows = (4 if kind == "lstm" else 3) * hs
        blocks = [("W_ih", (rows, input_dim)), ("W_hh", (rows, hs))]
        blocks += [("b_ih", (rows,)), ("b_hh", (rows,))]
    else:
        raise ValueError(f"unknown recurrent model kind {kind!r}")
    return tuple(blocks + [("head_w", (hs,)), ("head_b", ())])


def qlstm_param_count(input_dim, n_qubits=4, n_layers=2) -> int:
    # three angles per qubit per layer in each gate circuit
    return _slices(_layout("qlstm", input_dim, n_qubits, 3 * n_qubits * n_layers))[1]


def qgru_param_count(input_dim, n_qubits=4, n_layers=2) -> int:
    return _slices(_layout("qgru", input_dim, n_qubits, 3 * n_qubits * n_layers))[1]


def classical_param_count(kind, input_dim, hidden_size) -> int:
    return _slices(_layout(kind, input_dim, hidden_size, 0))[1]


def _initial_params(key, seed):
    """Zeros, or seeded uniform draws in the order of ``_layout(*key)``.

    Quantum cells draw their circuit angles in +-INIT_ANGLE first, then
    everything else in +-1/sqrt(input_dim + n_qubits); classical cells draw
    the whole vector in +-1/sqrt(hidden_size).
    """
    kind, input_dim, hidden_size, _ = key
    table, n = _slices(_layout(*key))
    if seed is None or kind in ("lstm", "gru"):
        return _uniform(n, 1.0 / np.sqrt(hidden_size), seed)
    rng = np.random.default_rng(seed)
    k = table[0][1].stop
    angles = rng.uniform(-INIT_ANGLE, INIT_ANGLE, size=k)
    bound = 1.0 / np.sqrt(input_dim + hidden_size)
    return np.concatenate([angles, rng.uniform(-bound, bound, size=n - k)])


def _build_quantum(cls, input_dim, n_qubits, n_layers, seed):
    circuit = build_qlstm_vqc(n_qubits, n_layers)
    key = (cls.kind, input_dim, n_qubits, circuit.n_trainable)
    return cls(circuit, input_dim, _initial_params(key, seed))


def build_qlstm(
    input_dim: int, n_qubits: int = 4, n_layers: int = 2, seed=None
) -> QlstmCell:
    return _build_quantum(QlstmCell, input_dim, n_qubits, n_layers, seed)


def build_qgru(
    input_dim: int, n_qubits: int = 4, n_layers: int = 2, seed=None
) -> QgruCell:
    return _build_quantum(QgruCell, input_dim, n_qubits, n_layers, seed)


def build_classical_lstm(input_dim: int, hidden_size: int = 8, seed=None):
    params = _initial_params(("lstm", input_dim, hidden_size, 0), seed)
    return ClassicalRnnBaseline("lstm", input_dim, hidden_size, params)


def build_classical_gru(input_dim: int, hidden_size: int = 16, seed=None):
    params = _initial_params(("gru", input_dim, hidden_size, 0), seed)
    return ClassicalRnnBaseline("gru", input_dim, hidden_size, params)


def _gate_rows(cell: _QuantumCell, gates):
    """Row of ``thetas`` of one gate name, or rows of a tuple of names."""
    if isinstance(gates, str):
        return cell.gates.index(gates)
    return [cell.gates.index(name) for name in gates]


def _gate_readout(cell: _QuantumCell, p, gates, inputs, rec):
    """Per-qubit <Z> of gate circuit ``gates`` on ``inputs``, (B, n_qubits).

    ``gates`` is one gate name or a gate group, a tuple of the G names
    whose circuits read the same inputs; a group runs as one stacked
    circuit call and returns (G, B, n_qubits).  The circuit runs under its
    binding ``rec["bound"][gates]``, made on first use, and its final
    states go into one tape entry, ``rec["tape"][gates]``; backpropagation
    hands both to ``circuit_vjp`` in place of a second forward sweep.
    """
    theta = p["thetas"][_gate_rows(cell, gates)]
    bound = rec["bound"]
    if gates not in bound:
        bound[gates] = bind(cell.circuit, theta, inputs.shape[0])
    if theta.ndim == 2:
        theta, inputs = theta[:, None, :], inputs[None]
    states = run_circuit_batch(cell.circuit, theta, inputs, bound=bound[gates])
    rec["tape"][gates] = states
    return z_expectations(states, cell.n_qubits, range(cell.n_qubits))


def _lstm_update(f, i, g, o, c):
    """The LSTM cell update from activated gates: (o*s, c', s) with
    c' = f*c + i*g and s = tanh(c')."""
    c_next = f * c + i * g
    s = np.tanh(c_next)
    return o * s, c_next, s


def _lstm_update_vjp(rec, dout, dc):
    """Backward through ``_lstm_update`` and the gate activations, from the
    gradients at o*s (``dout``) and at c' (``dc``): the pre-activation
    gradients of f, i, g and o, and the gradient at c."""
    f, i, g, o, s = rec["f"], rec["i"], rec["g"], rec["o"], rec["s"]
    dc = dc + dout * o * (1.0 - s**2)
    return (
        dc * rec["c_prev"] * f * (1.0 - f),
        dc * g * i * (1.0 - i),
        dc * i * (1.0 - g**2),
        dout * s * o * (1.0 - o),
    ), dc * f


def qlstm_step(cell: QlstmCell, x_t, h, c, bound=None, readout=False):
    """One step: (x_t, h, c) -> ((h', c'), record).

    Shapes are batched: x_t (B, input_dim), h and c (B, hidden_size).
    Gate values come from circuits evaluated on the shared affine map v of
    u = [x_t; h]; c' = f*c + i*g and the projection circuit turns
    u2 = o*tanh(c') into the next hidden state.  At a window's last step
    (``readout`` True) the readout circuit, which feeds the head, takes
    u2 in place of the projection, whose output no later step would read;
    h' is then its readout.  The record holds every intermediate that
    backpropagation through time reads, the gate circuits' final states
    (``tape``) and bindings among them.  ``bound`` is the dict of bindings
    to use and fill, one per gate group or lone gate circuit; a pass hands
    every step the same one.
    """
    p = _unpack(cell)
    rec = dict(tape={}, bound={} if bound is None else bound)
    u = np.concatenate([x_t, h], axis=1)
    v = u @ p["W"] + p["b"]
    f, i, g, o = _gate_readout(cell, p, _QLSTM_GROUP, v, rec)
    f, i, g, o = _sigmoid(f), _sigmoid(i), np.tanh(g), _sigmoid(o)
    u2, c_next, s = _lstm_update(f, i, g, o, c)
    h_next = _gate_readout(cell, p, "readout" if readout else "hidden", u2, rec)
    rec.update(u=u, v=v, c_prev=c, f=f, i=i, g=g, o=o, s=s, u2=u2)
    return (h_next, c_next), rec


def qgru_step(cell: QgruCell, x_t, h, bound=None):
    """One step: (x_t, h) -> ((h',), record) with h' = (1 - z)*h + z*g.

    The candidate gate sees the input map of u2 = [x_t; r*h], reusing the
    same affine map that feeds the reset and update gates.  ``bound`` and
    the record are as in ``qlstm_step``.
    """
    p = _unpack(cell)
    rec = dict(tape={}, bound={} if bound is None else bound)
    u = np.concatenate([x_t, h], axis=1)
    v = u @ p["W"] + p["b"]
    r, z = _sigmoid(_gate_readout(cell, p, _QGRU_GROUP, v, rec))
    u2 = np.concatenate([x_t, r * h], axis=1)
    v2 = u2 @ p["W"] + p["b"]
    g = np.tanh(_gate_readout(cell, p, "candidate", v2, rec))
    h_next = (1.0 - z) * h + z * g
    rec.update(u=u, v=v, u2=u2, v2=v2, r=r, z=z, g=g, h_prev=h)
    return (h_next,), rec


def lstm_step(model: ClassicalRnnBaseline, x_t, h, c):
    """One step: (x_t, h, c) -> ((h', c'), record) with gates in i, f, g, o order."""
    p = _unpack(model)
    hs = model.hidden_size
    pre = x_t @ p["W_ih"].T + p["b_ih"] + h @ p["W_hh"].T + p["b_hh"]
    i = _sigmoid(pre[:, 0:hs])
    f = _sigmoid(pre[:, hs : 2 * hs])
    g = np.tanh(pre[:, 2 * hs : 3 * hs])
    o = _sigmoid(pre[:, 3 * hs :])
    h_next, c_next, s = _lstm_update(f, i, g, o, c)
    return (h_next, c_next), dict(x=x_t, h_prev=h, c_prev=c, i=i, f=f, g=g, o=o, s=s)


def gru_step(model: ClassicalRnnBaseline, x_t, h):
    """One step: (x_t, h) -> ((h',), record) with h' = (1 - z)*n + z*h."""
    p = _unpack(model)
    hs = model.hidden_size
    gi = x_t @ p["W_ih"].T + p["b_ih"]
    gh = h @ p["W_hh"].T + p["b_hh"]
    r = _sigmoid(gi[:, 0:hs] + gh[:, 0:hs])
    z = _sigmoid(gi[:, hs : 2 * hs] + gh[:, hs : 2 * hs])
    n = np.tanh(gi[:, 2 * hs :] + r * gh[:, 2 * hs :])
    h_next = (1.0 - z) * n + z * h
    return (h_next,), dict(x=x_t, h_prev=h, r=r, z=z, n=n, gh_n=gh[:, 2 * hs :])


def _backward_start(model, head_in, dy):
    """(blocks, gradient blocks, gradient at the head's input).

    The gradient blocks are zero except the head's, which are filled in.
    """
    p = _unpack(model)
    g = {name: np.zeros(block.shape) for name, block in p.items()}
    g["head_w"][...] = head_in.T @ dy
    g["head_b"][...] = dy.sum()
    return p, g, dy[:, None] * p["head_w"][None, :]


def _gate_vjp(cell: _QuantumCell, p, g, rec, gates, inputs, weights):
    """Adjoint VJP of gate circuit ``gates`` from its taped states and binding.

    ``gates`` is a name or a group as in ``_gate_readout``, and
    ``weights`` is shaped like its readout.  One reverse sweep adds the
    angle gradients into the gates' rows of ``g["thetas"]`` and returns the
    gradient with respect to ``inputs``, summed over a group's gates.
    """
    j = _gate_rows(cell, gates)
    qubits = tuple(range(cell.n_qubits))
    states, bound = rec["tape"][gates], rec["bound"][gates]
    d_theta, d_inputs = circuit_vjp(
        cell.circuit, p["thetas"][j], inputs, states, qubits, weights, bound=bound
    )
    g["thetas"][j] += d_theta
    return d_inputs


def _input_map_vjp(p, g, u, dv):
    """Backward through v = u @ W + b: adds into W's and b's gradients, returns du."""
    g["W"] += u.T @ dv
    g["b"] += dv.sum(axis=0)
    return dv @ p["W"].T


def _qlstm_backward(cell: QlstmCell, steps, q, dy):
    p, g, dq = _backward_start(cell, q, dy)
    B, T = dy.size, len(steps)
    du2 = _gate_vjp(cell, p, g, steps[-1], "readout", steps[-1]["u2"], dq)
    dc = np.zeros((B, cell.hidden_size))
    for t in range(T - 1, -1, -1):
        rec = steps[t]
        if t < T - 1:  # u2 feeds the readout at the last step, the hidden circuit before
            du2 = _gate_vjp(cell, p, g, rec, "hidden", rec["u2"], dh)
        dz, dc = _lstm_update_vjp(rec, du2, dc)
        dv = _gate_vjp(cell, p, g, rec, _QLSTM_GROUP, rec["v"], np.stack(dz))
        dh = _input_map_vjp(p, g, rec["u"], dv)[:, cell.input_dim :]
    return _flat(cell, g)


def _qgru_backward(cell: QgruCell, steps, h, dy):
    p, g, dh = _backward_start(cell, h, dy)
    for rec in reversed(steps):
        dz = dh * (rec["g"] - rec["h_prev"])
        dg = dh * rec["z"]
        dh_prev = dh * (1.0 - rec["z"])
        dzg = dg * (1.0 - rec["g"] ** 2)
        dv2 = _gate_vjp(cell, p, g, rec, "candidate", rec["v2"], dzg)
        drh = _input_map_vjp(p, g, rec["u2"], dv2)[:, cell.input_dim :]
        dr = drh * rec["h_prev"]
        dh_prev = dh_prev + drh * rec["r"]
        dzr = dr * rec["r"] * (1.0 - rec["r"])
        dzz = dz * rec["z"] * (1.0 - rec["z"])
        dv = _gate_vjp(cell, p, g, rec, _QGRU_GROUP, rec["v"], np.stack([dzr, dzz]))
        dh = dh_prev + _input_map_vjp(p, g, rec["u"], dv)[:, cell.input_dim :]
    return _flat(cell, g)


def _lstm_backward(model: ClassicalRnnBaseline, steps, h, dy):
    p, g, dh = _backward_start(model, h, dy)
    dc = np.zeros((dy.size, model.hidden_size))
    for rec in reversed(steps):
        (df, di, dg, do), dc = _lstm_update_vjp(rec, dh, dc)
        dpre = np.concatenate([di, df, dg, do], axis=1)
        g["W_ih"] += dpre.T @ rec["x"]
        g["W_hh"] += dpre.T @ rec["h_prev"]
        g["b_ih"] += dpre.sum(axis=0)
        g["b_hh"] += dpre.sum(axis=0)
        dh = dpre @ p["W_hh"]
    return _flat(model, g)


def _gru_backward(model: ClassicalRnnBaseline, steps, h, dy):
    p, g, dh = _backward_start(model, h, dy)
    for rec in reversed(steps):
        dz = dh * (rec["h_prev"] - rec["n"])
        dn = dh * (1.0 - rec["z"])
        dh_prev = dh * rec["z"]
        dpre_n = dn * (1.0 - rec["n"] ** 2)
        dr = dpre_n * rec["gh_n"]
        dpre_r = dr * rec["r"] * (1.0 - rec["r"])
        dpre_z = dz * rec["z"] * (1.0 - rec["z"])
        gi_rows = np.concatenate([dpre_r, dpre_z, dpre_n], axis=1)
        gh_rows = np.concatenate([dpre_r, dpre_z, dpre_n * rec["r"]], axis=1)
        g["W_ih"] += gi_rows.T @ rec["x"]
        g["W_hh"] += gh_rows.T @ rec["h_prev"]
        g["b_ih"] += gi_rows.sum(axis=0)
        g["b_hh"] += gh_rows.sum(axis=0)
        dh = dh_prev + gh_rows @ p["W_hh"]
    return _flat(model, g)


def _cell_ops(model):
    """(step, last step, number of state arrays, backward); built per call,
    so a rebound module global (perfbench's tracer) is used."""
    return {
        "qlstm": (qlstm_step, partial(qlstm_step, readout=True), 2, _qlstm_backward),
        "qgru": (qgru_step, qgru_step, 1, _qgru_backward),
        "lstm": (lstm_step, lstm_step, 2, _lstm_backward),
        "gru": (gru_step, gru_step, 1, _gru_backward),
    }[model.kind]


def _run(model, X):
    """Run each window through the cell from a zero state.

    Returns the per-step records, the head's input and the predictions.
    The head's input is the last step's first state: the final hidden
    state, except for qlstm, where it is the readout circuit on the last
    step's u2.
    """
    step, last, n_state, _ = _cell_ops(model)
    B, T, _ = X.shape
    state = tuple(np.zeros((B, model.hidden_size)) for _ in range(n_state))
    # the steps share one dict of bindings: each gate circuit is bound once
    kwargs = dict(bound={}) if isinstance(model, _QuantumCell) else {}
    steps = []
    for t in range(T):
        state, rec = (last if t == T - 1 else step)(model, X[:, t], *state, **kwargs)
        steps.append(rec)
    head_in = state[0]
    p = _unpack(model)
    return steps, head_in, head_in @ p["head_w"] + p["head_b"]


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
    loss, dy = _task_loss("regression", yhat[:, None], y)
    backward = _cell_ops(model)[3]
    return loss, backward(model, steps, head_in, dy[:, 0])


def train_sequence_model(model, windows, targets, epochs: int, lr: float = 0.01):
    """Adam on next-step MSE from the model's parameters; targets are
    expected already scaled."""
    X, y = _fit_data("regression", (windows, targets))
    return _adam_fit(sequence_loss_and_grad, model, X, y, epochs, lr)

