"""Reference computations the tests check the package against.

``run`` applies a circuit one gate at a time from |0...0> with
``qsim.apply_matrix``; it never calls ``run_circuit_batch``, ``bind`` or
``circuit_vjp``, so the oracles below share no simulation code with the
paths they check.  ``param_shift`` and ``finite_diff`` differentiate the
weighted Z readout of one sample.  Every parameterized gate is
exp(-i*theta*P/2) for a Pauli word P, so dE/dtheta =
[E(theta + pi/2) - E(theta - pi/2)] / 2 (Schuld et al., arXiv:1811.11184);
a derivative with respect to a trainable parameter or a raw input sums the
shifts of every occurrence times the angle transform's chain-rule factor.
``full_circuit`` joins a variational classifier's feature map and ansatz
into the one circuit its probabilities must match.
"""

import numpy as np

from qweather.circuits import Circuit, angle_partials, angle_values
from qweather.qsim import apply_matrix, gate_matrix, z_expectations


def zero_state(n_qubits, batch=()):
    """|0...0> on ``n_qubits``, repeated over ``batch`` leading axes."""
    amps = np.zeros(batch + (1 << n_qubits,), dtype=complex)
    amps[..., 0] = 1.0
    return amps


def apply_gates(amps, gates):
    """``amps`` after each (kind, targets, angles) of ``gates`` in turn."""
    n_qubits = amps.shape[-1].bit_length() - 1
    for kind, targets, angles in gates:
        amps = apply_matrix(amps, n_qubits, targets, gate_matrix(kind, angles))
    return amps


def inverse(gate):
    """The inverse of a (kind, targets, angles) gate: its angles negate, and
    an R3 reverses their ZYZ order; H, CNOT and CZ are their own inverse."""
    kind, targets, angles = gate
    if kind == "R3":
        angles = angles[::-1]
    return kind, targets, tuple(-a for a in angles)


def run(circuit, params, inputs, shifts=None):
    """Amplitudes after ``circuit`` on |0...0>, batch + (2**n,).

    ``params`` (..., n_trainable) and ``inputs`` (..., n_inputs) broadcast
    against each other and against ``shifts``, which maps (op index, angle
    position) to an additive shift of that angle, scalar or an array.
    """
    theta = np.asarray(params, dtype=float)
    x = np.asarray(inputs, dtype=float)
    shifts = shifts or {}
    batch = np.broadcast_shapes(
        theta.shape[:-1], x.shape[:-1], *map(np.shape, shifts.values())
    )
    amps = zero_state(circuit.n_qubits, batch)
    for i, op in enumerate(circuit.ops):
        angles = tuple(
            angle_values(ref, theta, x) + shifts.get((i, pos), 0.0)
            for pos, ref in enumerate(op.angles)
        )
        mat = gate_matrix(op.kind, angles)
        amps = apply_matrix(amps, circuit.n_qubits, op.targets, mat)
    return amps


def full_circuit(clf):
    """A VqcClassifier's feature map, then its ansatz, as one circuit."""
    return Circuit(
        name=f"{clf.feature_map.name}+{clf.ansatz.name}",
        n_qubits=clf.feature_map.n_qubits,
        ops=clf.feature_map.ops + clf.ansatz.ops,
        n_trainable=clf.ansatz.n_trainable,
        n_inputs=clf.feature_map.n_inputs,
    )


def readout(circuit, amps, observable=0):
    """sum_q w_q <Z_q>: ``observable`` is a qubit, or (qubit, weight) pairs."""
    terms = [(observable, 1.0)] if np.ndim(observable) == 0 else observable
    qubits = [int(q) for q, _ in terms]
    weights = np.array([w for _, w in terms], dtype=float)
    return z_expectations(amps, circuit.n_qubits, qubits) @ weights


def param_shift(circuit, theta, x, observable=0, wrt="trainable"):
    """Gradient of the readout by parameter shift, all 2 * n_occurrences
    shifted circuits run as one batch; ``wrt`` is 'trainable' or 'inputs'."""
    theta, x = np.asarray(theta, dtype=float), np.asarray(x, dtype=float)
    kind = "trainable" if wrt == "trainable" else "input"
    occs = [
        (i, pos, ref)
        for i, op in enumerate(circuit.ops)
        for pos, ref in enumerate(op.angles)
        if ref.slot_kind == kind
    ]
    shifts = {}
    for j, (i, pos, _) in enumerate(occs):
        shifts[(i, pos)] = np.zeros(2 * len(occs))
        shifts[(i, pos)][2 * j : 2 * j + 2] = np.pi / 2, -np.pi / 2
    e = readout(circuit, run(circuit, theta, x, shifts), observable)
    grad = np.zeros(theta.size if kind == "trainable" else x.size)
    for j, (_, _, ref) in enumerate(occs):
        de_dangle = 0.5 * (e[2 * j] - e[2 * j + 1])
        for part_kind, idx, factor in angle_partials(ref, theta, x):
            if part_kind == kind:
                grad[idx] += float(factor) * de_dangle
    return grad


def finite_diff(circuit, theta, x, observable=0, wrt="trainable", h=1e-5):
    """Gradient of the readout by central differences over raw values."""
    theta, x = np.asarray(theta, dtype=float), np.asarray(x, dtype=float)
    values = theta if wrt == "trainable" else x
    stepped = np.repeat(values[None], 2 * values.size, axis=0)
    for k in range(values.size):
        stepped[2 * k, k] += h
        stepped[2 * k + 1, k] -= h
    if wrt == "trainable":
        amps = run(circuit, stepped, x)
    else:
        amps = run(circuit, theta, stepped)
    e = readout(circuit, amps, observable)
    return (e[0::2] - e[1::2]) / (2 * h)
