"""Exact circuit gradients.

Training uses ``circuit_vjp``, the adjoint method for an exact statevector
(Jones & Gacon, arXiv:2009.02823): one forward sweep and one reverse sweep
give the weighted readout's derivative with respect to every trainable
parameter and every raw input, with no per-sample Jacobian.  The forward
sweep is the one training already ran: QLSTM, QGRU and QNN training keep
the final states of each gate circuit's forward pass (the tape) and hand
them to ``circuit_vjp``, which runs only the reverse sweep.  Steps with an
input angle are swept per row; unless the circuit is wide next to the
batch, each run of steps whose angles all rows share is contracted to one
d x d matrix first, which moves the gradients only in the last bits.  A
recurrent cell's gate group, several circuits on the same inputs with
their own angles, is one stacked call: its circuits are swept side by side
until no trainable angle is left to reverse, then as one.

Parameter shift and central finite differences stay as the test oracles.
Every parameterized gate here is exp(-i*theta*P/2) for a Pauli word P, so
dE/dtheta = [E(theta + pi/2) - E(theta - pi/2)] / 2; derivatives with
respect to trainable parameters or raw input values sum the shifts of every
occurrence times the angle transform's chain-rule factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .circuits import (
    Circuit,
    _input_array,
    _theta_array,
    angle_partials,
    angle_values,
    parameterized_occurrences,
    run_circuit_batch,
)
from .qsim import apply_matrix, gate_matrix, z_expectations, z_signs

SHIFTABLE_KINDS = {"RX", "RY", "RZ", "R3", "RXX", "RYY", "RZZ"}

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# Pauli generator P of each single-angle rotation exp(-i*theta*P/2).
_GENERATORS = {
    "RX": _X,
    "RY": _Y,
    "RZ": _Z,
    "RXX": np.kron(_X, _X),
    "RYY": np.kron(_Y, _Y),
    "RZZ": np.kron(_Z, _Z),
}


class UnsupportedGateError(Exception):
    """A differentiated slot sits on a gate without a two-point shift rule."""


@dataclass(frozen=True)
class GradientRequest:
    """What to differentiate: d<observable> / d(trainable params or inputs).

    ``observable`` is a qubit index for a plain Z term or a sequence of
    (qubit, weight) pairs for a weighted sum of single-qubit Z terms.
    """

    circuit: Circuit
    params: object
    inputs: object
    observable: object = 0
    wrt: str = "trainable"

    def __post_init__(self):
        if self.wrt not in ("trainable", "inputs"):
            raise ValueError(f"wrt must be 'trainable' or 'inputs', got {self.wrt!r}")


def _normalize_observable(observable, n_qubits):
    """(qubits, weights) of the observable's Z terms."""
    if isinstance(observable, (int, np.integer)):
        terms = [(int(observable), 1.0)]
    else:
        terms = [(int(q), float(w)) for q, w in observable]
    for q, _ in terms:
        if not 0 <= q < n_qubits:
            raise ValueError(f"observable qubit {q} out of range")
    return [q for q, _ in terms], np.array([w for _, w in terms])


def expectation(circuit: Circuit, params, inputs, observable=0) -> float:
    """Analytic expectation of a (weighted) Z observable after the circuit."""
    qubits, weights = _normalize_observable(observable, circuit.n_qubits)
    amps = run_circuit_batch(circuit, params, inputs)
    return float(z_expectations(amps, circuit.n_qubits, qubits) @ weights)


def expectation_batch(circuit: Circuit, params, inputs, qubits) -> np.ndarray:
    """<Z_q> for each q in ``qubits``; shape batch + (len(qubits),)."""
    amps = run_circuit_batch(circuit, params, inputs)
    return z_expectations(amps, circuit.n_qubits, qubits)


def _relevant_occurrences(circuit, kind):
    occs = []
    for i, pos, ref in parameterized_occurrences(circuit):
        depends = ref.slot_kind == "trainable" if kind == "trainable" else (
            ref.slot_kind == "input"
        )
        if depends:
            if circuit.ops[i].kind not in SHIFTABLE_KINDS:
                raise UnsupportedGateError(
                    f"gate {circuit.ops[i].kind} has no parameter-shift rule"
                )
            occs.append((i, pos, ref))
    return occs


def param_shift_grad(req: GradientRequest) -> np.ndarray:
    """Exact gradient via shifted expectation evaluations.

    All 2 * n_occurrences shifted circuits run as one batch.
    """
    circuit = req.circuit
    theta = _theta_array(circuit, req.params).ravel()
    x = _input_array(circuit, req.inputs).ravel()
    qubits, weights = _normalize_observable(req.observable, circuit.n_qubits)
    kind = "trainable" if req.wrt == "trainable" else "input"
    n_slots = circuit.n_trainable if kind == "trainable" else circuit.n_inputs
    occs = _relevant_occurrences(circuit, kind)
    grad = np.zeros(n_slots)
    if not occs:
        return grad
    batch = 2 * len(occs)
    shifts = {}
    for j, (i, pos, _) in enumerate(occs):
        s = np.zeros(batch)
        s[2 * j] = np.pi / 2
        s[2 * j + 1] = -np.pi / 2
        shifts[(i, pos)] = s
    amps = run_circuit_batch(circuit, theta, x, shifts)
    e = z_expectations(amps, circuit.n_qubits, qubits) @ weights
    for j, (_, _, ref) in enumerate(occs):
        de_dangle = 0.5 * (e[2 * j] - e[2 * j + 1])
        for part_kind, idx, factor in angle_partials(ref, theta, x):
            if part_kind == kind:
                grad[idx] += float(factor) * de_dangle
    return grad


def finite_diff_grad(req: GradientRequest, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient over raw values; the test oracle."""
    if h <= 0:
        raise ValueError("h must be positive")
    circuit = req.circuit
    theta = _theta_array(circuit, req.params).ravel()
    x = _input_array(circuit, req.inputs).ravel()
    qubits, weights = _normalize_observable(req.observable, circuit.n_qubits)
    n_slots = circuit.n_trainable if req.wrt == "trainable" else circuit.n_inputs
    if n_slots == 0:
        return np.zeros(0)
    if req.wrt == "trainable":
        base = np.broadcast_to(theta, (2 * n_slots, theta.size)).copy()
    else:
        base = np.broadcast_to(x, (2 * n_slots, x.size)).copy()
    for k in range(n_slots):
        base[2 * k, k] += h
        base[2 * k + 1, k] -= h
    if req.wrt == "trainable":
        amps = run_circuit_batch(circuit, base, x)
    else:
        amps = run_circuit_batch(circuit, theta, base)
    e = z_expectations(amps, circuit.n_qubits, qubits) @ weights
    return (e[0::2] - e[1::2]) / (2 * h)


def _rotation_sweep(circuit: Circuit):
    """(kind, targets, AngleRef or None) per gate in circuit order, with
    every R3 split into its RZ, RY, RZ rotations."""
    sweep = []
    for op in circuit.ops:
        if op.kind == "R3":
            a, b, g = op.angles
            sweep += [
                ("RZ", op.targets, a),
                ("RY", op.targets, b),
                ("RZ", op.targets, g),
            ]
        else:
            sweep.append((op.kind, op.targets, op.angles[0] if op.angles else None))
    return sweep


@lru_cache(maxsize=None)
def _embedded(kind: str, n_qubits: int, targets) -> np.ndarray:
    """Dense 2**n operator of a rotation's Pauli generator, or of a fixed
    (self-inverse) gate, on ``targets``, the first target its most
    significant bit: (2, 0) embeds unlike (0, 2)."""
    mat = _GENERATORS[kind] if kind in _GENERATORS else gate_matrix(kind)
    idx = np.arange(1 << n_qubits)
    shifts = [n_qubits - 1 - t for t in targets][::-1]
    sub = sum((idx >> s & 1) << q for q, s in enumerate(shifts))
    rest = idx & ~sum(1 << s for s in shifts)
    return np.where(rest[:, None] == rest[None, :], mat[sub[:, None], sub[None, :]], 0)


def _vjp_runs(circuit: Circuit, contract: bool):
    """(shared, steps) runs of ``_rotation_sweep(circuit)`` from its first
    rotation on.  With ``contract``, a maximal stretch of steps whose angles
    all rows share (fixed gates and trainable rotations) that holds a
    rotation is one shared run; every other step is a per-row run of one."""
    sweep = _rotation_sweep(circuit)
    first = next((j for j, s in enumerate(sweep) if s[2] is not None), len(sweep))
    runs = []
    for shared, group in groupby(
        sweep[first:],
        lambda s: contract and (s[2] is None or s[2].slot_kind == "trainable"),
    ):
        steps = list(group)
        if shared and any(ref is not None for _, _, ref in steps):
            runs.append((True, steps))
        else:
            runs += [(False, [step]) for step in steps]
    return runs


def circuit_vjp(circuit: Circuit, params, inputs, states, qubits, weights):
    """Adjoint vector-Jacobian product of the per-sample <Z_q> readout.

    ``inputs`` is (n_samples, n_inputs), ``params`` the shared
    (n_trainable,) angles, ``states`` the (n_samples, 2**n) amplitudes the
    forward pass left, as from ``run_circuit_batch(circuit, params,
    inputs)``, and ``weights`` (n_samples, len(qubits)).  With
    L = sum_bq weights[b, q] * <Z_q>_b, returns ``d_params`` = dL/dparams,
    shape (n_trainable,), and ``d_inputs`` = dL/dinputs, shape
    (n_samples, n_inputs).

    G circuits that read the same inputs with their own angles (a gate
    group of a recurrent cell) are one call: ``params`` is (G, n_trainable),
    ``states`` (G, n_samples, 2**n) as from ``run_circuit_batch(circuit,
    params[:, None, :], inputs[None])``, and ``weights`` (G, n_samples,
    len(qubits)).  L then also sums over the G circuits: ``d_params`` is
    (G, n_trainable) and ``d_inputs`` (n_samples, n_inputs).

    The forward states are the tape: training keeps them from its forward
    pass, so no gate is applied twice.  lambda = sum_q w_bq Z_q psi; the
    reverse sweep un-applies every gate from psi and lambda, and just after
    a rotation exp(-i*a*P/2), dL/da = Im<lambda|P|psi> per sample; the
    chain rule through ``angle_partials`` carries it to parameters and
    inputs.

    Steps with an input angle are swept per row.  If d * d <= 8 B (d = 2**n,
    B rows), a run of steps that all rows share is swept on the d x d
    R = sum_b psi_b lambda_b^H, one per circuit: a rotation's gradient is
    Im Tr(P R), a gate G is un-applied as R <- G^-1 R G, and the pair moves
    past the run as one product; summing over rows first moves gradients in
    the last bits.  G stacked circuits are swept side by side up to the
    merge point: going backwards, the point after which no remaining step
    has a trainable angle.  Before it every circuit's psi is the same and
    dL/da is linear in lambda, so the sweep goes on with one psi and the sum
    of the G lambdas, and the steps there run once, not G times.
    """
    theta = _theta_array(circuit, params)
    x = np.atleast_2d(_input_array(circuit, inputs))
    n = circuit.n_qubits
    d = 1 << n
    if theta.ndim > 2:
        raise ValueError(f"params must be 1-D or 2-D, got shape {theta.shape}")
    # () + (B,) for one circuit, (G,) + (B,) for G stacked ones
    rows = theta.shape[:-1] + x.shape[:1]
    psi = np.asarray(states)
    if psi.shape != rows + (d,):
        raise ValueError(f"states must have shape {rows + (d,)}, got {psi.shape}")
    w = np.asarray(weights, dtype=float)
    if w.shape != rows + (len(qubits),):
        raise ValueError(
            f"weights must have shape {rows + (len(qubits),)}, got {w.shape}"
        )
    signs = np.reshape([z_signs(n, q) for q in qubits], (len(qubits), d))
    # psi and lambda side by side: one apply_matrix call un-applies a gate
    # from both
    pair = np.stack([psi, (w @ signs) * psi])
    d_params = np.zeros(theta.shape)
    d_inputs = np.zeros(x.shape)
    # a shared gate costs two d x d products, a per-row one a few passes over
    # the B x d pair: contracting pays off while d * d <= 8 B (measured at
    # d = 8 to 128), so a wide circuit on few rows is swept per row
    runs = _vjp_runs(circuit, d * d <= 8 * x.shape[0])
    # stacked angles broadcast against the pair's rows in per-row steps and
    # against d x d matrices in shared runs; runs[:first] hold no trainable
    # angle, so there the stacked circuits apply the same gates
    theta_rows, theta_mats, first = theta, theta, 0
    if theta.ndim == 2:
        theta_rows, theta_mats = theta[:, None, :], theta[:, None, None, :]
        first = next(
            (
                j
                for j, (_, steps) in enumerate(runs)
                if any(r is not None and r.slot_kind == "trainable" for *_, r in steps)
            ),
            len(runs),
        )
    for j in range(len(runs) - 1, -1, -1):
        if j == first - 1:
            # the merge point: one psi, the sum of the lambdas
            pair = np.stack([pair[0, 0], pair[1].sum(axis=0)])
        shared, steps = runs[j]
        if not shared:
            (kind, targets, ref), = steps
            angle = ()
            if ref is not None:
                angle = (angle_values(ref, theta_rows, x),)
                p_psi = apply_matrix(pair[0], n, targets, _GENERATORS[kind])
                overlap = np.einsum("...i,...i->...", pair[1].conj(), p_psi).imag
                for slot_kind, idx, factor in angle_partials(ref, theta_rows, x):
                    term = factor * overlap
                    if slot_kind == "trainable":
                        d_params[..., idx] += np.sum(term, axis=-1)
                    else:
                        d_inputs[:, idx] += term if term.ndim == 1 else term.sum(axis=0)
            if j > 0:
                inverse = gate_matrix(kind, tuple(-a for a in angle))
                pair = apply_matrix(pair, n, targets, inverse)
            continue
        r = pair[0].mT @ pair[1].conj()
        eye = v = np.eye(d)
        for kind, targets, ref in reversed(steps):
            gate = _embedded(kind, n, targets)
            if ref is not None:
                angle = angle_values(ref, theta_mats, x)
                # Tr(P R) = vdot(P, R) as P is Hermitian
                if r.ndim == 2:
                    overlap = np.vdot(gate, r).imag
                else:
                    overlap = np.array([np.vdot(gate, m) for m in r]).imag
                for _, idx, factor in angle_partials(ref, theta, x):
                    d_params[..., idx] += factor * overlap
                # the inverse exp(i*a*P/2) = cos(a/2) + i*sin(a/2)*P, as P @ P = 1
                gate = np.cos(angle / 2) * eye + (1j * np.sin(angle / 2)) * gate
            r = gate @ r @ gate.conj().mT
            v = gate @ v
        if j > 0:
            pair = pair @ v.mT
    return d_params, d_inputs
