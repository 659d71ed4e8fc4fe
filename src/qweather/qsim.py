"""Exact dense statevector simulation.

Basis convention: qubit 0 is the most significant bit of the basis index,
so basis index b = sum_q bit_q * 2**(n - 1 - q).  Rotations follow
RP(theta) = exp(-i * theta * P / 2) for Pauli words P, and the three-angle
rotation decomposes as R3(a, b, g) = RZ(g) @ RY(b) @ RZ(a).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_QUBITS = 24

# kind -> (number of angles, number of target qubits)
GATE_ARITY = {
    "H": (0, 1),
    "RX": (1, 1),
    "RY": (1, 1),
    "RZ": (1, 1),
    "R3": (3, 1),
    "CNOT": (0, 2),
    "CZ": (0, 2),
    "RXX": (1, 2),
    "RYY": (1, 2),
    "RZZ": (1, 2),
}

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)


@dataclass(frozen=True)
class Gate:
    """A concrete gate: kind, bound angles (radians) and target qubits."""

    kind: str
    targets: tuple[int, ...]
    angles: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n_angles, n_targets = GATE_ARITY[self.kind]
        if len(self.angles) != n_angles:
            raise ValueError(
                f"{self.kind} takes {n_angles} angle(s), got {len(self.angles)}"
            )
        if len(self.targets) != n_targets:
            raise ValueError(
                f"{self.kind} acts on {n_targets} qubit(s), got {len(self.targets)}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate target qubits {self.targets}")
        if any(t < 0 for t in self.targets):
            raise ValueError(f"negative target qubit in {self.targets}")

    def inverse(self) -> "Gate":
        """Inverse gate: angles negate; H/CNOT/CZ are self-inverse.

        R3 additionally reverses its ZYZ angle order.
        """
        if self.kind == "R3":
            a, b, g = self.angles
            return Gate("R3", self.targets, (-g, -b, -a))
        return Gate(self.kind, self.targets, tuple(-a for a in self.angles))


@dataclass
class Statevector:
    """2**n_qubits complex amplitudes of an n-qubit register."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def copy(self) -> "Statevector":
        return Statevector(self.n_qubits, self.amplitudes.copy())


def new_state(n_qubits: int) -> Statevector:
    """All-zeros computational basis state |0...0>."""
    if not 1 <= int(n_qubits) <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    n_qubits = int(n_qubits)
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[0] = 1.0
    return Statevector(n_qubits, amps)


def _rx(theta):
    t = np.asarray(theta, dtype=float)
    c, s = np.cos(t / 2), np.sin(t / 2)
    m = np.zeros(t.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = c
    m[..., 0, 1] = -1j * s
    m[..., 1, 0] = -1j * s
    m[..., 1, 1] = c
    return m


def _ry(theta):
    t = np.asarray(theta, dtype=float)
    c, s = np.cos(t / 2), np.sin(t / 2)
    m = np.zeros(t.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = c
    m[..., 0, 1] = -s
    m[..., 1, 0] = s
    m[..., 1, 1] = c
    return m


def _rz(theta):
    t = np.asarray(theta, dtype=float)
    m = np.zeros(t.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = np.exp(-0.5j * t)
    m[..., 1, 1] = np.exp(0.5j * t)
    return m


def _rxx(theta):
    t = np.asarray(theta, dtype=float)
    c, s = np.cos(t / 2), -1j * np.sin(t / 2)
    m = np.zeros(t.shape + (4, 4), dtype=complex)
    for k in range(4):
        m[..., k, k] = c
        m[..., k, 3 - k] = s
    return m


def _ryy(theta):
    t = np.asarray(theta, dtype=float)
    c, s = np.cos(t / 2), -1j * np.sin(t / 2)
    m = np.zeros(t.shape + (4, 4), dtype=complex)
    for k in range(4):
        m[..., k, k] = c
        # Y(x)Y: off-anti-diagonal signs (+1 for 01/10, -1 for 00/11)
        m[..., k, 3 - k] = s if k in (1, 2) else -s
    return m


def _rzz(theta):
    t = np.asarray(theta, dtype=float)
    lo, hi = np.exp(-0.5j * t), np.exp(0.5j * t)
    m = np.zeros(t.shape + (4, 4), dtype=complex)
    m[..., 0, 0] = lo
    m[..., 1, 1] = hi
    m[..., 2, 2] = hi
    m[..., 3, 3] = lo
    return m


def gate_matrix(kind: str, angles=()) -> np.ndarray:
    """Unitary matrix for a gate kind.

    Angles may be scalars or equal-shape arrays; array angles yield a
    batch of matrices with the batch axes leading.
    """
    if kind == "H":
        return _H
    if kind == "CNOT":
        return _CNOT
    if kind == "CZ":
        return _CZ
    if kind == "RX":
        return _rx(angles[0])
    if kind == "RY":
        return _ry(angles[0])
    if kind == "RZ":
        return _rz(angles[0])
    if kind == "RXX":
        return _rxx(angles[0])
    if kind == "RYY":
        return _ryy(angles[0])
    if kind == "RZZ":
        return _rzz(angles[0])
    if kind == "R3":
        a, b, g = angles
        return _r3(a, b, g)
    raise ValueError(f"unknown gate kind {kind!r}")


def _r3(alpha, beta, gamma):
    # closed form of RZ(gamma) @ RY(beta) @ RZ(alpha)
    a = np.asarray(alpha, dtype=float)
    b = np.asarray(beta, dtype=float)
    g = np.asarray(gamma, dtype=float)
    shape = np.broadcast_shapes(a.shape, b.shape, g.shape)
    c, s = np.cos(b / 2), np.sin(b / 2)
    u = np.exp(-0.5j * (a + g))
    v = np.exp(-0.5j * (a - g))
    m = np.zeros(shape + (2, 2), dtype=complex)
    m[..., 0, 0] = c * u
    m[..., 0, 1] = -s * np.conj(v)
    m[..., 1, 0] = s * v
    m[..., 1, 1] = c * np.conj(u)
    return m


def apply_matrix(
    amps: np.ndarray, n_qubits: int, targets: tuple[int, ...], mat: np.ndarray
) -> np.ndarray:
    """Apply a k-qubit unitary to amplitudes of shape (..., 2**n_qubits).

    Leading axes of ``amps`` are batch axes.  ``mat`` acts on k = 1 or 2
    qubits and is (2**k, 2**k) for a shared matrix or (batch..., 2**k, 2**k)
    for per-element matrices, whose batch axes must broadcast to those of
    ``amps``.
    """
    k = len(targets)
    batch_shape = amps.shape[:-1]
    off = len(batch_shape)
    if k > 2:
        raise ValueError(f"apply_matrix acts on at most 2 qubits, got {k}")
    if mat.ndim > 2 and mat.shape[:-2] != batch_shape:
        # raises ValueError when the batch axes do not broadcast
        mat = np.broadcast_to(mat, batch_shape + mat.shape[-2:])
    batched = mat.ndim > 2
    psi = amps.reshape(batch_shape + (2,) * n_qubits)
    dim = 1 << k
    axes = [off + t for t in targets]
    slots = []
    for j in range(dim):
        ix = [slice(None)] * (off + n_qubits)
        for q, ax in enumerate(axes):
            ix[ax] = (j >> (k - 1 - q)) & 1
        slots.append(tuple(ix))
    src = [psi[s] for s in slots]
    tail = (None,) * (n_qubits - k)
    out = np.empty_like(psi)
    for i in range(dim):
        acc = None
        owned = False
        for j in range(dim):
            if batched:
                e = mat[..., i, j]
                if not e.any():
                    continue
                term = e[(...,) + tail] * src[j] if tail else e * src[j]
                fresh = True
            else:
                e = mat[i, j]
                if e == 0:
                    continue
                if e == 1:
                    term, fresh = src[j], False
                else:
                    term, fresh = e * src[j], True
            if acc is None:
                acc, owned = term, fresh
            elif owned:
                acc += term
            else:
                acc = acc + term
                owned = True
        if acc is None:
            out[slots[i]] = 0.0
        else:
            out[slots[i]] = acc
    return out.reshape(batch_shape + (1 << n_qubits,))


def _check_targets(n_qubits: int, targets: tuple[int, ...]) -> None:
    for t in targets:
        if not 0 <= t < n_qubits:
            raise ValueError(f"target qubit {t} out of range for {n_qubits} qubits")


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """New state with the gate's unitary applied."""
    _check_targets(state.n_qubits, gate.targets)
    mat = gate_matrix(gate.kind, gate.angles)
    amps = apply_matrix(state.amplitudes, state.n_qubits, gate.targets, mat)
    return Statevector(state.n_qubits, amps)


def z_signs(n_qubits: int, qubit: int) -> np.ndarray:
    """Eigenvalues (+1/-1) of Z on ``qubit`` over the computational basis."""
    idx = np.arange(1 << n_qubits)
    bits = (idx >> (n_qubits - 1 - qubit)) & 1
    return 1.0 - 2.0 * bits


def expectation_z(state: Statevector, qubit: int) -> float:
    """Analytic <Z_qubit>, no sampling."""
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.n_qubits} qubits")
    probs = np.abs(state.amplitudes) ** 2
    return float(probs @ z_signs(state.n_qubits, qubit))


def z_expectations(amps: np.ndarray, n_qubits: int, qubits) -> np.ndarray:
    """<Z_q> for each q in ``qubits`` over amplitudes of shape (..., 2**n);
    shape (..., len(qubits))."""
    probs = np.abs(amps) ** 2
    return np.stack([probs @ z_signs(n_qubits, q) for q in qubits], axis=-1)


def probabilities(state: Statevector) -> np.ndarray:
    """Computational-basis probabilities |amplitude_b|**2."""
    return np.abs(state.amplitudes) ** 2


def inner_product(a: Statevector, b: Statevector) -> complex:
    """<a|b>, conjugate-linear in ``a``."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(
            f"dimension mismatch: {a.n_qubits} vs {b.n_qubits} qubits"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))
