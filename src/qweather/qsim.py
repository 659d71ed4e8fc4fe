"""Exact dense statevector simulation.

Basis convention: qubit 0 is the most significant bit of the basis index,
so basis index b = sum_q bit_q * 2**(n - 1 - q).  Rotations follow
RP(theta) = exp(-i * theta * P / 2) for Pauli words P, and the three-angle
rotation decomposes as R3(a, b, g) = RZ(g) @ RY(b) @ RZ(a).

``apply_matrix`` applies every gate as at most two gathers of the
amplitudes, each scaled by one matrix entry per amplitude: no gate kind has
more than two nonzero entries in a matrix row.  Its index tables are cached
per (qubit count, targets, nonzero pattern), the pattern of per-row
matrices coming from their gate kind where the caller names it, and each
amplitude sees the same products and sums as a slot-by-slot application of
the matrix (see ``apply_matrix`` for the exceptions, signs of zeros).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_QUBITS = 24

# the gates without angles
_FIXED = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
}

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# Pauli generator P of each single-angle rotation exp(-i*theta*P/2).
GENERATORS = {
    "RX": _X,
    "RY": _Y,
    "RZ": _Z,
    "RXX": np.kron(_X, _X),
    "RYY": np.kron(_Y, _Y),
    "RZZ": np.kron(_Z, _Z),
}

# kind -> (number of angles, number of target qubits)
GATE_ARITY = {
    **{kind: (0, len(m).bit_length() - 1) for kind, m in _FIXED.items()},
    **{kind: (1, len(p).bit_length() - 1) for kind, p in GENERATORS.items()},
    "R3": (3, 1),
}


def _rotation_table(p):
    """P's size and form, and (row, column, sign) of each entry of exp(-i*theta*P/2)
    that P or I fills: the sign of P's real or imaginary entry, 0 where P has none."""
    if np.array_equal(p, np.diag(np.diag(p))):
        form = "diagonal"
    else:
        form = "imaginary" if p.imag.any() else "real"
    signs = np.sign(p.real + p.imag).astype(int)
    filled = np.argwhere((p != 0) | np.eye(len(p), dtype=bool))
    return len(p), form, tuple((int(j), int(k), int(signs[j, k])) for j, k in filled)


_ROTATIONS = {kind: _rotation_table(p) for kind, p in GENERATORS.items()}


def _rotation(kind, theta):
    """exp(-i*theta*P/2) for the generator P of ``kind``: e^(-i*theta/2) and
    e^(i*theta/2) where a diagonal P holds +1 and -1, else cos(theta/2) on
    the diagonal and -i*sin(theta/2)*P[j, k] off it."""
    t = np.asarray(theta, dtype=float)
    d, form, entries = _ROTATIONS[kind]
    # terms[sign]: a diagonal P has no sign 0; u is the entry where P is +1 or +i
    if form == "diagonal":
        terms = (None, np.exp(-0.5j * t), np.exp(0.5j * t))
    else:
        s = np.sin(t / 2)
        u = -1j * s if form == "real" else s
        terms = (np.cos(t / 2), u, -u)
    m = np.zeros(t.shape + (d, d), dtype=complex)
    for j, k, sign in entries:
        m[..., j, k] = terms[sign]
    return m


def gate_matrix(kind: str, angles=()) -> np.ndarray:
    """Unitary matrix for a gate kind.

    Angles may be scalars or equal-shape arrays; array angles yield a
    batch of matrices with the batch axes leading.
    """
    if kind in _FIXED:
        return _FIXED[kind]
    if kind in GENERATORS:
        return _rotation(kind, angles[0])
    if kind == "R3":
        return _r3(*angles)
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


@lru_cache(maxsize=None)
def _gather_plan(n_qubits, targets, nonzero, ones):
    """Index tables of ``apply_matrix`` for one gate structure.

    ``nonzero`` and ``ones`` are the bytes of the (2**k, 2**k) masks of
    nonzero and of unit entries; ``ones`` is None for per-row matrices.
    Term j of output amplitude i is entry ``coef[j, i]`` of the flattened
    matrix times input amplitude ``gather[j, i]``.  A matrix row's entries
    go by flip pattern f = row ^ column, so term 0 is the diagonal where
    the row has one; a row with fewer entries than the widest adds a zero
    entry's product.  ``scale`` is False when every entry is a shared 1,
    which needs no multiply, and ``diag`` when term 0 is the diagonal of
    every row.
    """
    k = len(targets)
    if len(set(targets)) != k:
        raise ValueError(f"duplicate target qubits {targets}")
    for t in targets:
        if not 0 <= t < n_qubits:
            raise ValueError(f"target qubit {t} out of range for {n_qubits} qubits")
    d = 1 << k
    nz = np.frombuffer(nonzero, dtype=bool).reshape(d, d)
    shifts = [n_qubits - 1 - t for t in targets]
    idx = np.arange(1 << n_qubits)
    row = sum((idx >> s & 1) << (k - 1 - q) for q, s in enumerate(shifts))
    # the amplitude bits that flip pattern f flips
    bits = np.array(
        [sum((f >> (k - 1 - q) & 1) << s for q, s in enumerate(shifts)) for f in range(d)]
    )
    flips = [sorted(range(d), key=lambda f: not nz[r, r ^ f]) for r in range(d)]
    width = int(nz.sum(axis=1).max())
    flip = np.array(flips)[row, :width].T
    coef = row * d + (row ^ flip)
    scale = ones is None or not np.frombuffer(ones, dtype=bool)[coef].all()
    return idx ^ bits[flip], coef, scale, not flip[0].any()


@lru_cache(maxsize=None)
def _kind_nonzero(kind: str) -> bytes:
    """The bytes of the nonzero mask of ``kind``'s matrix at a generic angle:
    at 1.0 every entry that any angle makes nonzero is nonzero."""
    return (gate_matrix(kind, (1.0,) * GATE_ARITY[kind][0]) != 0).tobytes()


def apply_matrix(
    amps: np.ndarray,
    n_qubits: int,
    targets: tuple[int, ...],
    mat: np.ndarray,
    kind: str | None = None,
) -> np.ndarray:
    """Apply a k-qubit unitary to amplitudes of shape (..., 2**n_qubits).

    Leading axes of ``amps`` are batch axes.  ``mat`` acts on k = 1 or 2
    distinct qubits and is (2**k, 2**k) for a shared matrix or
    (batch..., 2**k, 2**k) for per-element matrices, whose batch axes must
    broadcast to those of ``amps``.  Returns a new array; ``amps`` is only
    read.

    Output amplitude i is the sum over the nonzero entries m[r, c] of its
    matrix row r of m[r, c] * amps[i with its target bits set to c], each
    term taken as one gather (``np.take``) and one multiply with the entry
    on the left; the diagonal term needs no gather.  Every gate kind has at
    most two nonzero entries per row, so each amplitude costs at most two
    products and one add.  A shared matrix of 0s and 1s (CNOT, X) is gathered
    without a multiply; one mixing 1s with other entries (CZ, Z) multiplies
    its 1s too, which is exact except that a zero part may change sign.  The
    index tables depend only on the qubit count, the targets and which
    entries are nonzero (and, for a shared matrix, equal to 1), and are
    built once per such structure.

    Per-row matrices of a gate ``kind`` (as ``gate_matrix(kind, angles)``
    builds them) take that kind's nonzero pattern at a generic angle, found
    once per kind, in place of a reduction over the batch; without a kind
    the pattern is where any row has a nonzero entry.  The two differ only
    where every row's angle makes an entry exactly zero, and there only the
    sign of a zero can change.  A shared matrix ignores ``kind``.
    """
    k = len(targets)
    shape = amps.shape
    if k > 2:
        raise ValueError(f"apply_matrix acts on at most 2 qubits, got {k}")
    if shape[-1:] != (1 << n_qubits,) or mat.shape[-2:] != (1 << k, 1 << k):
        raise ValueError(
            f"amplitudes {shape} and matrix {mat.shape} do not fit {k} of "
            f"{n_qubits} qubits"
        )
    targets = tuple(targets)
    if mat.ndim > 2:
        if np.broadcast_shapes(mat.shape[:-2], shape[:-1]) != shape[:-1]:
            raise ValueError(
                f"matrix batch axes {mat.shape[:-2]} do not broadcast to {shape[:-1]}"
            )
        if kind is None:
            nonzero = mat.any(axis=tuple(range(mat.ndim - 2))).tobytes()
        else:
            nonzero = _kind_nonzero(kind)
        plan = _gather_plan(n_qubits, targets, nonzero, None)
        flat = mat.reshape(mat.shape[:-2] + (-1,))
    else:
        plan = _gather_plan(
            n_qubits, targets, (mat != 0).tobytes(), (mat == 1).tobytes()
        )
        flat = mat.ravel()
    gather, coef, scale, diag = plan
    if diag:
        out = np.multiply(flat.take(coef[0], axis=-1), amps) if scale else amps.copy()
    else:
        out = amps.take(gather[0], axis=-1)
        if scale:
            np.multiply(flat.take(coef[0], axis=-1), out, out=out)
    for j in range(1, len(gather)):
        term = amps.take(gather[j], axis=-1)
        if scale:
            np.multiply(flat.take(coef[j], axis=-1), term, out=term)
        out += term
    return out


def z_signs(n_qubits: int, qubit: int) -> np.ndarray:
    """Eigenvalues (+1/-1) of Z on ``qubit`` over the computational basis."""
    idx = np.arange(1 << n_qubits)
    bits = (idx >> (n_qubits - 1 - qubit)) & 1
    return 1.0 - 2.0 * bits


@lru_cache(maxsize=None)
def _z_table(n_qubits: int, qubits: tuple) -> np.ndarray:
    """Read-only (len(qubits), 2**n) rows ``z_signs(n_qubits, q)``."""
    signs = [z_signs(n_qubits, q) for q in qubits]
    table = np.reshape(signs, (len(qubits), 1 << n_qubits))
    table.flags.writeable = False
    return table


def z_expectations(amps: np.ndarray, n_qubits: int, qubits) -> np.ndarray:
    """<Z_q> for each q in ``qubits`` over amplitudes of shape (..., 2**n);
    shape (..., len(qubits))."""
    probs = np.abs(amps) ** 2
    columns = [probs @ signs for signs in _z_table(n_qubits, tuple(qubits))]
    return np.stack(columns, axis=-1) if columns else np.zeros(probs.shape[:-1] + (0,))

