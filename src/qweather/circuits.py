"""Parameterized circuit templates and binding.

A Circuit is an ordered list of gate slots.  Slots carry either no angles
(H, CNOT, CZ) or AngleRef angles that point at a trainable parameter or an
input feature, with an optional nonlinearity applied to the referenced
value before it becomes the gate angle.

Each template is written as its layer sequence: a layer of one gate kind
on every qubit, or a ring of range r (q -> (q + r) mod n), whose angles
come from an input or a trainable angle maker; one running counter numbers
the trainable slots.  A template circuit's name is its descriptor, e.g.
'reuploading_sel(4,4)': ``template_name`` writes it and
``circuit_from_name`` rebuilds the circuit from it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qsim import GATE_ARITY, MAX_QUBITS, _gather_plan, apply_matrix, gate_matrix

TRANSFORMS = ("identity", "arctan", "arctan_square", "zz_product")


@dataclass(frozen=True)
class AngleRef:
    """One gate angle: scale * transform(referenced value).

    ``zz_product`` is the pairwise feature-map phase
    scale * (pi - x[slot_index]) * (pi - x[partner]) and is the only
    transform that reads two values.
    """

    slot_kind: str
    slot_index: int
    transform: str = "identity"
    scale: float = 1.0
    partner: int | None = None

    def __post_init__(self):
        if self.slot_kind not in ("trainable", "input"):
            raise ValueError(f"unknown slot kind {self.slot_kind!r}")
        if self.transform not in TRANSFORMS:
            raise ValueError(f"unknown angle transform {self.transform!r}")
        if (self.transform == "zz_product") != (self.partner is not None):
            raise ValueError("partner index is required exactly for zz_product")
        if self.transform == "zz_product" and self.slot_kind != "input":
            raise ValueError("zz_product only applies to input slots")
        if self.slot_index < 0 or (self.partner is not None and self.partner < 0):
            raise ValueError("negative slot index")


@dataclass(frozen=True)
class CircuitOp:
    """A gate slot: fixed when ``angles`` is empty, parameterized otherwise."""

    kind: str
    targets: tuple[int, ...]
    angles: tuple[AngleRef, ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n_angles, n_targets = GATE_ARITY[self.kind]
        if (len(self.angles), len(self.targets)) != (n_angles, n_targets):
            raise ValueError(
                f"{self.kind} takes {n_angles} angle(s) on {n_targets} qubit(s), "
                f"got {len(self.angles)} on {self.targets}"
            )
        if len(set(self.targets)) != n_targets:
            raise ValueError(f"duplicate target qubits {self.targets}")


@dataclass(frozen=True)
class Circuit:
    name: str
    n_qubits: int
    ops: tuple[CircuitOp, ...]
    n_trainable: int
    n_inputs: int

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}"
            )
        for op in self.ops:
            for t in op.targets:
                if not 0 <= t < self.n_qubits:
                    raise ValueError(f"target {t} out of range in {self.name}")
            for ref in op.angles:
                bound = (
                    self.n_trainable
                    if ref.slot_kind == "trainable"
                    else self.n_inputs
                )
                if ref.slot_index >= bound:
                    raise ValueError(
                        f"{ref.slot_kind} slot {ref.slot_index} out of range"
                    )
                if ref.partner is not None and ref.partner >= self.n_inputs:
                    raise ValueError(f"input slot {ref.partner} out of range")
        # hashed once: caches keyed by a circuit look it up on every call
        object.__setattr__(self, "_hash", hash((self.name, self.ops)))

    def __hash__(self):
        return self._hash


def angle_values(ref: AngleRef, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Angle for a slot; broadcasts over leading axes of theta/x."""
    if ref.transform == "zz_product":
        xi = x[..., ref.slot_index]
        xj = x[..., ref.partner]
        return ref.scale * (np.pi - xi) * (np.pi - xj)
    v = (theta if ref.slot_kind == "trainable" else x)[..., ref.slot_index]
    if ref.transform == "identity":
        return ref.scale * v
    if ref.transform == "arctan":
        return ref.scale * np.arctan(v)
    return ref.scale * np.arctan(v * v)


def angle_partials(ref: AngleRef, theta: np.ndarray, x: np.ndarray):
    """(slot_kind, value_index, d angle / d value) for every dependency."""
    if ref.transform == "zz_product":
        xi = x[..., ref.slot_index]
        xj = x[..., ref.partner]
        return [
            ("input", ref.slot_index, -ref.scale * (np.pi - xj)),
            ("input", ref.partner, -ref.scale * (np.pi - xi)),
        ]
    v = (theta if ref.slot_kind == "trainable" else x)[..., ref.slot_index]
    if ref.transform == "identity":
        d = ref.scale * np.ones_like(v)
    elif ref.transform == "arctan":
        d = ref.scale / (1.0 + v * v)
    else:
        # d/dv arctan(v^2) = 2v / (1 + v^4)
        d = ref.scale * 2.0 * v / (1.0 + (v * v) ** 2)
    return [(ref.slot_kind, ref.slot_index, d)]


def _slot_array(circuit: Circuit, values, slot_kind: str) -> np.ndarray:
    """``values`` as floats over (..., n) slots of ``slot_kind``, checked
    against the circuit; an empty array stands for none."""
    n = circuit.n_trainable if slot_kind == "trainable" else circuit.n_inputs
    label = "parameters" if slot_kind == "trainable" else "inputs"
    arr = np.asarray(values, dtype=float)
    if arr.shape[-1:] != (n,):
        if not (n == 0 and arr.size == 0):
            raise ValueError(
                f"{circuit.name} takes {n} {label}, got shape {arr.shape}"
            )
        arr = arr.reshape(arr.shape[:-1] + (0,) if arr.ndim else (0,))
    return arr


def run_circuit_batch(
    circuit: Circuit, params, inputs, state=None, bound=None
) -> np.ndarray:
    """Amplitudes of shape batch + (2**n,) for batched params/inputs.

    ``params`` broadcasts as (..., n_trainable) against ``inputs``
    (..., n_inputs).  ``state`` (batch + (2**n,)) replaces |0...0> as the
    starting amplitudes, so a circuit can run on the states another
    circuit left; it is read, never written.

    A gate whose angles are the same for every row is built and applied
    as one shared matrix; only angles that vary by row become per-row
    matrices.  The amplitudes stay at the batch shape the gates so far have
    needed: |0...0> is one row, a per-row or stacked matrix widens them
    (``np.broadcast_to``), and the result is copied out at the full batch
    shape, so every row sees the same arithmetic as at full width.

    ``bound``, the binding ``autodiff.bind(circuit, theta, n_rows)`` of the
    trainable angles, applies each shared run of its plan as one product
    with the run's unitary U, rows @ U^T; ``params`` is then theta, or
    theta[:, None, :] for a stacked (G, n_trainable) theta.  Unless
    ``state`` is given, the binding's product prefix (the leading
    single-qubit gates without a trainable angle) is built as a product
    state on the input rows.  Other unbound calls, and a wide circuit's
    binding, which has no run and no prefix, apply every gate.

    Unbound, one 1-D theta on a given (B, 2**n) ``state`` runs a circuit of
    real matrices only (H, CNOT, CZ, RY on trainable angles: vqc's ansatz)
    on (2**n, 2B) real rows [Re | Im], one per basis index.  (c + 0j) * a is
    c times each part of a, so each amplitude is the gate-by-gate one but
    for the sign of a zero.
    """
    theta = _slot_array(circuit, params, "trainable")
    x = _slot_array(circuit, inputs, "input")
    dim = 1 << circuit.n_qubits
    shapes = [theta.shape[:-1], x.shape[:-1]]
    if state is None:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
    else:
        amps = np.asarray(state, dtype=complex)
        if amps.shape[-1:] != (dim,):
            raise ValueError(
                f"{circuit.name} acts on {dim} amplitudes, got state shape "
                f"{amps.shape}"
            )
        shapes.append(amps.shape[:-1])
    full = np.broadcast_shapes(*shapes) + (dim,)
    if bound is None and theta.ndim == 1 and amps.ndim == 2 and amps.shape == full:
        if (plan := _real_plan(circuit)) is not None:
            return _run_real(plan, theta, x, amps)
    runs, i = {}, 0
    if bound is not None:
        want = bound.theta if bound.theta.ndim == 1 else bound.theta[:, None, :]
        if bound.circuit != circuit or theta.shape != want.shape or not (
            np.array_equal(theta, want)
        ):
            raise ValueError(f"binding does not fit {circuit.name} at {theta.shape}")
        runs = {run[0]: run[1:3] for shared, run in bound.plan if shared}
        if state is None and bound.prefix:
            amps = _product_state(circuit.n_qubits, bound.layers, x)
            i = bound.prefix
    while i < len(circuit.ops):
        if i in runs:
            stop, u = runs[i]
            # a lone (d,) row becomes (1, d): the product keeps a row axis
            # against a stacked (G, d, d) U
            amps = np.atleast_2d(amps) @ u.mT
            i = stop
            continue
        op = circuit.ops[i]
        if not op.angles:
            mat = gate_matrix(op.kind)
        else:
            angles = tuple(angle_values(ref, theta, x) for ref in op.angles)
            mat = gate_matrix(op.kind, angles)
            if mat.ndim > 2 and mat.shape[:-2] != amps.shape[:-1]:
                wide = np.broadcast_shapes(amps.shape[:-1], mat.shape[:-2]) + (dim,)
                amps = np.broadcast_to(amps, wide)
        amps = apply_matrix(amps, circuit.n_qubits, op.targets, mat, op.kind)
        i += 1
    if amps.shape != full:
        amps = np.broadcast_to(amps, full).copy()
    return amps


@lru_cache(maxsize=None)
def _real_plan(circuit: Circuit):
    """(RY refs, entries, RY slots, steps) to run ``circuit`` on real rows;
    None unless every op is a fixed gate or an RY on a trainable angle.  A
    step is an op's ``_gather_plan`` terms as (gather or None, None or the
    index of their entries, a (2**n, 1) column unless all rows share one, as
    an RY's cos(theta/2) diagonal).  The call sets the RYs' entries."""
    ops = circuit.ops
    entries, slots, steps = [], [], []
    for op in ops:
        if op.angles and (op.kind != "RY" or op.angles[0].slot_kind == "input"):
            return None
        # at angle 1.0 an RY has no zero and no unit entry, as at most angles
        probe = gate_matrix(op.kind, (1.0,) * len(op.angles)).real.ravel()
        at = len(entries)
        slots += range(at, at + 4) if op.angles else []
        entries += probe.tolist()
        masks = (probe != 0).tobytes(), (probe == 1).tobytes()
        gather, coef, scale, diag = _gather_plan(circuit.n_qubits, op.targets, *masks)
        coef = [at + (c[0] if (probe[c] == probe[c[0]]).all() else c[:, None]) for c in coef]
        gather = [None, *gather[1:]] if diag else list(gather)
        steps.append(list(zip(gather, coef if scale else [None] * len(coef))))
    return tuple(op.angles[0] for op in ops if op.angles), np.array(entries), slots, steps


def _run_real(plan, theta, x, amps):
    """``amps`` (B, d) after a ``_real_plan``, run on real rows."""
    refs, entries, slots, steps = plan
    entries = entries.copy()
    angles = np.array([angle_values(ref, theta, x) for ref in refs])
    entries[slots] = gate_matrix("RY", (angles,)).real.ravel()
    a = np.concatenate((amps.real, amps.imag)).T.copy()
    for terms in steps:
        out = None
        for gather, coef in terms:
            term = a if gather is None else a.take(gather, axis=0)
            if coef is not None:  # a gathered term is a fresh array
                term = np.multiply(entries[coef], term, out=None if gather is None else term)
            out = term if out is None else np.add(out, term, out=out)
        a = out
    out = np.ascontiguousarray(a.reshape(len(a), 2, -1).transpose(2, 0, 1))
    return out.view(complex)[..., 0]


def _product_state(n_qubits: int, layers, x) -> np.ndarray:
    """Amplitudes x.shape[:-1] + (2**n,) that a binding's product prefix
    ``layers`` leaves: each row's n qubit 2-vectors (u0, u1), turned a layer
    at a time from cos and sin of half the angles, then their Kronecker
    product in n - 1 broadcast products."""
    v = np.zeros(x.shape[:-1] + (n_qubits, 2), dtype=complex)
    v[..., 0] = 1.0
    for kind, ref, qubits, slots in layers:
        u0, u1 = v[..., qubits, 0], v[..., qubits, 1]
        if kind == "H":
            u0, u1 = (u0 + u1) / np.sqrt(2.0), (u0 - u1) / np.sqrt(2.0)
        else:
            a = angle_values(ref, None, x[..., slots, None]) / 2
            c, s = np.cos(a), np.sin(a)
            if kind == "RY":
                u0, u1 = c * u0 - s * u1, s * u0 + c * u1
            elif kind == "RX":
                u0, u1 = c * u0 - 1j * s * u1, c * u1 - 1j * s * u0
            else:
                u0, u1 = (c - 1j * s) * u0, (c + 1j * s) * u1
        v[..., qubits, 0], v[..., qubits, 1] = u0, u1
    amps = v[..., 0, :]
    for q in range(1, n_qubits):
        amps = (amps[..., None] * v[..., q, None, :]).reshape(x.shape[:-1] + (-1,))
    return amps


def _no_angles(q):
    return ()


class _Template:
    """A template's ops, laid down layer by layer.

    ``sizes`` are the two sizes as ``label=(value, lowest)``, read back as the
    ints ``n`` (qubits) and ``repeats``.  Trainable slots come from one running
    counter and the input angle maker marks the inputs as read, so
    ``circuit()`` takes both slot counts from what the layers used.
    """

    built: dict[str, Circuit] = {}  # by name, so caches find a circuit by identity

    def __init__(self, template, **sizes):
        for label, (value, lo) in sizes.items():
            if int(value) != value or value < lo:
                raise ValueError(
                    f"build_{template}: {label} must be an integer >= {lo}"
                )
        self.n, self.repeats = (int(value) for value, _ in sizes.values())
        self.name = template_name(template, self.n, self.repeats)
        self.ops = []
        self.n_trainable = 0
        self.n_inputs = 0

    def trainable(self, width=1):
        """Angle maker: the next ``width`` trainable slots for each gate."""

        def angles(q):
            start = self.n_trainable
            self.n_trainable += width
            return tuple(AngleRef("trainable", k) for k in range(start, start + width))

        return angles

    def inputs(self, transform="identity", scale=1.0):
        """Angle maker: input q, through ``transform``, for qubit q's gate;
        a template that encodes inputs reads all n of them."""
        self.n_inputs = self.n
        return lambda q: (AngleRef("input", q, transform, scale),)

    def layer(self, kind, angles=_no_angles):
        """One ``kind`` gate on each qubit q, with angles(q)."""
        for q in range(self.n):
            self.ops.append(CircuitOp(kind, (q,), angles(q)))

    def ring(self, r=1, kind="CNOT", angles=_no_angles, closed=True):
        """``kind`` on each pair (q, (q + r) mod n), the ring of range r;
        an open ring leaves out the last pair, which closes a range-1 ring."""
        for q in range(self.n if closed else self.n - 1):
            self.ops.append(CircuitOp(kind, (q, (q + r) % self.n), angles(q)))

    def circuit(self) -> Circuit:
        """The one Circuit of this template at these sizes."""
        built = Circuit(self.name, self.n, tuple(self.ops), self.n_trainable, self.n_inputs)
        return _Template.built.setdefault(self.name, built)


def build_reuploading_ising(n_qubits: int = 3, n_layers: int = 2) -> Circuit:
    """Data-reuploading encoder with Ising-style RZZ couplings.

    Each layer re-encodes the inputs with RY, applies trainable RX and RZ
    on every qubit and a ring of trainable RZZ couplings; a final encoding
    pass and trainable RY layer close the circuit.
    """
    if n_qubits != 3:
        raise ValueError("the Ising reuploading template is defined for 3 qubits")
    t = _Template("reuploading_ising", n_qubits=(n_qubits, 3), n_layers=(n_layers, 1))
    for _ in range(t.repeats):
        t.layer("RY", t.inputs())
        t.layer("RX", t.trainable())
        t.layer("RZ", t.trainable())
        t.ring(1, "RZZ", t.trainable())
    t.layer("RY", t.inputs())
    t.layer("RY", t.trainable())
    return t.circuit()


def build_reuploading_sel(n_qubits: int = 4, n_layers: int = 4) -> Circuit:
    """Data-reuploading encoder with strongly entangling layers.

    Layer l (1-indexed) encodes inputs with RY, applies a trainable R3 per
    qubit, then a CNOT ring of range (l mod (n-1)) + 1.
    """
    t = _Template("reuploading_sel", n_qubits=(n_qubits, 2), n_layers=(n_layers, 1))
    for layer in range(1, t.repeats + 1):
        t.layer("RY", t.inputs())
        t.layer("R3", t.trainable(3))
        t.ring((layer % (t.n - 1)) + 1)
    return t.circuit()


def build_zz_feature_map(n_features: int, reps: int = 1) -> Circuit:
    """Second-order feature map with linear entanglement, no trainables.

    Per repetition: H on all qubits, RZ(2*x_i) per qubit, then for each
    adjacent pair a CNOT-conjugated RZ carrying 2*(pi - x_i)*(pi - x_j).
    """
    t = _Template("zz_feature_map", n_features=(n_features, 2), reps=(reps, 1))
    for _ in range(t.repeats):
        t.layer("H")
        t.layer("RZ", t.inputs(scale=2.0))
        for q in range(t.n - 1):
            cnot = CircuitOp("CNOT", (q, q + 1))
            zz = AngleRef("input", q, "zz_product", 2.0, partner=q + 1)
            t.ops += [cnot, CircuitOp("RZ", (q + 1,), (zz,)), cnot]
    return t.circuit()


def build_real_amplitudes(n_qubits: int, reps: int = 3) -> Circuit:
    """RY layer, then reps blocks of a linear CNOT chain plus an RY layer."""
    t = _Template("real_amplitudes", n_qubits=(n_qubits, 2), reps=(reps, 0))
    t.layer("RY", t.trainable())
    for _ in range(t.repeats):
        t.ring(closed=False)
        t.layer("RY", t.trainable())
    return t.circuit()


def build_z_feature_map(n_features: int = 4, reps: int = 1) -> Circuit:
    """First-order feature map: H then RZ(2*x_i) per qubit, no entanglement."""
    t = _Template("z_feature_map", n_features=(n_features, 1), reps=(reps, 1))
    for _ in range(t.repeats):
        t.layer("H")
        t.layer("RZ", t.inputs(scale=2.0))
    return t.circuit()


def build_qlstm_vqc(n_qubits: int = 4, n_layers: int = 1) -> Circuit:
    """Gate circuit of the quantum recurrent cells.

    Encoding squashes each input through arctan before rotation: H, then
    RY(arctan(v_i)) and RZ(arctan(v_i^2)) per qubit.  Each variational
    layer is a CNOT ring followed by an R3 rotation per qubit.
    """
    t = _Template("qlstm_vqc", n_qubits=(n_qubits, 2), n_layers=(n_layers, 1))
    t.layer("H")
    t.layer("RY", t.inputs("arctan"))
    t.layer("RZ", t.inputs("arctan_square"))
    for _ in range(t.repeats):
        t.ring()
        t.layer("R3", t.trainable(3))
    return t.circuit()


_TEMPLATES = {
    "reuploading_ising": build_reuploading_ising,
    "reuploading_sel": build_reuploading_sel,
    "zz_feature_map": build_zz_feature_map,
    "real_amplitudes": build_real_amplitudes,
    "z_feature_map": build_z_feature_map,
    "qlstm_vqc": build_qlstm_vqc,
}


def template_name(template: str, a: int, b: int) -> str:
    """The descriptor of ``template`` at sizes (a, b)."""
    return f"{template}({a},{b})"


def circuit_from_name(name: str) -> Circuit:
    """Rebuild a template circuit from its descriptor."""
    m = re.fullmatch(r"([a-z_]+)\((\d+),(\d+)\)", name)
    if not m or m.group(1) not in _TEMPLATES:
        raise ValueError(f"unknown circuit descriptor {name!r}")
    return _TEMPLATES[m.group(1)](int(m.group(2)), int(m.group(3)))
