"""Exact circuit gradients.

Training uses ``circuit_vjp``, the adjoint method for an exact statevector
(Jones & Gacon, arXiv:2009.02823): one forward sweep and one reverse sweep
give the weighted readout's derivative with respect to every trainable
parameter and every raw input, with no per-sample Jacobian.  The forward
sweep is the one training already ran: QLSTM, QGRU and QNN training keep
the final states of each gate circuit's forward pass (the tape) and hand
them to ``circuit_vjp``, which runs only the reverse sweep.  Unless the
circuit is wide next to the batch, that sweep takes each run of steps whose
angles all rows share at once on d x d matrices, one per layer of gates on
disjoint qubits, which moves the gradients only in the last bits, and ends
at the product prefix, the leading single-qubit gates without a trainable
angle, whose input gradients come from per-qubit 2 x 2 matrices; only input
steps between runs are swept per row.  The binding ``bind(circuit, theta,
n_rows)`` holds what that needs and the sweep's plan.  Training binds once
per parameter update, and the forward calls and the VJPs of that update
share it.  A recurrent cell's gate group, several circuits on the same
inputs with their own angles, is one stacked call: its circuits are swept
side by side until no trainable angle is left to reverse, then as one.
A caller that reads no input gradient (QNN training) says so, and the
sweep then skips the reads at input rotations, stops at the earliest
trainable angle and never reaches the prefix.

The tests check these gradients against parameter shift and central finite
differences in ``tests/reference.py``, which run each circuit gate by gate
and share none of the code here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import groupby
from string import ascii_letters

import numpy as np

from .circuits import Circuit, _slot_array, angle_partials, angle_values
from .qsim import GENERATORS, _z_table, apply_matrix, gate_matrix


def _rotation_sweep(ops):
    """(kind, targets, AngleRef or None) per gate of ``ops`` in order, with
    every R3 split into its RZ, RY, RZ rotations."""
    sweep = []
    for op in ops:
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
def _subspaces(n_qubits: int, targets) -> np.ndarray:
    """[s, t]: the basis indices whose ``targets`` read s, the first target
    its most significant bit, (2**k, 2**(n-k))."""
    idx = np.arange(1 << n_qubits).reshape((2,) * n_qubits)
    return np.moveaxis(idx, targets, range(len(targets))).reshape(1 << len(targets), -1)


def _unitary(layer, a, n_qubits: int) -> np.ndarray:
    """The (G,) 2**n unitary of a layer (spec, idle, groups) at angles ``a``."""
    spec, idle, groups = layer
    gates = [np.eye(2)] * idle
    for kind, ks, m in groups:
        # one gate_matrix call per kind: (G,) (ops, 2**m, 2**m)
        g = gate_matrix(kind, tuple(a[..., k] for k in ks.T))
        g = g.reshape(g.shape[:-2] + (2,) * 2 * m)
        # a fixed gate is one matrix for all its ops
        ops = [g] * len(ks) if g.ndim == 2 * m else np.moveaxis(g, -1 - 2 * m, 0)
        gates += list(ops)
    u = np.einsum(spec, *gates)
    return u.reshape(u.shape[: u.ndim - 2 * n_qubits] + (1 << n_qubits,) * 2)


# an R3's (rotation, read, code): alpha reads A Z A^H, A = RZ(g) RY(b), or
# cos(b) Z + sin(b) (cos(g) X + sin(g) Y); beta RZ(g) Y RZ(g)^H, or
# cos(g) Y - sin(g) X; gamma Z.  _bind_run lists the coefficients by code
_R3_ENTRIES = ((0, 0, 1), (0, 1, 2), (0, 2, 3), (1, 0, 4), (1, 1, 5), (2, 2, 0))


def _shared_run(circuit: Circuit, start: int, stop: int):
    """The angle-free part of shared run ``ops[start:stop]``'s binding: its
    layers of ops on disjoint qubits, as (einsum spec of the unitary, idle
    qubits, gates by kind) or, for a stretch of layers without an angle, as
    their product; read j = Im Tr(P rho) = Im sum_x phase[j, x]
    S.flat[idx[j, x]], P X, Y or Z (R3) or the generator on an op's qubits
    and rho the partial trace there of its layer's S; and entries (rotation,
    read, code, beta, gamma) that add a read to a rotation's gradient."""
    n, d = circuit.n_qubits, 1 << circuit.n_qubits
    split = []
    for op in circuit.ops[start:stop]:
        if not split or set(op.targets) & split[-1][0]:
            split.append((set(), []))
        split[-1][0].update(op.targets)
        split[-1][1].append(op)
    refs, layers, reads, entries = [], [], [], []
    for qubits, layer in split:
        offset, groups = d * d * sum(isinstance(l, tuple) for l in layers), {}
        for op in layer:
            k, r = len(refs), len(reads)
            refs += op.angles
            groups.setdefault(op.kind, []).append((op.targets, range(k, len(refs))))
            if op.kind == "R3":
                paulis, table, bg = ("RX", "RY", "RZ"), _R3_ENTRIES, (k + 1, k + 2)
            else:
                # a rotation reads its generator, a fixed gate nothing
                paulis, table, bg = (op.kind,), ((0, 0, 0),), (k, k)
                paulis, table = paulis[: len(op.angles)], table[: len(op.angles)]
            reads += [(offset, op.targets, GENERATORS[p]) for p in paulis]
            entries += [(k + i, r + j, c) + bg for i, j, c in table]
        idle = [(q,) for q in range(n) if q not in qubits]
        axes = idle + [t for ops in groups.values() for t, _ in ops] + [range(n)]
        letters = ["".join(ascii_letters[q + j * n] for j in (0, 1) for q in t)
                   for t in axes]
        spec = ",".join("..." + t for t in letters[:-1]) + "->..." + letters[-1]
        groups = tuple(
            (kind, np.reshape([ks for _, ks in ops], (len(ops), -1)), len(ops[0][0]))
            for kind, ops in groups.items()
        )
        unit = (spec, len(idle), groups)
        if any(op.angles for op in layer):
            layers.append(unit)
        else:
            fixed = _unitary(unit, None, n)
            if layers and isinstance(layers[-1], np.ndarray):
                fixed = fixed @ layers.pop()
            layers.append(fixed)
    # P has one entry per row s, in column c[s]
    sub = [(o, _subspaces(n, t), p, np.abs(p).argmax(axis=1)) for o, t, p in reads]
    idx = np.stack([(o + s[c] * d + s).ravel() for o, s, _, c in sub])
    phase = np.stack([p[range(len(c)), c].repeat(d // len(c)) for _, _, p, c in sub])
    slot = np.array([r.slot_index for r in refs])
    scale = np.array([r.scale for r in refs])
    transform = np.array([r.transform for r in refs])
    angles = slot, scale, transform == "arctan_square", transform != "identity"
    return start, stop, angles, tuple(layers), idx, phase, np.array(entries).T


def _bind_run(run, theta):
    """(start, stop, U, W, idx, phase, chain) of a shared run at ``theta``:
    U its (G,) d x d unitary, W the (G,) L x d x d stack of its gates after
    each trainable layer, chain[j, i] the derivative by theta_i of the
    angles read j serves."""
    start, stop, (slot, scale, squared, squashed), layers, idx, phase, entries = run
    v = theta[..., slot]
    arg = np.where(squared, v * v, v)
    a = scale * np.where(squashed, np.arctan(arg), arg)
    # d arctan(v)/dv = 1/(1 + v^2), d arctan(v^2)/dv = 2v/(1 + v^4)
    da = scale * np.where(squashed, np.where(squared, 2 * v, 1.0) / (1 + arg * arg), 1)
    w, held = np.eye(idx.shape[1]), []
    for layer in reversed(layers):
        if isinstance(layer, tuple):
            held.append(w)
            layer = _unitary(layer, a, idx.shape[1].bit_length() - 1)
        w = w @ layer
    rot, read, code, beta, gamma = entries
    sb, cb = np.sin(a[..., beta]), np.cos(a[..., beta])
    sg, cg = np.sin(a[..., gamma]), np.cos(a[..., gamma])
    coef = np.choose(code, [np.ones_like(sb), sb * cg, sb * sg, cb, -sg, cg])
    chain = np.zeros(theta.shape[:-1] + (len(idx), theta.shape[-1]))
    np.add.at(chain, (..., read, slot[rot]), coef * da[..., rot])
    stack = np.empty(w.shape[:-2] + (len(held),) + w.shape[-2:], dtype=complex)
    for i, h in enumerate(reversed(held)):
        stack[..., i, :, :] = h
    return start, stop, w, stack, idx, phase, chain


@lru_cache(maxsize=None)
def _structure(circuit: Circuit, wide: bool):
    """(prefix, layers, plan) of ``circuit``'s bindings, a run in the plan
    as its ``_shared_run``; cached by value, as equal circuits are rebuilt."""
    ops = circuit.ops
    prefix = 0
    while not wide and prefix < len(ops) and len(ops[prefix].targets) == 1 and all(
        r.slot_kind == "input" and r.partner is None for r in ops[prefix].angles
    ):
        prefix += 1
    layers = []
    for kind, (q,), ref in _rotation_sweep(ops[:prefix]):
        head = (kind,) if ref is None else (kind, ref.transform, ref.scale)
        slot = q if ref is None else ref.slot_index
        last = layers[-1] if layers else [None] * 4
        if last[0] == head and (q, slot) == (last[2].stop, last[3].stop):
            last[2:] = slice(last[2].start, q + 1), slice(last[3].start, slot + 1)
        else:
            ref = ref if ref is None else replace(ref, slot_index=0)
            layers.append([head, ref, slice(q, q + 1), slice(slot, slot + 1)])
    # a wide circuit's plan starts at its first op with an angle
    first = prefix
    if wide:
        first = next((i for i, op in enumerate(ops) if op.angles), len(ops))
    plan = []
    for shared, group in groupby(
        range(first, len(ops)),
        lambda i: all(ref.slot_kind == "trainable" for ref in ops[i].angles),
    ):
        span = list(group)
        start, stop = span[0], span[-1] + 1
        if wide or not (shared and any(ops[i].angles for i in span)):
            plan += [(False, step) for step in _rotation_sweep(ops[start:stop])]
        else:
            plan.append((True, _shared_run(circuit, start, stop)))
    layers = tuple((head[0], *rest) for head, *rest in layers)
    return prefix, layers, tuple(plan)


@dataclass(frozen=True)
class Binding:
    """``circuit`` bound to trainable angles ``theta``, (n_trainable,) or a
    stacked (G, n_trainable).  The product prefix, the first ``prefix`` ops
    (those before the first on two qubits or with a trainable or two-input
    angle), leaves |0...0> a product state; ``layers`` holds its
    ``_rotation_sweep`` steps as (kind, ref, qubits, slots) per stretch of
    one kind on a slice of qubits whose angles read a slice of inputs
    through one transform, ref being that angle at slot 0 (None for a fixed
    gate).  ``plan`` is the reverse sweep's items after the prefix (a wide
    circuit's from its first op with an angle), in circuit order: (True,
    run) per shared run of ops, as ``_bind_run`` makes it, and (False, step)
    for every other ``_rotation_sweep`` step.  A rotation k of a run has
    gradient Im Tr(M_k rho_k): rho_k the partial trace onto its qubits of
    S = W^H R W, W the run's gates after k's layer and R = sum_b psi_b
    lambda_b^H at the run's end, and M_k its generator conjugated by its
    own R3's later rotations."""

    circuit: Circuit
    theta: np.ndarray
    prefix: int
    layers: tuple
    plan: tuple


def bind(circuit: Circuit, params, n_rows: int) -> Binding:
    """The binding of ``circuit`` to ``params`` for calls on ``n_rows`` rows.

    A shared run is, after the product prefix, a maximal stretch of ops
    whose angles all rows share (fixed gates and trainable rotations) that
    holds an angle.  A wide circuit on few rows, d * d > 8 B (d = 2**n,
    B = ``n_rows``), gets no product prefix and no shared run, so no d x d
    matrix is built: its plan sweeps per row from the first op with an
    angle.  The rule is conservative: bind, forward and VJP on
    reuploading_sel(n, 4) (2-core Xeon) ran 1.5-2.4x faster bound wherever
    d * d <= 64 B, d = 8 to 256, and slower only from about d * d = 1000 B
    at d = 128 and 300-500 B at d = 256.  It stays at 8 B so that few-row
    tests on 3 and 4 qubits cover the per-row sweep."""
    theta = _slot_array(circuit, params, "trainable")
    wide = 1 << 2 * circuit.n_qubits > 8 * n_rows
    prefix, layers, plan = _structure(circuit, wide)
    plan = tuple((shared, _bind_run(i, theta) if shared else i) for shared, i in plan)
    return Binding(circuit, theta, prefix, layers, plan)


def circuit_vjp(
    circuit: Circuit, params, inputs, states, qubits, weights, bound=None, wrt_inputs=True
):
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

    The sweep follows the plan of ``bound``, the ``bind(circuit, params,
    B)`` its forward pass used (built here if not given, refused if made at
    other angles); a wide circuit on few rows has no shared run and no
    prefix, and is swept per row.  Each shared run is taken at once on the
    d x d R = sum_b psi_b lambda_b^H at the run's end, one per circuit: one
    stacked S = W^H R W, one gather and one product with the chain rule give
    all its gradients, and the pair moves past it by one product with
    conj(U); summing over rows first moves gradients in the last bits.  The
    sweep ends at the binding's product prefix, gates on one qubit each:
    with rho_q = Tr_{others} |psi><lambda| per row, a prefix rotation's
    dL/da is Im Tr(P rho_q), and un-applying its gate g is
    rho_q <- g^H rho_q g.  Other input steps are swept per row, one
    apply_matrix call for psi and one for lambda.  G stacked circuits are
    swept side by side up to the merge point: going backwards, the point
    after which no remaining step has a trainable angle, at the latest the
    prefix.  Before it every circuit's psi is the same and dL/da is linear
    in lambda, so the sweep goes on with one psi and the sum of the G
    lambdas, and the steps there run once, not G times.

    With ``wrt_inputs`` False (QNN training, which reads only ``d_params``),
    ``d_inputs`` comes back as None and the sweep does only what
    ``d_params`` needs: an input rotation is un-applied from psi and lambda
    but read for no gradient, the sweep stops at the earliest plan item that
    holds a trainable angle (un-applying nothing before it), and the prefix
    is not walked.  The skipped work fed only ``d_inputs``, so ``d_params``
    has the bytes of the full sweep's.
    """
    theta = _slot_array(circuit, params, "trainable")
    x = np.atleast_2d(_slot_array(circuit, inputs, "input"))
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
    if bound is None:
        bound = bind(circuit, theta, x.shape[0])
    elif bound.circuit != circuit or bound.theta.shape != theta.shape or not (
        np.array_equal(bound.theta, theta)
    ):
        raise ValueError(f"binding does not fit {circuit.name} at {theta.shape}")
    plan = bound.plan
    lam = (w @ _z_table(n, tuple(qubits))) * psi
    d_params = np.zeros(theta.shape)
    d_inputs = np.zeros(x.shape) if wrt_inputs else None
    # plan[:first] holds no trainable angle: there the stacked circuits
    # apply the same gates, and only input gradients are read
    first = next(
        (
            j
            for j, (shared, item) in enumerate(plan)
            if shared or (item[2] is not None and item[2].slot_kind == "trainable")
        ),
        len(plan),
    )
    # stacked angles broadcast against the rows of psi and lambda in per-row
    # steps
    theta_rows = theta[:, None, :] if theta.ndim == 2 else theta
    # the sweep ends on the prefix layers from the first with an angle, or,
    # without input gradients, at plan[first] with no prefix walk
    enc, end = (bound.layers, 0) if wrt_inputs else ((), first)
    enc = enc[next((k for k, l in enumerate(enc) if l[1] is not None), len(enc)) :]
    for j in range(len(plan) - 1, end - 1, -1):
        if j == first - 1 and theta.ndim == 2:
            # the merge point: one psi, the sum of the lambdas
            psi, lam = psi[0], lam.sum(axis=0)
        shared, item = plan[j]
        if shared:
            _, _, u, wl, idx, phase, chain = item
            # S = W^H R W per trainable layer, R = sum_b psi_b lambda_b^H
            r = (psi.mT @ lam.conj())[..., None, :, :]
            s = wl.conj().mT @ r @ wl
            s = s.reshape(s.shape[:-3] + (-1,))
            reads = (s[..., idx] * phase).imag.sum(axis=-1)
            # einsum, not matmul: OpenBLAS runs this product on two threads,
            # and on a busy host their wake-ups cost more than the product
            d_params += np.einsum("...r,...ri->...i", reads, chain)
            if j == 0 and enc and psi.ndim == 3:
                # the sweep ends in the prefix, where every circuit's psi is
                # the same: un-apply one psi and the G lambdas, and merge
                u = u.conj()
                psi, lam = psi[0] @ u[0], (lam @ u).sum(axis=0)
            elif j > end or enc:
                u = u.conj()
                psi, lam = psi @ u, lam @ u
            continue
        kind, targets, ref = item
        angle = () if ref is None else (angle_values(ref, theta_rows, x),)
        if ref is not None and (wrt_inputs or ref.slot_kind == "trainable"):
            p_psi = apply_matrix(psi, n, targets, GENERATORS[kind])
            overlap = np.einsum("...i,...i->...", lam.conj(), p_psi).imag
            for slot_kind, idx, factor in angle_partials(ref, theta_rows, x):
                term = factor * overlap
                if slot_kind == "trainable":
                    d_params[..., idx] += np.sum(term, axis=-1)
                else:
                    d_inputs[:, idx] += term if term.ndim == 1 else term.sum(axis=0)
        if j > end or enc:
            inverse = gate_matrix(kind, tuple(-a for a in angle))
            psi = apply_matrix(psi, n, targets, inverse, kind)
            lam = apply_matrix(lam, n, targets, inverse, kind)
    if not enc:
        return d_params, d_inputs
    if psi.ndim == 3:
        psi, lam = psi[0], lam.sum(axis=0)
    # rho[b, q] = Tr_{others} |psi_b><lambda_b| per qubit, (B, n, 2, 2),
    # gathered a qubit at a time: a gather of all n (160 KiB at 156 rows
    # and 4 qubits) faulted in fresh pages on every call
    lam = lam.conj()
    halves = [_subspaces(n, (q,)) for q in range(n)]
    rho = [np.einsum("bit,bjt->bij", psi[:, h], lam[:, h]) for h in halves]
    rho = np.stack(rho, axis=1)
    for k, (kind, ref, qubits, slots) in reversed(list(enumerate(enc))):
        # ref reads the layer's inputs x[:, slots] as a trailing axis
        r, xs = rho[:, qubits], x[:, slots, None]
        if ref is not None:
            # dL/da = Im<lambda|P|psi> = Im Tr(P rho_q)
            dl_da = np.einsum("ij,...ji->...", GENERATORS[kind], r).imag
            [(_, _, factor)] = angle_partials(ref, None, xs)
            d_inputs[:, slots] += factor * dl_da
        if k and kind == "RZ":
            # g^H rho g only turns rho's off-diagonal phases for g = RZ(a)
            turn = np.exp(1j * angle_values(ref, None, xs))
            rho[:, qubits, 0, 1] *= turn
            rho[:, qubits, 1, 0] *= turn.conj()
        elif k:
            g = gate_matrix(kind, () if ref is None else (angle_values(ref, None, xs),))
            rho[:, qubits] = g.conj().mT @ r @ g
    return d_params, d_inputs
