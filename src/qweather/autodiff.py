"""Exact circuit gradients.

Training uses ``circuit_vjp``, the adjoint method for an exact statevector
(Jones & Gacon, arXiv:2009.02823): one forward sweep and one reverse sweep
give the weighted readout's derivative with respect to every trainable
parameter and every raw input, with no per-sample Jacobian.  The forward
sweep is the one training already ran: QLSTM, QGRU and QNN training keep
the final states of each gate circuit's forward pass (the tape) and hand
them to ``circuit_vjp``, which runs only the reverse sweep.  Unless the
circuit is wide next to the batch, that sweep takes each run of steps whose
angles all rows share at once on one d x d matrix, which moves the
gradients only in the last bits, and ends at the product prefix, the
leading single-qubit gates without a trainable angle, whose input gradients
come from per-qubit 2 x 2 matrices; only input steps between runs are swept
per row.  The binding ``bind(circuit, theta, n_rows)`` holds what that
needs, fixed by the trainable angles alone, and the sweep's plan; a wide
circuit on few rows gets one with no prefix and no run.  Training binds
once per parameter update, and the forward calls (which build the prefix
from per-qubit states and apply each run as one product) and the VJPs of
that update share it.  A recurrent cell's gate group, several circuits on
the same inputs with their own angles, is one stacked call: its circuits
are swept side by side until no trainable angle is left to reverse, then
as one.

The tests check these gradients against parameter shift and central finite
differences in ``tests/reference.py``, which run each circuit gate by gate
and share none of the code here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import groupby

import numpy as np

from .circuits import (
    Circuit,
    _slot_array,
    angle_partials,
    angle_values,
    run_circuit_batch,
)
from .qsim import GENERATORS, apply_matrix, gate_matrix, z_expectations, z_signs


def expectation_batch(circuit: Circuit, params, inputs, qubits) -> np.ndarray:
    """<Z_q> for each q in ``qubits``; shape batch + (len(qubits),)."""
    amps = run_circuit_batch(circuit, params, inputs)
    return z_expectations(amps, circuit.n_qubits, qubits)


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
def _embedded(kind: str, n_qubits: int, targets) -> np.ndarray:
    """Dense 2**n operator of a rotation's Pauli generator, or of a fixed
    (self-inverse) gate, on ``targets``, the first target its most
    significant bit: (2, 0) embeds unlike (0, 2)."""
    mat = GENERATORS[kind] if kind in GENERATORS else gate_matrix(kind)
    idx = np.arange(1 << n_qubits)
    shifts = [n_qubits - 1 - t for t in targets][::-1]
    sub = sum((idx >> s & 1) << q for q, s in enumerate(shifts))
    rest = idx & ~sum(1 << s for s in shifts)
    return np.where(rest[:, None] == rest[None, :], mat[sub[:, None], sub[None, :]], 0)


@lru_cache(maxsize=None)
def _halves(n_qubits: int) -> np.ndarray:
    """[q, i]: the basis indices whose qubit q reads i, (n, 2, 2**(n-1))."""
    idx = np.arange(1 << n_qubits).reshape((2,) * n_qubits)
    return np.stack([np.moveaxis(idx, q, 0).reshape(2, -1) for q in range(n_qubits)])


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
    run) per shared run of ops, (False, step) for every other
    ``_rotation_sweep`` step.  A run is (start, stop, U, slots, q): U is
    its (G,) d x d unitary, and row i of q, for trainable slot
    ``slots[i]``, is the flattened sum over the run's rotations k of
    d(angle_k)/d(theta_i) conj(Q_k).  Q_k = W_k P_k W_k^H, P_k the
    rotation's Pauli generator and W_k the product of the run's gates after
    it, gives the angle's gradient Im Tr(Q_k R) for R = sum_b psi_b
    lambda_b^H at the run's end."""

    circuit: Circuit
    theta: np.ndarray
    prefix: int
    layers: tuple
    plan: tuple


def bind(circuit: Circuit, params, n_rows: int) -> Binding:
    """The binding of ``circuit`` to ``params`` for calls on ``n_rows`` rows.

    A shared run is, after the product prefix, a maximal stretch of ops
    whose angles all rows share (fixed gates and trainable rotations) that
    holds an angle.  W runs backwards through it on dense gates, W <- W g,
    and so ends as U.  A wide circuit on few rows, d * d > 8 B (d = 2**n,
    B = ``n_rows``), gets no product prefix and no shared run, so no d x d
    matrix is built: its plan sweeps per row from the first op with an
    angle.  The rule was measured at d = 8 to 128 on the per-gate d x d
    sweep the binding replaced, where a shared gate cost two d x d products
    and a per-row one a few passes over the B x d pair.  It has not been
    measured again against bound runs and the product prefix."""
    theta = _slot_array(circuit, params, "trainable")
    n, d, ops = circuit.n_qubits, 1 << circuit.n_qubits, circuit.ops
    wide = d * d > 8 * n_rows
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
            continue
        w = np.broadcast_to(np.eye(d, dtype=complex), theta.shape[:-1] + (d, d))
        by_slot = {}
        for kind, targets, ref in reversed(_rotation_sweep(ops[start:stop])):
            gate = _embedded(kind, n, targets)
            if ref is None:
                w = w @ gate
                continue
            wp = w @ gate
            q_k = (wp @ w.conj().mT).conj().reshape(theta.shape[:-1] + (d * d,))
            for _, idx, factor in angle_partials(ref, theta, None):
                by_slot[idx] = by_slot.get(idx, 0.0) + factor[..., None] * q_k
            # W g for g = exp(-i*a*P/2) = cos(a/2) - i*sin(a/2)*P, as P @ P = 1
            a = np.asarray(angle_values(ref, theta, None))[..., None, None]
            w = np.cos(a / 2) * w - (1j * np.sin(a / 2)) * wp
        slots = sorted(by_slot)
        q = np.stack([by_slot[idx] for idx in slots], axis=-2)
        plan.append((True, (start, stop, w, np.array(slots), q)))
    layers = tuple((head[0], *rest) for head, *rest in layers)
    return Binding(circuit, theta, prefix, layers, tuple(plan))


def circuit_vjp(circuit: Circuit, params, inputs, states, qubits, weights, bound=None):
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
    B)`` its forward pass used (built here if not given); a wide circuit on
    few rows has no shared run and no prefix, and is swept per row.  Each
    shared run is taken at once on the d x d R = sum_b psi_b lambda_b^H at
    the run's end, one per circuit: every rotation's gradient is
    Im Tr(Q_k R), all of them and their chain rule one product with the
    binding's q, and the pair moves past the run as one product with
    conj(U); summing over rows first moves gradients in the last bits.  The
    sweep ends at the binding's product prefix, gates on one qubit each:
    with rho_q = Tr_{others} |psi><lambda| per row, a prefix rotation's
    dL/da is Im Tr(P rho_q), and un-applying its gate g is
    rho_q <- g^H rho_q g.  Other input steps are swept per row.  G stacked
    circuits are swept side by side up to the merge point: going backwards,
    the point after which no remaining step has a trainable angle, at the
    latest the prefix.  Before it every circuit's psi is the same and dL/da
    is linear in lambda, so the sweep goes on with one psi and the sum of
    the G lambdas, and the steps there run once, not G times.
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
    elif bound.circuit != circuit or bound.theta.shape != theta.shape:
        raise ValueError(f"binding does not fit {circuit.name} at {theta.shape}")
    signs = np.reshape([z_signs(n, q) for q in qubits], (len(qubits), d))
    # psi and lambda side by side: one apply_matrix call un-applies a gate
    # from both
    pair = np.stack([psi, (w @ signs) * psi])
    d_params = np.zeros(theta.shape)
    d_inputs = np.zeros(x.shape)
    plan = bound.plan
    # stacked angles broadcast against the pair's rows in per-row steps;
    # plan[:first] holds no trainable angle, so there the stacked circuits
    # apply the same gates
    theta_rows, first = theta, 0
    if theta.ndim == 2:
        theta_rows = theta[:, None, :]
        first = next(
            (
                j
                for j, (shared, item) in enumerate(plan)
                if shared or (item[2] is not None and item[2].slot_kind == "trainable")
            ),
            len(plan),
        )
    # the sweep ends on the prefix layers from the first with an angle
    enc = bound.layers
    enc = enc[next((k for k, l in enumerate(enc) if l[1] is not None), len(enc)) :]
    for j in range(len(plan) - 1, -1, -1):
        if j == first - 1:
            # the merge point: one psi, the sum of the lambdas
            pair = np.stack([pair[0, 0], pair[1].sum(axis=0)])
        shared, item = plan[j]
        if shared:
            _, _, u, slots, q = item
            r = (pair[0].mT @ pair[1].conj()).reshape(pair.shape[1:-2] + (d * d,))
            # Tr(Q R) = vdot(Q, R) as Q is Hermitian.  einsum, not matmul:
            # OpenBLAS runs this matrix-vector product on two threads, and
            # on a busy host their wake-ups cost more than the product
            d_params[..., slots] += np.einsum("...kx,...x->...k", q, r).imag
            if j == 0 and enc and pair.ndim == 4:
                # the sweep ends in the prefix, where every circuit's psi is
                # the same: un-apply one psi and the G lambdas, and merge
                u = u.conj()
                pair = np.stack([pair[0, 0] @ u[0], (pair[1] @ u).sum(axis=0)])
            elif j > 0 or enc:
                pair = pair @ u.conj()
            continue
        kind, targets, ref = item
        angle = ()
        if ref is not None:
            angle = (angle_values(ref, theta_rows, x),)
            p_psi = apply_matrix(pair[0], n, targets, GENERATORS[kind])
            overlap = np.einsum("...i,...i->...", pair[1].conj(), p_psi).imag
            for slot_kind, idx, factor in angle_partials(ref, theta_rows, x):
                term = factor * overlap
                if slot_kind == "trainable":
                    d_params[..., idx] += np.sum(term, axis=-1)
                else:
                    d_inputs[:, idx] += term if term.ndim == 1 else term.sum(axis=0)
        if j > 0 or enc:
            inverse = gate_matrix(kind, tuple(-a for a in angle))
            pair = apply_matrix(pair, n, targets, inverse)
    if not enc:
        return d_params, d_inputs
    if pair.ndim == 4:
        pair = np.stack([pair[0, 0], pair[1].sum(axis=0)])
    # rho[b, q] = Tr_{others} |psi_b><lambda_b| per qubit, (B, n, 2, 2)
    halves = _halves(n)
    rho = np.einsum("bqit,bqjt->bqij", pair[0][:, halves], pair[1].conj()[:, halves])
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
