import functools
import itertools

import numpy as np
import pytest
from conftest import same_bytes
from reference import apply_gates, inverse, zero_state
from scipy.linalg import expm, qr

from qweather.circuits import AngleRef, CircuitOp
from qweather.qsim import (
    GATE_ARITY,
    GENERATORS,
    apply_matrix,
    gate_matrix,
    z_expectations,
    z_signs,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1, -1]).astype(complex)


@pytest.mark.parametrize(
    "kind,pauli",
    [("RX", X), ("RY", Y), ("RZ", Z)],
)
def test_single_qubit_rotations_match_exponential(kind, pauli):
    rng = np.random.default_rng(11)
    for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=10):
        expected = expm(-0.5j * theta * pauli)
        assert np.allclose(gate_matrix(kind, (theta,)), expected, atol=1e-12)
    _check_batch_matches_exponential(kind, pauli, rng)


def _check_batch_matches_exponential(kind, pauli, rng):
    # a (2, 3) batch of angles gives a (2, 3) batch of matrices, one per angle
    thetas = rng.uniform(-2 * np.pi, 2 * np.pi, size=(2, 3))
    mats = gate_matrix(kind, (thetas,))
    assert mats.shape == (2, 3) + pauli.shape
    for index in np.ndindex(thetas.shape):
        expected = expm(-0.5j * thetas[index] * pauli)
        assert np.allclose(mats[index], expected, atol=1e-12)


@pytest.mark.parametrize(
    "kind,pauli",
    [("RXX", np.kron(X, X)), ("RYY", np.kron(Y, Y)), ("RZZ", np.kron(Z, Z))],
)
def test_two_qubit_rotations_match_exponential(kind, pauli):
    rng = np.random.default_rng(12)
    for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=10):
        expected = expm(-0.5j * theta * pauli)
        assert np.allclose(gate_matrix(kind, (theta,)), expected, atol=1e-12)
    _check_batch_matches_exponential(kind, pauli, rng)


def test_entries_outside_the_identity_and_generator_are_zero_bytes():
    # apply_matrix picks its index tables from the nonzero pattern, so an
    # entry that neither I nor P fills must be +0j in every bit, at angles
    # of +0.0 and -0.0 too; R3 fills all four entries, and a fixed gate's
    # pattern is its own nonzero entries
    angles = np.array([0.0, -0.0, 0.3, -2.1, np.pi])
    for kind, (n_angles, n_targets) in GATE_ARITY.items():
        d = 1 << n_targets
        if kind in GENERATORS:
            pattern = (GENERATORS[kind] != 0) | np.eye(d, dtype=bool)
        elif n_angles:
            pattern = np.ones((d, d), dtype=bool)
        else:
            pattern = gate_matrix(kind) != 0
        per_angle = [gate_matrix(kind, (a,) * n_angles) for a in angles]
        for m in per_angle + [gate_matrix(kind, (angles,) * n_angles)]:
            outside = m[..., ~pattern]
            assert same_bytes(outside, np.zeros(outside.shape, dtype=complex)), kind


def test_rx_pi_on_zero_gives_minus_i_one():
    amps = apply_gates(zero_state(1), [("RX", (0,), (np.pi,))])
    assert np.allclose(amps, [0.0, -1.0j], atol=1e-12)


def test_rzz_diagonal_phases():
    theta = 0.7
    m = gate_matrix("RZZ", (theta,))
    lo, hi = np.exp(-0.5j * theta), np.exp(0.5j * theta)
    assert np.allclose(np.diag(m), [lo, hi, hi, lo], atol=1e-12)


def test_r3_is_rz_ry_rz_with_alpha_applied_first():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a, b, g = rng.uniform(-np.pi, np.pi, size=3)
        expected = gate_matrix("RZ", (g,)) @ gate_matrix("RY", (b,)) @ gate_matrix(
            "RZ", (a,)
        )
        assert np.allclose(gate_matrix("R3", (a, b, g)), expected, atol=1e-12)


def test_qubit0_is_most_significant_bit():
    # Flipping qubit 0 of |000> must populate index 4 (binary 100),
    # not index 1.
    amps = apply_gates(zero_state(3), [("RX", (0,), (np.pi,))])
    assert abs(amps[4]) ** 2 == pytest.approx(1.0, abs=1e-12)
    amps = apply_gates(zero_state(3), [("RX", (2,), (np.pi,))])
    assert abs(amps[1]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_cnot_first_target_is_control():
    # |10> -> |11>
    amps = apply_gates(zero_state(2), [("RX", (0,), (np.pi,)), ("CNOT", (0, 1), ())])
    assert abs(amps[3]) ** 2 == pytest.approx(1.0, abs=1e-12)
    # |01> stays |01> when qubit 0 is the control
    amps = apply_gates(zero_state(2), [("RX", (1,), (np.pi,)), ("CNOT", (0, 1), ())])
    assert abs(amps[1]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_cnot_respects_target_order_on_nonadjacent_qubits():
    # Control on qubit 2, target on qubit 0: |001> -> |101>
    amps = apply_gates(zero_state(3), [("RX", (2,), (np.pi,)), ("CNOT", (2, 0), ())])
    assert abs(amps[5]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_bell_state_via_h_and_cnot():
    amps = apply_gates(zero_state(2), [("H", (0,), ()), ("CNOT", (0, 1), ())])
    r = 1 / np.sqrt(2.0)
    assert np.allclose(amps, [r, 0, 0, r], atol=1e-12)


def test_cz_phase_only_on_11():
    gates = [("H", (0,), ()), ("H", (1,), ()), ("CZ", (0, 1), ())]
    amps = apply_gates(zero_state(2), gates)
    assert np.allclose(amps, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def _random_circuit(rng, n_qubits, n_gates):
    kinds = ["H", "RX", "RY", "RZ", "R3"]
    if n_qubits >= 2:
        kinds += ["CNOT", "CZ", "RXX", "RYY", "RZZ"]
    gates = []
    for _ in range(n_gates):
        kind = kinds[rng.integers(len(kinds))]
        n_angles = {"H": 0, "CNOT": 0, "CZ": 0, "R3": 3}.get(kind, 1)
        n_targets = 1 if kind in ("H", "RX", "RY", "RZ", "R3") else 2
        targets = tuple(
            rng.choice(n_qubits, size=n_targets, replace=False).tolist()
        )
        angles = tuple(rng.uniform(-np.pi, np.pi, size=n_angles).tolist())
        gates.append((kind, targets, angles))
    return gates


def test_norm_preserved_by_random_circuits():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        amps = apply_gates(zero_state(n), _random_circuit(rng, n, 30))
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-10


def test_inverse_circuit_recovers_initial_state():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        gates = _random_circuit(rng, n, 25)
        amps = apply_gates(zero_state(n), gates)
        amps = apply_gates(amps, [inverse(g) for g in reversed(gates)])
        assert np.allclose(amps, zero_state(n), atol=1e-12)


def test_gate_matrices_are_unitary():
    rng = np.random.default_rng(43)
    for kind, (n_angles, n_targets) in GATE_ARITY.items():
        angles = tuple(rng.uniform(-np.pi, np.pi, size=n_angles).tolist())
        m = gate_matrix(kind, angles)
        d = 2**n_targets
        assert np.allclose(m.conj().T @ m, np.eye(d), atol=1e-12)


def test_expectation_z_after_ry_is_cos_theta():
    rng = np.random.default_rng(44)
    for theta in rng.uniform(-np.pi, np.pi, size=10):
        amps = apply_gates(zero_state(1), [("RY", (0,), (theta,))])
        (z,) = z_expectations(amps, 1, [0])
        assert z == pytest.approx(np.cos(theta), abs=1e-12)


def test_expectation_z_matches_probability_weighted_signs():
    rng = np.random.default_rng(45)
    n = 4
    amps = apply_gates(zero_state(n), _random_circuit(rng, n, 25))
    probs = np.abs(amps) ** 2
    got = z_expectations(amps, n, range(n))
    assert np.allclose(got, [probs @ z_signs(n, q) for q in range(n)], atol=1e-12)
    # against <psi|Z_q|psi> with Z_q embedded densely, qubit 0 the leading factor
    for q in range(n):
        factors = [Z if k == q else np.eye(2) for k in range(n)]
        dense = functools.reduce(np.kron, factors)
        want = np.vdot(amps, dense @ amps).real
        assert got[q] == pytest.approx(want, abs=1e-12)


def test_z_signs_msb_layout():
    assert np.array_equal(z_signs(2, 0), [1.0, 1.0, -1.0, -1.0])
    assert np.array_equal(z_signs(2, 1), [1.0, -1.0, 1.0, -1.0])


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(46)
    probs = np.abs(apply_gates(zero_state(3), _random_circuit(rng, 3, 20))) ** 2
    assert np.all(probs >= 0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_batched_apply_matches_loop():
    rng = np.random.default_rng(48)
    n, batch = 3, 7
    amps = rng.normal(size=(batch, 8)) + 1j * rng.normal(size=(batch, 8))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    thetas = rng.uniform(-np.pi, np.pi, size=batch)
    mats = gate_matrix("RY", (thetas,))
    out = apply_matrix(amps, n, (1,), mats)
    for i in range(batch):
        single = apply_matrix(amps[i], n, (1,), gate_matrix("RY", (thetas[i],)))
        assert np.allclose(out[i], single, atol=1e-12)
    # shared two-qubit matrix over a batch
    out2 = apply_matrix(amps, n, (0, 2), gate_matrix("RZZ", (0.3,)))
    for i in range(batch):
        single = apply_matrix(amps[i], n, (0, 2), gate_matrix("RZZ", (0.3,)))
        assert np.allclose(out2[i], single, atol=1e-12)


@pytest.mark.parametrize(
    "targets,mat",
    [
        ((0, 1, 2), np.eye(8, dtype=complex)),
        ((1,), np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2))),
        ((1,), np.broadcast_to(np.eye(2, dtype=complex), (2, 7, 2, 2))),
        ((1, 1), gate_matrix("CNOT")),
        ((-1,), gate_matrix("H")),
        ((3,), gate_matrix("H")),
        ((0, 3), gate_matrix("CZ")),
        ((0, 1), gate_matrix("H")),
    ],
    ids=[
        "three_qubits",
        "batch_mismatch",
        "batch_wider_than_amplitudes",
        "duplicate_targets",
        "negative_target",
        "target_out_of_range",
        "second_target_out_of_range",
        "matrix_of_other_arity",
    ],
)
def test_apply_matrix_rejects_unsupported_inputs(targets, mat):
    amps = np.zeros((7, 8), dtype=complex)
    amps[:, 0] = 1.0
    with pytest.raises(ValueError):
        apply_matrix(amps, 3, targets, mat)


@pytest.mark.parametrize(
    "kind,targets,angles",
    [
        ("RX", (0,), ()),
        ("H", (0,), (0.1,)),
        ("CNOT", (0,), ()),
        ("CNOT", (1, 1), ()),
        ("R3", (0,), (0.1, 0.2)),
        ("WAT", (0,), ()),
    ],
)
def test_gate_validation(kind, targets, angles):
    with pytest.raises(ValueError):
        CircuitOp(kind, targets, tuple(AngleRef("trainable", 0) for _ in angles))


def test_gate_inverse_composes_to_identity():
    rng = np.random.default_rng(49)
    for kind, n_angles in [("RX", 1), ("RZ", 1), ("R3", 3), ("RZZ", 1)]:
        angles = tuple(rng.uniform(-np.pi, np.pi, size=n_angles).tolist())
        targets = (0,) if kind != "RZZ" else (0, 1)
        m = gate_matrix(kind, angles)
        _, _, inverse_angles = inverse((kind, targets, angles))
        mi = gate_matrix(kind, inverse_angles)
        assert np.allclose(mi @ m, np.eye(m.shape[0]), atol=1e-12)


def _slot_loop_reference(amps, n_qubits, targets, mat):
    """The per-slot loop ``apply_matrix`` ran before its gather kernel."""
    k = len(targets)
    batch_shape = amps.shape[:-1]
    off = len(batch_shape)
    if mat.ndim > 2 and mat.shape[:-2] != batch_shape:
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


def _random_amps(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _matches_reference(amps, n, targets, mat):
    got = apply_matrix(amps, n, targets, mat)
    want = _slot_loop_reference(amps, n, targets, mat)
    if amps.ndim == 1 and len(targets) == n:
        # with no batch axis and every qubit a target, the loop's slots were
        # numpy scalars, whose product rounds without the array loop's fused
        # multiply-add: complex entries (RZZ) differ in the last bit
        return np.allclose(got, want, rtol=0, atol=1e-15)
    return same_bytes(got, want)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_apply_matrix_matches_slot_loop_bytes(n):
    rng = np.random.default_rng(60 + n)
    # batch shape, per-row matrix batch shape; (2, 7) takes a (7,) batch
    # of matrices the way circuit_vjp un-applies a gate from psi and lambda
    batches = [((), None), ((1,), (1,)), ((7,), (7,)), ((2, 7), (7,))]
    for kind, (n_angles, n_targets) in GATE_ARITY.items():
        for targets in itertools.permutations(range(n), n_targets):
            for batch, mat_batch in batches:
                amps = _random_amps(rng, batch + (1 << n,))
                shared = gate_matrix(kind, tuple(rng.uniform(-np.pi, np.pi, n_angles)))
                assert _matches_reference(amps, n, targets, shared), (kind, targets, batch)
                if n_angles and mat_batch:
                    angles = rng.uniform(-np.pi, np.pi, (n_angles,) + mat_batch)
                    per_row = gate_matrix(kind, tuple(angles))
                    assert _matches_reference(amps, n, targets, per_row), (
                        kind, targets, batch, "per row"
                    )
    for kind, generator in GENERATORS.items():
        for targets in itertools.permutations(range(n), len(generator).bit_length() - 1):
            amps = _random_amps(rng, (7, 1 << n))
            assert _matches_reference(amps, n, targets, generator), (kind, targets)


def test_apply_matrix_exact_zeros_keep_their_sign():
    # signed zeros survive bytewise, except where a shared matrix mixes unit
    # and other entries (CZ, and the Z and ZZ generators): its unit entries
    # are multiplied too, and 1 * (a + bi) flips the sign of a zero part
    rng = np.random.default_rng(70)
    n = 3
    mixed_units = {"CZ"}
    for kind, (n_angles, n_targets) in GATE_ARITY.items():
        for targets in itertools.permutations(range(n), n_targets):
            amps = np.empty((5, 1 << n), dtype=complex)
            amps.real = rng.choice([0.0, -0.0], amps.shape)
            amps.imag = rng.choice([0.0, -0.0], amps.shape)
            amps[:, rng.integers(1 << n)] = 0.6 - 0.8j
            for angles in (rng.uniform(-np.pi, np.pi, n_angles), np.zeros(n_angles)):
                mat = gate_matrix(kind, tuple(angles))
                got = apply_matrix(amps, n, targets, mat)
                want = _slot_loop_reference(amps, n, targets, mat)
                if kind in mixed_units:
                    assert np.array_equal(got, want)
                else:
                    assert same_bytes(got, want), (kind, targets, angles)


@pytest.mark.parametrize("kind", ["RX", "RY", "RZ", "RXX", "RYY", "RZZ", "R3"])
def test_apply_matrix_pattern_from_the_kind_matches_the_batch_pattern(kind):
    # per-row matrices named by their kind take the kind's nonzero pattern
    # in place of one found over the batch: the same bytes at random angles;
    # where every row's angle is 0, entries the kind fills are exact zeros
    # the batch drops, and the two calls differ at most in signs of zeros
    rng = np.random.default_rng(73)
    n = 3
    n_angles, n_targets = GATE_ARITY[kind]
    for targets in itertools.permutations(range(n), n_targets):
        for batch, mat_batch in [((7,), (7,)), ((2, 7), (7,))]:
            amps = _random_amps(rng, batch + (1 << n,))
            angles = rng.uniform(-np.pi, np.pi, (n_angles,) + mat_batch)
            mat = gate_matrix(kind, tuple(angles))
            named = apply_matrix(amps, n, targets, mat, kind)
            assert same_bytes(named, apply_matrix(amps, n, targets, mat)), (kind, targets)
            zero = gate_matrix(kind, tuple(np.zeros_like(angles)))
            named = apply_matrix(amps, n, targets, zero, kind)
            assert np.array_equal(named, apply_matrix(amps, n, targets, zero)), (kind, targets)


def test_apply_matrix_dense_unitary_matches_slot_loop():
    # rows with four entries: more than any gate kind has
    rng = np.random.default_rng(71)
    for _ in range(5):
        u, _ = qr(_random_amps(rng, (4, 4)))
        per_row = np.stack([qr(_random_amps(rng, (4, 4)))[0] for _ in range(7)])
        amps = _random_amps(rng, (7, 16))
        for targets in [(0, 1), (3, 1), (2, 0)]:
            for mat in (u, per_row):
                got = apply_matrix(amps, 4, targets, mat)
                want = _slot_loop_reference(amps, 4, targets, mat)
                assert np.allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "targets,mat",
    [
        ((1,), gate_matrix("RZ", (0.3,))),
        ((1,), gate_matrix("RZ", (0.0,))),
        ((2, 0), gate_matrix("CNOT")),
        ((0,), gate_matrix("H")),
        ((1,), gate_matrix("RY", (np.linspace(-1, 1, 7),))),
        ((0, 2), gate_matrix("RZZ", (np.linspace(-1, 1, 7),))),
    ],
    ids=["diagonal", "identity", "permutation", "two_terms", "per_row", "per_row_diagonal"],
)
def test_apply_matrix_returns_a_fresh_array(targets, mat):
    # run_circuit_batch(..., state=) hands in a read-only broadcast view
    rng = np.random.default_rng(72)
    state = _random_amps(rng, (1, 8))
    for amps in (np.broadcast_to(state, (7, 8)), np.repeat(state, 7, axis=0)):
        before = amps.copy()
        out = apply_matrix(amps, 3, targets, mat)
        assert out.flags.c_contiguous and out.flags.writeable
        assert not np.shares_memory(out, amps)
        assert same_bytes(amps, before)
