import numpy as np
import pytest
from conftest import same_bytes
from reference import apply_gates, run

import qweather.circuits as circuits_mod
from qweather.autodiff import bind
from qweather.circuits import (
    AngleRef,
    Circuit,
    CircuitOp,
    angle_partials,
    angle_values,
    build_qlstm_vqc,
    build_real_amplitudes,
    build_reuploading_ising,
    build_reuploading_sel,
    build_z_feature_map,
    build_zz_feature_map,
    circuit_from_name,
    run_circuit_batch,
)
from qweather.qsim import MAX_QUBITS

ALL_TEMPLATES = [
    build_reuploading_ising(3, 2),
    build_reuploading_sel(4, 4),
    build_zz_feature_map(4, 1),
    build_real_amplitudes(4, 3),
    build_z_feature_map(4, 1),
    build_qlstm_vqc(4, 2),
]


@pytest.mark.parametrize(
    "circuit,expected",
    [
        (build_reuploading_ising(3, 2), 21),
        (build_reuploading_ising(3, 1), 12),
        (build_reuploading_sel(4, 4), 48),
        (build_reuploading_sel(2, 1), 6),
        (build_real_amplitudes(4, 3), 16),
        (build_real_amplitudes(2, 0), 2),
        (build_real_amplitudes(3, 1), 6),
        (build_qlstm_vqc(4, 2), 24),
        (build_zz_feature_map(4, 1), 0),
        (build_z_feature_map(4, 1), 0),
    ],
)
def test_trainable_counts(circuit, expected):
    assert circuit.n_trainable == expected


def test_trainable_count_matches_emitted_slots():
    for circuit in ALL_TEMPLATES:
        seen = {
            ref.slot_index
            for op in circuit.ops
            for ref in op.angles
            if ref.slot_kind == "trainable"
        }
        assert seen == set(range(circuit.n_trainable))


def test_ising_references_each_input_layers_plus_one_times():
    circuit = build_reuploading_ising(3, 2)
    counts = np.zeros(3, dtype=int)
    for op in circuit.ops:
        for ref in op.angles:
            if ref.slot_kind == "input":
                counts[ref.slot_index] += 1
    assert np.array_equal(counts, [3, 3, 3])


def test_sel_references_each_input_layers_times():
    circuit = build_reuploading_sel(4, 4)
    counts = np.zeros(4, dtype=int)
    for op in circuit.ops:
        for ref in op.angles:
            if ref.slot_kind == "input":
                counts[ref.slot_index] += 1
    assert np.array_equal(counts, [4, 4, 4, 4])


def test_sel_cnot_ranges_for_4_qubits_4_layers():
    circuit = build_reuploading_sel(4, 4)
    ranges = []
    for op in circuit.ops:
        if op.kind == "CNOT":
            c, t = op.targets
            ranges.append((t - c) % 4)
    # n CNOTs per layer, all with the layer's range
    assert ranges == [2] * 4 + [3] * 4 + [1] * 4 + [2] * 4


def test_zz_feature_map_slot_counts():
    assert len(build_zz_feature_map(4, 1).ops) == 17
    assert len(build_zz_feature_map(2, 2).ops) == 14


def test_z_feature_map_slot_count():
    assert len(build_z_feature_map(4, 1).ops) == 8


def test_qlstm_vqc_encoding_slots():
    circuit = build_qlstm_vqc(4, 1)
    head = circuit.ops[:12]
    assert [op.kind for op in head] == ["H"] * 4 + ["RY"] * 4 + ["RZ"] * 4
    assert all(op.angles[0].transform == "arctan" for op in head[4:8])
    assert all(op.angles[0].transform == "arctan_square" for op in head[8:12])


def test_qlstm_vqc_zero_input_encoding_angles_vanish():
    circuit = build_qlstm_vqc(4, 1)
    for op in circuit.ops[4:12]:
        (ref,) = op.angles
        assert angle_values(ref, np.zeros(12), np.zeros(4)) == 0.0


def test_real_amplitudes_structure():
    circuit = build_real_amplitudes(3, 1)
    kinds = [op.kind for op in circuit.ops]
    assert kinds == ["RY"] * 3 + ["CNOT"] * 2 + ["RY"] * 3
    assert len([k for k in kinds if k == "CNOT"]) == 2
    assert all(op.kind != "CNOT" for op in build_real_amplitudes(2, 0).ops)


def _spell(op):
    """An op as 'KIND targets angle...': t3 / i3 name a slot, and a
    transform or scale other than the identity's is written around it."""
    words = [op.kind, ",".join(map(str, op.targets))]
    for ref in op.angles:
        word = f"{ref.slot_kind[0]}{ref.slot_index}"
        if ref.transform == "zz_product":
            word = f"zz(i{ref.slot_index},i{ref.partner})"
        elif ref.transform != "identity":
            word = f"{ref.transform}({word})"
        if ref.scale != 1.0:
            word = f"{ref.scale:g}*{word}"
        words.append(word)
    return " ".join(words)


# each template's ops at its default size (3 qubits where it has none), one
# layer per line, in circuit order
PINNED_OPS = {
    "reuploading_ising(3,2)": [
        "RY 0 i0; RY 1 i1; RY 2 i2",
        "RX 0 t0; RX 1 t1; RX 2 t2",
        "RZ 0 t3; RZ 1 t4; RZ 2 t5",
        "RZZ 0,1 t6; RZZ 1,2 t7; RZZ 2,0 t8",
        "RY 0 i0; RY 1 i1; RY 2 i2",
        "RX 0 t9; RX 1 t10; RX 2 t11",
        "RZ 0 t12; RZ 1 t13; RZ 2 t14",
        "RZZ 0,1 t15; RZZ 1,2 t16; RZZ 2,0 t17",
        "RY 0 i0; RY 1 i1; RY 2 i2",
        "RY 0 t18; RY 1 t19; RY 2 t20",
    ],
    "reuploading_sel(4,4)": [
        "RY 0 i0; RY 1 i1; RY 2 i2; RY 3 i3",
        "R3 0 t0 t1 t2; R3 1 t3 t4 t5; R3 2 t6 t7 t8; R3 3 t9 t10 t11",
        "CNOT 0,2; CNOT 1,3; CNOT 2,0; CNOT 3,1",
        "RY 0 i0; RY 1 i1; RY 2 i2; RY 3 i3",
        "R3 0 t12 t13 t14; R3 1 t15 t16 t17; R3 2 t18 t19 t20; R3 3 t21 t22 t23",
        "CNOT 0,3; CNOT 1,0; CNOT 2,1; CNOT 3,2",
        "RY 0 i0; RY 1 i1; RY 2 i2; RY 3 i3",
        "R3 0 t24 t25 t26; R3 1 t27 t28 t29; R3 2 t30 t31 t32; R3 3 t33 t34 t35",
        "CNOT 0,1; CNOT 1,2; CNOT 2,3; CNOT 3,0",
        "RY 0 i0; RY 1 i1; RY 2 i2; RY 3 i3",
        "R3 0 t36 t37 t38; R3 1 t39 t40 t41; R3 2 t42 t43 t44; R3 3 t45 t46 t47",
        "CNOT 0,2; CNOT 1,3; CNOT 2,0; CNOT 3,1",
    ],
    "zz_feature_map(3,1)": [
        "H 0; H 1; H 2",
        "RZ 0 2*i0; RZ 1 2*i1; RZ 2 2*i2",
        "CNOT 0,1; RZ 1 2*zz(i0,i1); CNOT 0,1",
        "CNOT 1,2; RZ 2 2*zz(i1,i2); CNOT 1,2",
    ],
    "real_amplitudes(3,3)": [
        "RY 0 t0; RY 1 t1; RY 2 t2",
        "CNOT 0,1; CNOT 1,2",
        "RY 0 t3; RY 1 t4; RY 2 t5",
        "CNOT 0,1; CNOT 1,2",
        "RY 0 t6; RY 1 t7; RY 2 t8",
        "CNOT 0,1; CNOT 1,2",
        "RY 0 t9; RY 1 t10; RY 2 t11",
    ],
    "z_feature_map(4,1)": [
        "H 0; H 1; H 2; H 3",
        "RZ 0 2*i0; RZ 1 2*i1; RZ 2 2*i2; RZ 3 2*i3",
    ],
    "qlstm_vqc(4,1)": [
        "H 0; H 1; H 2; H 3",
        "RY 0 arctan(i0); RY 1 arctan(i1); RY 2 arctan(i2); RY 3 arctan(i3)",
        "RZ 0 arctan_square(i0); RZ 1 arctan_square(i1); "
        "RZ 2 arctan_square(i2); RZ 3 arctan_square(i3)",
        "CNOT 0,1; CNOT 1,2; CNOT 2,3; CNOT 3,0",
        "R3 0 t0 t1 t2; R3 1 t3 t4 t5; R3 2 t6 t7 t8; R3 3 t9 t10 t11",
    ],
}


@pytest.mark.parametrize(
    "circuit",
    [
        build_reuploading_ising(),
        build_reuploading_sel(),
        build_zz_feature_map(3),
        build_real_amplitudes(3),
        build_z_feature_map(),
        build_qlstm_vqc(),
    ],
    ids=lambda c: c.name,
)
def test_template_ops_in_layer_order(circuit):
    assert "; ".join(map(_spell, circuit.ops)) == "; ".join(PINNED_OPS[circuit.name])


TEMPLATE_GRID = [
    (build, a, b)
    for build, sizes in [
        (build_reuploading_ising, [(3, 1), (3, 2), (3, 5)]),
        (build_reuploading_sel, [(n, b) for n in (2, 3, 4, 7) for b in (1, 2, 5)]),
        (build_zz_feature_map, [(n, b) for n in (2, 3, 6) for b in (1, 3)]),
        (build_real_amplitudes, [(n, b) for n in (2, 3, 6) for b in (0, 1, 3)]),
        (build_z_feature_map, [(n, b) for n in (1, 4, 6) for b in (1, 2)]),
        (build_qlstm_vqc, [(n, b) for n in (2, 4, 5) for b in (1, 2, 3)]),
    ]
    for a, b in sizes
]


@pytest.mark.parametrize(
    "build,a,b", TEMPLATE_GRID, ids=lambda v: getattr(v, "__name__", str(v))
)
def test_template_round_trips_through_its_name(build, a, b):
    circuit = build(a, b)
    assert circuit.name == f"{build.__name__[len('build_'):]}({a},{b})"
    assert circuit_from_name(circuit.name) == circuit
    # one shared circuit per template and sizes
    assert circuit_from_name(circuit.name) is circuit is build(a, b)


def test_circuit_from_name_rejects_unknown():
    with pytest.raises(ValueError):
        circuit_from_name("mystery(3,2)")
    for bad in ("reuploading_sel(4)", "reuploading_sel(4,4) ", "qlstm_vqc(-2,1)"):
        with pytest.raises(ValueError, match="unknown circuit descriptor"):
            circuit_from_name(bad)


def test_circuit_qubit_count_is_capped():
    # the cap is checked when the circuit is built, before any state exists
    assert Circuit("widest", MAX_QUBITS, (), 0, 0).n_qubits == MAX_QUBITS
    for n in (-1, 0, MAX_QUBITS + 1):
        with pytest.raises(ValueError, match=r"n_qubits must be in \[1, 24\]"):
            Circuit("bad", n, (), 0, 0)
    with pytest.raises(ValueError, match="n_qubits must be in"):
        build_reuploading_sel(30, 1)


@pytest.mark.parametrize(
    "builder,args",
    [
        (build_reuploading_ising, (2, 2)),
        (build_reuploading_ising, (3, 0)),
        (build_reuploading_sel, (1, 1)),
        (build_reuploading_sel, (4, 0)),
        (build_zz_feature_map, (1, 1)),
        (build_zz_feature_map, (4, 0)),
        (build_real_amplitudes, (1, 3)),
        (build_real_amplitudes, (4, -1)),
        (build_z_feature_map, (0, 1)),
        (build_qlstm_vqc, (1, 1)),
    ],
)
def test_builders_reject_invalid_sizes(builder, args):
    with pytest.raises(ValueError):
        builder(*args)


@pytest.mark.parametrize(
    "build,a,b", TEMPLATE_GRID, ids=lambda v: getattr(v, "__name__", str(v))
)
def test_builders_read_integral_float_sizes_as_ints(build, a, b):
    circuit = build(a, b)
    for sizes in ((float(a), b), (a, float(b)), (float(a), float(b))):
        assert build(*sizes) is circuit
    for sizes in ((a + 0.5, b), (a, b + 0.5)):
        with pytest.raises(ValueError, match=f"{build.__name__}|3 qubits"):
            build(*sizes)


def bind_and_run(circuit, params, inputs):
    """One row run unbound and under a binding, which must agree."""
    x = np.reshape(inputs, (1, -1))
    unbound = run_circuit_batch(circuit, params, x)
    bound = run_circuit_batch(circuit, params, x, bound=bind(circuit, params, 1))
    assert np.allclose(unbound, bound, atol=1e-12)
    return unbound[0]


def test_bind_and_run_empty_circuit():
    empty = Circuit("empty", 2, (), 0, 0)
    amps = bind_and_run(empty, [], [])
    assert same_bytes(amps, np.array([1, 0, 0, 0], dtype=complex))


def test_bind_and_run_z_map_on_zero_input():
    amps = bind_and_run(build_z_feature_map(1, 1), [], [0.0])
    assert np.allclose(np.abs(amps) ** 2, [0.5, 0.5], atol=1e-12)


def test_bind_and_run_real_amplitudes_flips_qubit0():
    amps = bind_and_run(build_real_amplitudes(2, 0), [np.pi, 0.0], [])
    assert np.allclose(np.abs(amps) ** 2, [0, 0, 1, 0], atol=1e-12)


def test_z_map_fidelity_is_cos_squared():
    circuit = build_z_feature_map(1, 1)
    rng = np.random.default_rng(7)
    for x in rng.uniform(0, np.pi, size=8):
        a = run_circuit_batch(circuit, [], [x])
        assert abs(np.vdot(a, a)) == pytest.approx(1.0, abs=1e-12)
        for xp in rng.uniform(0, np.pi, size=4):
            b = run_circuit_batch(circuit, [], [xp])
            fid = abs(np.vdot(a, b)) ** 2
            assert fid == pytest.approx(np.cos(x - xp) ** 2, abs=1e-12)
    a = run_circuit_batch(circuit, [], [0.0])
    b = run_circuit_batch(circuit, [], [np.pi / 2])
    assert abs(np.vdot(a, b)) ** 2 == pytest.approx(0.0, abs=1e-12)


def test_output_norm_is_one_on_all_templates():
    rng = np.random.default_rng(23)
    for circuit in ALL_TEMPLATES:
        for _ in range(3):
            theta = rng.normal(size=circuit.n_trainable)
            x = rng.normal(size=circuit.n_inputs)
            amps = run_circuit_batch(circuit, theta, x)
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-10


def test_batch_run_matches_scalar_run():
    rng = np.random.default_rng(24)
    for circuit in ALL_TEMPLATES:
        batch = 5
        theta = rng.normal(size=(batch, circuit.n_trainable))
        x = rng.normal(size=(batch, circuit.n_inputs))
        amps = run_circuit_batch(circuit, theta, x)
        assert amps.shape == (batch, 1 << circuit.n_qubits)
        for i in range(batch):
            assert np.allclose(amps[i], run(circuit, theta[i], x[i]), atol=1e-12)


def test_batch_run_broadcasts_shared_params():
    circuit = build_reuploading_sel(4, 2)
    rng = np.random.default_rng(25)
    theta = rng.normal(size=circuit.n_trainable)
    x = rng.normal(size=(6, 4))
    amps = run_circuit_batch(circuit, theta, x)
    for i in range(6):
        assert np.allclose(amps[i], run(circuit, theta, x[i]), atol=1e-12)


def _vqc_circuit(n):
    # zz feature map then real amplitudes, as the vqc classifier runs them
    fmap, ansatz = build_zz_feature_map(n, 1), build_real_amplitudes(n, 3)
    return Circuit(
        f"{fmap.name}+{ansatz.name}", n, fmap.ops + ansatz.ops, ansatz.n_trainable, n
    )


def _matrix_ndims(monkeypatch):
    """Record the ndim of every matrix run_circuit_batch applies."""
    ndims = []
    apply = circuits_mod.apply_matrix

    def recording(amps, n_qubits, targets, mat, kind=None):
        ndims.append(mat.ndim)
        return apply(amps, n_qubits, targets, mat, kind)

    monkeypatch.setattr(circuits_mod, "apply_matrix", recording)
    return ndims


@pytest.mark.parametrize(
    "circuit",
    [
        build_qlstm_vqc(4, 2),
        build_reuploading_sel(4, 4),
        build_reuploading_ising(3, 2),
        _vqc_circuit(3),
    ],
    ids=lambda c: c.name,
)
def test_shared_params_give_the_bytes_of_tiled_params(circuit, monkeypatch):
    # shared angles build one matrix per gate, tiled ones a matrix per row;
    # both paths must do the same float arithmetic
    rng = np.random.default_rng(26)
    batch = 7
    theta = rng.normal(size=circuit.n_trainable)
    tiled = np.tile(theta, (batch, 1))
    x = rng.uniform(-2.0, 2.0, size=(batch, circuit.n_inputs))
    ndims = _matrix_ndims(monkeypatch)
    shared = run_circuit_batch(circuit, theta, x)
    shared_ndims = ndims[:]
    ndims.clear()
    per_row = run_circuit_batch(circuit, tiled, x)
    assert same_bytes(shared, per_row)
    for op, shared_nd, row_nd in zip(circuit.ops, shared_ndims, ndims):
        kinds = {ref.slot_kind for ref in op.angles}
        assert shared_nd == (3 if "input" in kinds else 2)
        assert row_nd == (3 if kinds else 2)


def test_rows_widen_only_where_a_gate_needs_them(monkeypatch):
    """A gate group's forward runs its H layer on one row, its input
    encoding and first CNOT ring on B rows and only the gates from its first
    trainable one on G x B, with the bytes of a run that starts from a
    full-width |0...0>."""
    circuit = build_qlstm_vqc(4, 2)
    rng = np.random.default_rng(28)
    thetas = rng.normal(size=(3, 1, circuit.n_trainable))
    x = rng.uniform(-2.0, 2.0, size=(1, 5, circuit.n_inputs))
    rows = []
    apply = circuits_mod.apply_matrix

    def recording(amps, *args):
        rows.append(amps.shape[:-1])
        return apply(amps, *args)

    monkeypatch.setattr(circuits_mod, "apply_matrix", recording)
    amps = run_circuit_batch(circuit, thetas, x)
    assert rows == [()] * 4 + [(1, 5)] * 12 + [(3, 5)] * 12
    zero = np.zeros((3, 5, 16), dtype=complex)
    zero[..., 0] = 1.0
    assert same_bytes(amps, run_circuit_batch(circuit, thetas, x, state=zero))
    assert amps.flags.writeable


def test_run_from_a_state_continues_the_circuit():
    fmap, ansatz = build_zz_feature_map(3, 1), build_real_amplitudes(3, 3)
    full = _vqc_circuit(3)
    rng = np.random.default_rng(27)
    theta = rng.normal(size=ansatz.n_trainable)
    x = rng.uniform(0.0, np.pi, size=(5, 3))
    states = run_circuit_batch(fmap, (), x)
    kept = states.copy()
    amps = run_circuit_batch(ansatz, theta, (), state=states)
    assert same_bytes(amps, run_circuit_batch(full, theta, x))
    assert same_bytes(states, kept)
    with pytest.raises(ValueError):
        run_circuit_batch(ansatz, theta, (), state=np.zeros((5, 4), dtype=complex))


# angles whose RY matrix holds exact zeros (0.0, -0.0) or exact ones (pi, 2 pi)
SPECIAL_ANGLES = (0.0, -0.0, np.pi, 2 * np.pi)


def _random_real_circuit(rng, n_qubits, n_ops):
    """``n_ops`` random gates with real matrices: RY on an identity or an
    arctan angle, H, and on two or more qubits CNOT and CZ."""
    kinds = ["RY", "H"] + ["CNOT", "CZ"] * (n_qubits > 1)
    ops, k = [], 0
    for kind in rng.choice(kinds, size=n_ops):
        if kind == "RY":
            transform = str(rng.choice(["identity", "arctan"]))
            scale = 1.0 if transform == "identity" else 2.0
            ref = AngleRef("trainable", k, transform, scale)
            ops.append(CircuitOp("RY", (int(rng.integers(n_qubits)),), (ref,)))
            k += 1
        else:
            targets = rng.choice(n_qubits, size=1 if kind == "H" else 2, replace=False)
            ops.append(CircuitOp(str(kind), tuple(int(t) for t in targets)))
    return Circuit(f"real{n_qubits}", n_qubits, tuple(ops), k, 0)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("batch", [2, 5, 64])
def test_real_circuits_on_given_rows_match_gate_by_gate(n_qubits, batch):
    """A circuit of real gates, on given rows with one shared theta, runs on
    real rows.  Its amplitudes are the gate-by-gate ones up to the sign of
    a zero, which + 0.0 folds away, and its probabilities are the same."""
    rng = np.random.default_rng(100 * n_qubits + batch)
    dim = 1 << n_qubits
    for _ in range(4):
        circuit = _random_real_circuit(rng, n_qubits, 6 * n_qubits)
        assert circuits_mod._real_plan(circuit) is not None
        theta = rng.normal(scale=3.0, size=circuit.n_trainable)
        special = rng.random(theta.size) < 0.4
        theta[special] = rng.choice(SPECIAL_ANGLES, size=special.sum())
        state = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
        parts = state.view(float)
        zero = rng.random(parts.shape) < 0.2
        parts[zero] = rng.choice([0.0, -0.0], size=zero.sum())
        gates = []
        for op in circuit.ops:
            angles = ()
            if op.angles:
                ref = op.angles[0]
                v = theta[ref.slot_index]
                angles = (ref.scale * (v if ref.transform == "identity" else np.arctan(v)),)
            gates.append((op.kind, op.targets, angles))
        want = apply_gates(state, gates)
        got = run_circuit_batch(circuit, theta, (), state=state)
        assert same_bytes(np.abs(got) ** 2, np.abs(want) ** 2)
        assert same_bytes(got + 0.0, want + 0.0)


def test_only_real_gates_on_given_rows_skip_apply_matrix(monkeypatch):
    """vqc's ansatz on the feature map's states with one shared theta runs
    on real rows, with no apply_matrix call; a feature map, per-row angles,
    stacked theta, a binding (wide at 5 rows on 3 qubits) and a lone (d,)
    state apply every gate."""
    fmap, ansatz = build_zz_feature_map(3, 1), build_real_amplitudes(3, 3)
    rng = np.random.default_rng(29)
    theta = rng.normal(size=ansatz.n_trainable)
    x = rng.uniform(0.0, np.pi, size=(5, 3))
    states = run_circuit_batch(fmap, (), x)
    calls = []
    apply = circuits_mod.apply_matrix

    def counting(*args):
        calls.append(1)
        return apply(*args)

    monkeypatch.setattr(circuits_mod, "apply_matrix", counting)
    every, stacked = len(ansatz.ops), np.stack([theta, -theta])[:, None]
    for name, circuit, params, inputs, state, bound, want in [
        ("real ansatz", ansatz, theta, (), states, None, 0),
        ("feature map", fmap, (), x, None, None, len(fmap.ops)),
        ("per-row angles", ansatz, np.tile(theta, (5, 1)), (), states, None, every),
        ("stacked theta", ansatz, stacked, (), states, None, every),
        ("binding", ansatz, theta, (), states, bind(ansatz, theta, 5), every),
        ("one row", ansatz, theta, (), states[0], None, every),
    ]:
        calls.clear()
        run_circuit_batch(circuit, params, inputs, state=state, bound=bound)
        assert len(calls) == want, name


def test_angle_shift_offsets_one_occurrence():
    # the reference run's shifts, which the parameter-shift oracle batches
    circuit = build_real_amplitudes(2, 0)
    theta = np.array([0.3, -0.8])
    shifted = run(circuit, theta, [], {(0, 0): np.array([np.pi / 2, 0.0])})
    direct = run(circuit, [0.3 + np.pi / 2, -0.8], [])
    assert np.allclose(shifted, [direct, run(circuit, theta, [])], atol=1e-12)


def test_angle_transforms_and_partials():
    theta = np.array([0.4])
    x = np.array([0.7, -1.3])
    cases = [
        (AngleRef("trainable", 0), 0.4, 1.0),
        (AngleRef("input", 0, "arctan"), np.arctan(0.7), 1 / (1 + 0.49)),
        (
            AngleRef("input", 1, "arctan_square"),
            np.arctan(1.69),
            2 * (-1.3) / (1 + (-1.3) ** 4),
        ),
        (AngleRef("input", 0, scale=2.0), 1.4, 2.0),
    ]
    for ref, want_angle, want_d in cases:
        assert angle_values(ref, theta, x) == pytest.approx(want_angle, abs=1e-12)
        (_, _, d) = angle_partials(ref, theta, x)[0]
        assert d == pytest.approx(want_d, abs=1e-12)


def test_zz_product_angle_and_partials():
    x = np.array([0.2, 0.9])
    ref = AngleRef("input", 0, "zz_product", 2.0, partner=1)
    want = 2.0 * (np.pi - 0.2) * (np.pi - 0.9)
    assert angle_values(ref, np.zeros(0), x) == pytest.approx(want, abs=1e-12)
    parts = {idx: d for (_, idx, d) in angle_partials(ref, np.zeros(0), x)}
    assert parts[0] == pytest.approx(-2.0 * (np.pi - 0.9), abs=1e-12)
    assert parts[1] == pytest.approx(-2.0 * (np.pi - 0.2), abs=1e-12)


def test_angle_partials_match_finite_differences():
    rng = np.random.default_rng(26)
    h = 1e-6
    refs = [
        AngleRef("input", 0, "arctan"),
        AngleRef("input", 0, "arctan_square"),
        AngleRef("input", 0, "zz_product", 2.0, partner=1),
        AngleRef("input", 1, scale=2.0),
    ]
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, size=2)
        for ref in refs:
            for kind, idx, d in angle_partials(ref, np.zeros(0), x):
                xp, xm = x.copy(), x.copy()
                xp[idx] += h
                xm[idx] -= h
                fd = (
                    angle_values(ref, np.zeros(0), xp)
                    - angle_values(ref, np.zeros(0), xm)
                ) / (2 * h)
                assert d == pytest.approx(fd, abs=1e-6)


def test_bind_rejects_wrong_param_length():
    circuit = build_real_amplitudes(2, 0)
    for params in ([0.1], [0.1, 0.2, 0.3]):
        with pytest.raises(ValueError):
            bind(circuit, params, 1)
        with pytest.raises(ValueError):
            run_circuit_batch(circuit, params, [])


def test_bind_rejects_wrong_input_length():
    circuit = build_z_feature_map(4, 1)
    with pytest.raises(ValueError):
        run_circuit_batch(circuit, [], [0.1, 0.2])


def test_angle_ref_validation():
    with pytest.raises(ValueError):
        AngleRef("weights", 0)
    with pytest.raises(ValueError):
        AngleRef("input", 0, "square")
    with pytest.raises(ValueError):
        AngleRef("input", 0, "zz_product")
    with pytest.raises(ValueError):
        AngleRef("trainable", 0, "zz_product", partner=1)
    with pytest.raises(ValueError):
        CircuitOp("RY", (0,), ())
    with pytest.raises(ValueError):
        Circuit("bad", 2, (CircuitOp("H", (3,)),), 0, 0)
    with pytest.raises(ValueError):
        Circuit("bad", 2, (CircuitOp("RY", (0,), (AngleRef("trainable", 5),)),), 1, 0)


def test_circuit_op_rejects_duplicate_targets():
    # a CNOT on (1, 1) once built and ran as a wrong state
    with pytest.raises(ValueError, match="duplicate"):
        CircuitOp("CNOT", (1, 1))
    with pytest.raises(ValueError, match="duplicate"):
        Circuit("dup", 2, (CircuitOp("H", (0,)), CircuitOp("CNOT", (1, 1))), 0, 0)
