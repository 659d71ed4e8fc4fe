import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import reference
from conftest import _patch_everywhere, same_bytes
from reference import finite_diff, param_shift

from qweather import autodiff, circuits
from qweather.autodiff import bind, circuit_vjp
from qweather.circuits import (
    AngleRef,
    Circuit,
    CircuitOp,
    build_qlstm_vqc,
    build_real_amplitudes,
    build_reuploading_ising,
    build_reuploading_sel,
    build_z_feature_map,
    build_zz_feature_map,
    run_circuit_batch,
)
from qweather.models_qnn import QnnModel, qnn_expectations
from qweather.qsim import apply_matrix, z_expectations

RY_ONLY = Circuit(
    "single_ry", 1, (CircuitOp("RY", (0,), (AngleRef("trainable", 0),)),), 1, 0
)
RX_ONLY = Circuit(
    "single_rx", 1, (CircuitOp("RX", (0,), (AngleRef("trainable", 0),)),), 1, 0
)


def test_ry_gradient_at_zero_and_quarter_turn():
    assert param_shift(RY_ONLY, [0.0], []) == pytest.approx([0.0], abs=1e-12)
    g1 = param_shift(RY_ONLY, [np.pi / 2], [])
    assert g1 == pytest.approx([-1.0], abs=1e-12)


def test_finite_diff_matches_analytic_sine():
    fd = finite_diff(RX_ONLY, [np.pi / 3], [])
    assert fd[0] == pytest.approx(-np.sin(np.pi / 3), abs=1e-8)


def test_expectation_of_ry_is_cosine():
    thetas = np.linspace(-np.pi, np.pi, 7)
    states = run_circuit_batch(RY_ONLY, thetas[:, None], np.zeros((7, 0)))
    z = z_expectations(states, 1, (0,))
    assert np.allclose(z[:, 0], np.cos(thetas), atol=1e-12)


def test_param_shift_matches_finite_diff_on_sel():
    rng = np.random.default_rng(31)
    circuit = build_reuploading_sel(4, 3)
    theta = rng.normal(size=circuit.n_trainable)
    x = rng.normal(size=circuit.n_inputs)
    shift = param_shift(circuit, theta, x)
    assert np.max(np.abs(shift - finite_diff(circuit, theta, x))) < 1e-6


def _zz_map_then_ry(n_qubits):
    """The ZZ feature map followed by one trainable RY per qubit.

    Alone, the map only adds phases to |+...+>, so every <Z_q> is 0 for all
    inputs; the RY layer turns those phases into a readout that depends on
    the zz_product angles.
    """
    fmap = build_zz_feature_map(n_qubits, 1)
    ry = tuple(
        CircuitOp("RY", (q,), (AngleRef("trainable", q),)) for q in range(n_qubits)
    )
    return Circuit(f"{fmap.name}+RY", n_qubits, fmap.ops + ry, n_qubits, n_qubits)


@pytest.mark.parametrize(
    "circuit",
    [
        build_reuploading_ising(3, 2),
        build_reuploading_sel(4, 2),
        build_qlstm_vqc(4, 1),
        _zz_map_then_ry(4),
    ],
    ids=lambda c: c.name,
)
@pytest.mark.parametrize("wrt", ["trainable", "inputs"])
def test_param_shift_matches_finite_diff_across_templates(circuit, wrt):
    rng = np.random.default_rng(abs(hash(circuit.name)) % 2**32)
    for _ in range(5):
        theta = rng.normal(size=circuit.n_trainable)
        x = rng.uniform(-1.0, 1.0, size=circuit.n_inputs)
        obs = [(0, 1.0), (1, 0.5)]
        ps = param_shift(circuit, theta, x, obs, wrt)
        fd = finite_diff(circuit, theta, x, obs, wrt)
        if ps.size:
            assert np.max(np.abs(ps - fd)) < 1e-5
        else:
            assert fd.size == 0 or np.allclose(fd, 0, atol=1e-5)


def test_feature_map_has_no_trainable_gradient():
    circuit = build_zz_feature_map(4, 1)
    x = [0.1, 0.2, 0.3, 0.4]
    assert param_shift(circuit, [], x).size == 0
    assert finite_diff(circuit, [], x).size == 0


def test_gradient_outside_light_cone_is_zero():
    circuit = Circuit(
        "two_disjoint_ry",
        2,
        (
            CircuitOp("RY", (0,), (AngleRef("trainable", 0),)),
            CircuitOp("RY", (1,), (AngleRef("trainable", 1),)),
        ),
        2,
        0,
    )
    grad = param_shift(circuit, [0.4, 1.1], [])
    assert abs(grad[1]) < 1e-10
    assert grad[0] == pytest.approx(-np.sin(0.4), abs=1e-10)


def test_weighted_observable_gradient_is_linear():
    rng = np.random.default_rng(33)
    circuit = build_reuploading_sel(4, 2)
    theta = rng.normal(size=circuit.n_trainable)
    x = rng.normal(size=4)
    w0, w2 = 0.7, -1.3
    combined = param_shift(circuit, theta, x, [(0, w0), (2, w2)])
    g0 = param_shift(circuit, theta, x, 0)
    g2 = param_shift(circuit, theta, x, 2)
    assert np.max(np.abs(combined - (w0 * g0 + w2 * g2))) < 1e-10


def _contracted_param_shift(circuit, theta, xs, qubits, weights):
    """Per-sample parameter-shift gradients of sum_q w_bq <Z_q>: summed over
    samples for the parameters, one row per sample for the inputs."""
    d_params = np.zeros(circuit.n_trainable)
    d_inputs = np.zeros(xs.shape)
    for s, x in enumerate(xs):
        obs = list(zip(qubits, weights[s]))
        d_params += param_shift(circuit, theta, x, obs)
        d_inputs[s] = param_shift(circuit, theta, x, obs, "inputs")
    return d_params, d_inputs


def _trainable(slot, transform="identity", scale=1.0):
    return (AngleRef("trainable", slot, transform, scale),)


# One shared run between per-row steps holds H, CZ, a two-qubit rotation of
# each kind on the wrap-around pair (2, 0), an arctan-squashed, scaled
# trainable angle, and slots that two gates share.
SHARED_MIX = Circuit(
    "shared_mix",
    3,
    (
        CircuitOp("RY", (0,), (AngleRef("input", 0),)),
        CircuitOp("RY", (1,), (AngleRef("input", 1),)),
        CircuitOp("RX", (0,), _trainable(0, "arctan", 1.7)),
        CircuitOp("H", (1,)),
        CircuitOp("RXX", (2, 0), _trainable(1)),
        CircuitOp("CZ", (1, 2)),
        CircuitOp("RYY", (2, 0), _trainable(0, "arctan", 1.7)),
        CircuitOp("RZZ", (2, 0), _trainable(2, scale=-0.6)),
        CircuitOp("RZ", (2,), (AngleRef("input", 2, "arctan"),)),
        CircuitOp("R3", (1,), _trainable(3) + _trainable(4) + _trainable(1)),
        CircuitOp("CNOT", (0, 2)),
    ),
    5,
    3,
)

# Its first shared run opens the sweep, so the pair is never moved past it.
TRAINABLE_FIRST = Circuit(
    "trainable_first",
    3,
    (
        CircuitOp("RY", (0,), _trainable(0)),
        CircuitOp("CNOT", (0, 1)),
        CircuitOp("RX", (2,), _trainable(1)),
        CircuitOp("RY", (1,), (AngleRef("input", 0),)),
        CircuitOp("RZ", (2,), (AngleRef("input", 1, scale=0.8),)),
        CircuitOp("CNOT", (2, 0)),
        CircuitOp("RY", (2,), _trainable(2)),
    ),
    3,
    2,
)


def _vjp_case(circuit, rows=40, qubits=None, id=None):
    if qubits is None:
        qubits = (0, 2) if circuit.n_qubits > 3 else (0, 1, 2)
    return pytest.param(circuit, rows, qubits, id=id or circuit.name)


@pytest.mark.parametrize(
    "circuit, rows, qubits",
    [
        _vjp_case(build_reuploading_ising(3, 2)),
        _vjp_case(build_reuploading_sel(3, 4)),
        _vjp_case(_zz_map_then_ry(3)),
        _vjp_case(build_qlstm_vqc(4, 2)),
        _vjp_case(build_real_amplitudes(3, 2)),
        _vjp_case(build_qlstm_vqc(4, 2), rows=1, id="qlstm_vqc(4,2)-1row"),
        _vjp_case(build_reuploading_ising(3, 2), rows=200, id="reuploading_ising(3,2)-200rows"),
        _vjp_case(SHARED_MIX),
        _vjp_case(SHARED_MIX, rows=4, id="shared_mix-4rows"),
        _vjp_case(TRAINABLE_FIRST),
        _vjp_case(build_qlstm_vqc(4, 1), qubits=(), id="qlstm_vqc(4,1)-no-readout"),
    ],
)
def test_vjp_matches_contracted_param_shift(circuit, rows, qubits):
    rng = np.random.default_rng(34)
    theta = rng.normal(size=circuit.n_trainable)
    xs = rng.uniform(-2.0, 2.0, size=(rows, circuit.n_inputs))
    weights = rng.normal(size=(rows, len(qubits)))
    states = run_circuit_batch(circuit, theta, xs)
    d_params, d_inputs = circuit_vjp(circuit, theta, xs, states, qubits, weights)
    ref_params, ref_inputs = _contracted_param_shift(
        circuit, theta, xs, qubits, weights
    )
    assert d_params.shape == (circuit.n_trainable,)
    assert d_inputs.shape == (rows, circuit.n_inputs)
    assert np.max(np.abs(d_params - ref_params), initial=0.0) < 1e-10
    assert np.max(np.abs(d_inputs - ref_inputs), initial=0.0) < 1e-10


def _stacked_case(circuit, rows, qubits, n_gates):
    rng = np.random.default_rng(38)
    thetas = rng.normal(size=(n_gates, circuit.n_trainable))
    xs = rng.uniform(-2.0, 2.0, size=(rows, circuit.n_inputs))
    weights = rng.normal(size=(n_gates, rows, len(qubits)))
    states = run_circuit_batch(circuit, thetas[:, None, :], xs[None])
    return thetas, xs, states, weights


# qlstm_vqc(4,2) sweeps its shared run on d x d matrices at 156 rows and
# per row at 8 (d * d > 8 B); the mixed circuits put input steps between
# trainable ones, so stacked gates meet per-row steps before they merge.
STACKED_CASES = [
    _vjp_case(build_qlstm_vqc(4, 2), 156, (0, 1, 2, 3), "qlstm_vqc(4,2)-156rows"),
    _vjp_case(build_qlstm_vqc(4, 2), 8, (0, 1, 2, 3), "qlstm_vqc(4,2)-8rows"),
    _vjp_case(SHARED_MIX),
    _vjp_case(SHARED_MIX, rows=4, id="shared_mix-4rows"),
    _vjp_case(TRAINABLE_FIRST),
]


@pytest.mark.parametrize("circuit, rows, qubits", STACKED_CASES)
def test_stacked_vjp_matches_one_call_per_gate(circuit, rows, qubits):
    thetas, xs, states, weights = _stacked_case(circuit, rows, qubits, 4)
    d_params, d_inputs = circuit_vjp(circuit, thetas, xs, states, qubits, weights)
    assert d_params.shape == thetas.shape
    assert d_inputs.shape == xs.shape
    separate = [
        circuit_vjp(circuit, thetas[g], xs, states[g], qubits, weights[g])
        for g in range(4)
    ]
    assert np.max(np.abs(d_params - [p for p, _ in separate])) < 1e-12
    assert np.max(np.abs(d_inputs - sum(i for _, i in separate))) < 1e-12
    shifted = [
        _contracted_param_shift(circuit, thetas[g], xs, qubits, weights[g])
        for g in range(4)
    ]
    assert np.max(np.abs(d_params - [p for p, _ in shifted])) < 1e-10
    assert np.max(np.abs(d_inputs - sum(i for _, i in shifted))) < 1e-10


@pytest.mark.parametrize("circuit, rows, qubits", STACKED_CASES)
def test_stack_of_one_gives_the_bytes_of_one_call(circuit, rows, qubits):
    thetas, xs, states, weights = _stacked_case(circuit, rows, qubits, 1)
    d_params, d_inputs = circuit_vjp(circuit, thetas, xs, states, qubits, weights)
    one = circuit_vjp(circuit, thetas[0], xs, states[0], qubits, weights[0])
    assert same_bytes(d_params[0], one[0])
    assert same_bytes(d_inputs, one[1])


def _bound_case(circuit, n_gates):
    """A bound forward of G stacked circuits (G = 0: one circuit) on 40 rows,
    with weights on every qubit."""
    qubits = tuple(range(circuit.n_qubits))
    thetas, xs, _, weights = _stacked_case(circuit, 40, qubits, max(n_gates, 1))
    if n_gates == 0:
        thetas, weights = thetas[0], weights[0]
    bound = bind(circuit, thetas, 40)
    forward = thetas[:, None, :] if n_gates else thetas
    inputs = xs[None] if n_gates else xs
    states = run_circuit_batch(circuit, forward, inputs, bound=bound)
    return thetas, xs, states, qubits, weights, bound


# Its product prefix (every op before the CNOT) has RX, RY and RZ layers, an
# R3 on inputs, H between rotations, a qubit and an input read twice, and
# neighbouring rotations that differ only in their angle transform, so the
# reverse sweep un-applies layers of every kind; the input RY after the CNOT
# stays a per-row step.
ENCODE_MIX = Circuit(
    "encode_mix",
    3,
    (
        CircuitOp("H", (0,)),
        CircuitOp("RX", (0,), (AngleRef("input", 0),)),
        CircuitOp("RX", (1,), (AngleRef("input", 1),)),
        CircuitOp("RX", (2,), (AngleRef("input", 2, "arctan"),)),
        CircuitOp("H", (1,)),
        CircuitOp(
            "R3",
            (2,),
            (
                AngleRef("input", 2),
                AngleRef("input", 0, "arctan_square", 0.5),
                AngleRef("input", 1),
            ),
        ),
        CircuitOp("RY", (0,), (AngleRef("input", 1, "arctan"),)),
        CircuitOp("RZ", (1,), (AngleRef("input", 2, scale=-0.7),)),
        CircuitOp("RZ", (2,), (AngleRef("input", 0, scale=-0.7),)),
        CircuitOp("CNOT", (0, 1)),
        CircuitOp("RY", (1,), _trainable(0)),
        CircuitOp("RY", (2,), (AngleRef("input", 1),)),
        CircuitOp("RZZ", (2, 0), _trainable(1)),
    ),
    2,
    3,
)

# Shared runs split into layers of ops on disjoint qubits.  The first run's
# layers are RX, R3 and RZ on qubits 0, 1 and 3 (qubit 2 idle), then RZZ on
# (2, 0) beside RY on 3 (qubit 1 idle), between CNOTs; the second, after a
# per-row input step, is RXX on (3, 1) beside an R3 and an H.  Angles are
# scaled and go through arctan and arctan_square, and slot 1 is read twice.
LAYER_MIX = Circuit(
    "layer_mix",
    4,
    (
        CircuitOp("RY", (0,), (AngleRef("input", 0),)),
        CircuitOp("RY", (1,), (AngleRef("input", 1),)),
        CircuitOp("RY", (2,), (AngleRef("input", 2),)),
        CircuitOp("RY", (3,), (AngleRef("input", 2, "arctan"),)),
        CircuitOp("CNOT", (0, 1)),
        CircuitOp("RX", (0,), _trainable(0, "arctan", 1.3)),
        CircuitOp(
            "R3",
            (1,),
            _trainable(1) + _trainable(2, "arctan_square", -0.8) + _trainable(3, "arctan"),
        ),
        CircuitOp("RZ", (3,), _trainable(4, scale=0.6)),
        CircuitOp("RZZ", (2, 0), _trainable(5, scale=1.4)),
        CircuitOp("RY", (3,), _trainable(6, "arctan")),
        CircuitOp("CNOT", (1, 2)),
        CircuitOp("RY", (3,), (AngleRef("input", 0, "arctan"),)),
        CircuitOp("RXX", (3, 1), _trainable(7, scale=-1.1)),
        CircuitOp("R3", (0,), _trainable(8) + _trainable(9, "arctan", 0.7) + _trainable(1)),
        CircuitOp("H", (2,)),
    ),
    10,
    3,
)

BOUND_CIRCUITS = [
    build_qlstm_vqc(4, 2),
    LAYER_MIX,
    SHARED_MIX,
    TRAINABLE_FIRST,
    build_reuploading_sel(3, 4),
    build_reuploading_ising(3, 2),
    ENCODE_MIX,
    build_z_feature_map(4, 2),
    build_zz_feature_map(3, 2),
]


@pytest.mark.parametrize("n_gates", [0, 1, 4], ids=["one", "G=1", "G=4"])
@pytest.mark.parametrize("circuit", BOUND_CIRCUITS, ids=lambda c: c.name)
def test_bound_vjp_matches_contracted_param_shift(circuit, n_gates):
    thetas, xs, states, qubits, weights, bound = _bound_case(circuit, n_gates)
    got = circuit_vjp(circuit, thetas, xs, states, qubits, weights, bound)
    # a binding passed in gives the bytes of the one circuit_vjp builds itself
    own = circuit_vjp(circuit, thetas, xs, states, qubits, weights)
    assert all(same_bytes(g, o) for g, o in zip(got, own))
    stack = thetas if n_gates else thetas[None]
    lams = weights if n_gates else weights[None]
    shifted = [
        _contracted_param_shift(circuit, stack[g], xs, qubits, lams[g])
        for g in range(len(stack))
    ]
    ref_params = np.reshape([p for p, _ in shifted], thetas.shape)
    assert np.max(np.abs(got[0] - ref_params), initial=0.0) < 1e-10
    assert np.max(np.abs(got[1] - sum(i for _, i in shifted))) < 1e-10


@pytest.mark.parametrize("n_gates", [0, 1, 4], ids=["one", "G=1", "G=4"])
@pytest.mark.parametrize("circuit", BOUND_CIRCUITS, ids=lambda c: c.name)
def test_bound_forward_matches_the_per_gate_forward(circuit, n_gates):
    thetas, xs, states, *_ = _bound_case(circuit, n_gates)
    forward = thetas[:, None, :] if n_gates else thetas
    per_gate = run_circuit_batch(circuit, forward, xs[None] if n_gates else xs)
    assert states.shape == per_gate.shape
    assert np.max(np.abs(states - per_gate)) < 1e-13


def test_binding_must_fit_the_call():
    # bound at 40 rows, so the misfits are checked against shared runs
    circuit = build_qlstm_vqc(4, 1)
    thetas = np.zeros((2, circuit.n_trainable))
    xs = np.zeros((3, 4))
    bound = bind(circuit, thetas, 40)
    assert any(shared for shared, _ in bound.plan)
    with pytest.raises(ValueError):
        run_circuit_batch(circuit, thetas[0], xs, bound=bound)
    with pytest.raises(ValueError):
        run_circuit_batch(build_qlstm_vqc(4, 2), thetas[:, None, :], xs[None], bound=bound)
    states = run_circuit_batch(circuit, thetas[:, None, :], xs[None], bound=bound)
    with pytest.raises(ValueError):
        circuit_vjp(circuit, thetas[:1], xs, states[:1], (0,), np.ones((1, 3, 1)), bound)
    # a binding made at other angles of the same shape
    with pytest.raises(ValueError):
        run_circuit_batch(circuit, (thetas + 1.0)[:, None, :], xs[None], bound=bound)
    with pytest.raises(ValueError):
        circuit_vjp(circuit, thetas + 1.0, xs, states, (0,), np.ones((2, 3, 1)), bound)


def test_equal_circuits_built_apart_share_one_cache_entry():
    """bench.run builds a fresh circuit on every run, so what a binding
    holds apart from the angles is cached by circuit value, not identity:
    otherwise the cache would grow with every run."""
    autodiff._structure.cache_clear()
    theta = np.random.default_rng(41).normal(size=(4, 24))
    first, second = (bind(build_qlstm_vqc(4, 2), theta, 40) for _ in range(2))
    # an equal circuit that the template did not build
    built = build_qlstm_vqc(4, 2)
    apart = Circuit(
        built.name, 4, tuple(replace(op) for op in built.ops), 24, built.n_inputs
    )
    assert apart == built and apart is not built
    third = bind(apart, theta, 40)
    assert autodiff._structure.cache_info().currsize == 1
    # plan[0] is the one shared run; its unitary U comes out the same
    assert same_bytes(first.plan[0][1][2], second.plan[0][1][2])
    assert same_bytes(first.plan[0][1][2], third.plan[0][1][2])


def test_vjp_sweeps_only_input_steps_per_row(monkeypatch):
    """Bound at 32 rows, qlstm_vqc(4,2) is its product prefix (all 8 input
    rotations) and one shared run: the sweep un-applies the run as one
    product and reads the rotations' gradients off per-qubit 2 x 2 matrices,
    so apply_matrix sees no rows.  reuploading_sel(3,2) also re-uploads its
    inputs between its two runs: those 3 rotations alone are swept per row,
    each a generator product on psi and an un-apply on psi and on lambda."""
    rng = np.random.default_rng(36)
    rows = []

    def counting(amps, *args):
        rows.append(amps.shape[:-1])
        return apply_matrix(amps, *args)

    monkeypatch.setattr(autodiff, "apply_matrix", counting)
    for circuit, want in [
        (build_qlstm_vqc(4, 2), []),
        (build_reuploading_sel(3, 2), [(32,)] * 9),
    ]:
        theta = rng.normal(size=circuit.n_trainable)
        xs = rng.uniform(-2.0, 2.0, size=(32, circuit.n_inputs))
        states = run_circuit_batch(circuit, theta, xs)
        rows.clear()
        circuit_vjp(circuit, theta, xs, states, (0, 1), np.ones((32, 2)))
        assert sorted(rows) == want, circuit.name


def test_vjp_without_input_gradients_unapplies_only_input_steps(monkeypatch):
    """Without input gradients, reuploading_sel(3,2)'s 3 re-uploaded
    rotations read nothing: each is un-applied from psi and from lambda, and
    the sweep stops at the first shared run.  The ZZ map before trainable
    RYs has only input steps before its one shared run, so apply_matrix sees
    none.  Neither walks its prefix, and d_inputs is None."""
    rng = np.random.default_rng(42)
    rows = []

    def counting(amps, *args):
        rows.append(amps.shape[:-1])
        return apply_matrix(amps, *args)

    def no_walk(*args):
        raise AssertionError("prefix walked without input gradients")

    cases = []
    for circuit, want in [(build_reuploading_sel(3, 2), [(32,)] * 6), (_zz_map_then_ry(3), [])]:
        theta = rng.normal(size=circuit.n_trainable)
        xs = rng.uniform(-2.0, 2.0, size=(32, circuit.n_inputs))
        # bound before _subspaces is patched: binding a shared run reads it
        bound = bind(circuit, theta, 32)
        states = run_circuit_batch(circuit, theta, xs, bound=bound)
        cases.append((circuit, theta, xs, states, bound, want))
    monkeypatch.setattr(autodiff, "apply_matrix", counting)
    monkeypatch.setattr(autodiff, "_subspaces", no_walk)
    for circuit, theta, xs, states, bound, want in cases:
        rows.clear()
        d_params, d_inputs = circuit_vjp(
            circuit, theta, xs, states, (0, 1), np.ones((32, 2)), bound, wrt_inputs=False
        )
        assert rows == want, circuit.name
        assert d_inputs is None
        assert d_params.shape == theta.shape


# the templates the models train, the feature map before trainable RYs, the
# mixed circuits, and the wide 8-qubit binding (d * d > 8 B, every step per
# row), with one- and three-qubit readouts
WITHOUT_INPUTS_CASES = [
    _vjp_case(build_reuploading_sel(4, 4), 40, (0,), "reuploading_sel(4,4)-1q"),
    _vjp_case(build_reuploading_sel(3, 4)),
    _vjp_case(build_reuploading_ising(3, 2), 40, (0,), "reuploading_ising(3,2)-1q"),
    _vjp_case(build_reuploading_ising(3, 2)),
    _vjp_case(build_qlstm_vqc(4, 2), 156, (0, 1, 3)),
    _vjp_case(_zz_map_then_ry(3)),
    _vjp_case(build_reuploading_sel(8, 4), 48, (0,), "reuploading_sel(8,4)-48rows"),
    _vjp_case(build_reuploading_sel(8, 4), 48, (0, 3, 7), "reuploading_sel(8,4)-48rows-3q"),
    _vjp_case(SHARED_MIX),
    _vjp_case(TRAINABLE_FIRST),
    _vjp_case(LAYER_MIX),
    _vjp_case(ENCODE_MIX),
]


@pytest.mark.parametrize("n_gates", [0, 4], ids=["one", "G=4"])
@pytest.mark.parametrize("circuit, rows, qubits", WITHOUT_INPUTS_CASES)
def test_vjp_without_input_gradients_keeps_the_param_bytes(circuit, rows, qubits, n_gates):
    thetas, xs, states, weights = _stacked_case(circuit, rows, qubits, max(n_gates, 1))
    if n_gates == 0:
        thetas, states, weights = thetas[0], states[0], weights[0]
    bound = bind(circuit, thetas, rows)
    full, _ = circuit_vjp(circuit, thetas, xs, states, qubits, weights, bound)
    d_params, d_inputs = circuit_vjp(
        circuit, thetas, xs, states, qubits, weights, bound, wrt_inputs=False
    )
    assert d_inputs is None
    assert same_bytes(d_params, full)


def test_product_path_needs_a_binding(monkeypatch):
    """Calls without a binding, and a wide circuit on few rows, whose
    binding has no prefix, run every gate: the product prefix (forward) and
    its per-qubit reverse are never reached."""

    def no_product(*args):
        raise AssertionError("product prefix used without a binding")

    monkeypatch.setattr(circuits, "_product_state", no_product)
    monkeypatch.setattr(autodiff, "_subspaces", no_product)
    rng = np.random.default_rng(39)
    for circuit in BOUND_CIRCUITS:
        theta = rng.normal(size=circuit.n_trainable)
        xs = rng.uniform(-2.0, 2.0, size=(40, circuit.n_inputs))
        run_circuit_batch(circuit, theta, xs)
        run_circuit_batch(circuit, theta[None, None], xs[None])
    wide = build_reuploading_sel(10, 4)
    theta = rng.normal(size=wide.n_trainable)
    xs = rng.uniform(-2.0, 2.0, size=(3, wide.n_inputs))
    bound = bind(wide, theta, 3)
    states = run_circuit_batch(wide, theta, xs, bound=bound)
    circuit_vjp(wide, theta, xs, states, (0, 9), np.ones((3, 2)), bound)


def test_vjp_sweeps_wide_circuit_on_few_rows_per_row(monkeypatch):
    """A 2**10 x 2**10 matrix per shared gate would cost far more than the
    3-row pair, so the binding has no prefix and no shared run, and every
    step is swept per row."""

    def no_dense(*args):
        raise AssertionError("dense gate built for a wide circuit")

    monkeypatch.setattr(autodiff, "_unitary", no_dense)
    circuit = build_reuploading_sel(10, 4)
    rng = np.random.default_rng(37)
    theta = rng.normal(size=circuit.n_trainable)
    xs = rng.uniform(-2.0, 2.0, size=(3, circuit.n_inputs))
    weights = rng.normal(size=(3, 2))
    bound = bind(circuit, theta, 3)
    assert bound.prefix == 0
    assert not any(shared for shared, _ in bound.plan)
    states = run_circuit_batch(circuit, theta, xs)
    d_params, d_inputs = circuit_vjp(circuit, theta, xs, states, (0, 9), weights)
    ref_params, ref_inputs = _contracted_param_shift(
        circuit, theta, xs, (0, 9), weights
    )
    assert np.max(np.abs(d_params - ref_params)) < 1e-10
    assert np.max(np.abs(d_inputs - ref_inputs)) < 1e-10


def test_wide_binding_builds_no_dense_matrix():
    """Binding a 12-qubit circuit on 3 rows allocates no 2**12 x 2**12
    matrix (256 MiB), not even the identity a shared run starts from."""
    circuit = build_reuploading_sel(12, 4)
    theta = np.zeros(circuit.n_trainable)
    tracemalloc.start()
    try:
        bind(circuit, theta, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_vjp_rejects_misshapen_weights():
    circuit = build_qlstm_vqc(4, 1)
    theta = np.zeros(circuit.n_trainable)
    xs = np.zeros((3, 4))
    states = run_circuit_batch(circuit, theta, xs)
    with pytest.raises(ValueError):
        circuit_vjp(circuit, theta, xs, states, (0, 1), np.zeros((3, 3)))


def test_vjp_rejects_states_of_another_batch():
    circuit = build_qlstm_vqc(4, 1)
    theta = np.zeros(circuit.n_trainable)
    states = run_circuit_batch(circuit, theta, np.zeros((2, 4)))
    with pytest.raises(ValueError):
        circuit_vjp(circuit, theta, np.zeros((3, 4)), states, (0, 1), np.zeros((3, 2)))
    # a stack of states needs a stack of params
    with pytest.raises(ValueError):
        circuit_vjp(
            circuit, theta, np.zeros((2, 4)), states[None], (0, 1), np.zeros((1, 2, 2))
        )


def test_expectation_batch_matches_scalar():
    rng = np.random.default_rng(35)
    circuit = build_reuploading_ising(3, 1)
    theta = rng.normal(size=circuit.n_trainable)
    xs = rng.normal(size=(4, 3))
    states = run_circuit_batch(circuit, theta, xs)
    vals = z_expectations(states, 3, (0, 1, 2))
    assert vals.shape == (4, 3)
    assert z_expectations(states, 3, ()).shape == (4, 0)
    for s in range(4):
        for q in range(3):
            want = reference.readout(circuit, reference.run(circuit, theta, xs[s]), q)
            assert vals[s, q] == pytest.approx(want, abs=1e-12)


ORACLE_TEMPLATES = [
    build_reuploading_ising(3, 2),
    build_reuploading_sel(4, 2),
    build_zz_feature_map(4, 1),
    build_real_amplitudes(4, 2),
    build_z_feature_map(4, 1),
    build_qlstm_vqc(4, 1),
]


@pytest.mark.parametrize("circuit", ORACLE_TEMPLATES, ids=lambda c: c.name)
def test_oracles_run_without_the_code_they_check(circuit, monkeypatch):
    """With the package's forward, binding and VJP patched to raise, the
    reference oracles still give gradients: they check the package without
    running it."""

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the code it checks")

    for original in (circuits.run_circuit_batch, autodiff.bind, autodiff.circuit_vjp):
        _patch_everywhere(monkeypatch, original.__name__, original, refuse)
    rng = np.random.default_rng(40)
    theta = rng.normal(size=circuit.n_trainable)
    x = rng.uniform(-1.0, 1.0, size=circuit.n_inputs)
    # the patch reaches the forward pass a package model runs
    with pytest.raises(AssertionError):
        qnn_expectations(QnnModel(circuit, theta, "regression"), x)
    for wrt, n in [("trainable", circuit.n_trainable), ("inputs", circuit.n_inputs)]:
        shift = param_shift(circuit, theta, x, [(0, 1.0), (1, -0.5)], wrt)
        fd = finite_diff(circuit, theta, x, [(0, 1.0), (1, -0.5)], wrt)
        assert shift.shape == fd.shape == (n,)
        assert np.max(np.abs(shift - fd), initial=0.0) < 1e-5
