import numpy as np
import pytest
import reference
from conftest import same_bytes
from scipy.optimize import minimize

from qweather.circuits import build_z_feature_map, build_zz_feature_map
from qweather import qkernel
from qweather.qkernel import (
    IllConditionedKernelError,
    KernelMachine,
    default_gamma,
    fidelity_kernel,
    kernel_machine_predict,
    kernel_machine_train,
    rbf_kernel,
    svm_train,
)


def dual_objective(K, y, alpha):
    return alpha.sum() - 0.5 * alpha @ (np.outer(y, y) * K) @ alpha


def brute_force_dual(K, y, C):
    n = len(y)
    res = minimize(
        lambda a: -dual_objective(K, y, a),
        np.full(n, C / 2),
        bounds=[(0.0, C)] * n,
        constraints=[{"type": "eq", "fun": lambda a: float(a @ y)}],
        method="SLSQP",
        options={"maxiter": 1000, "ftol": 1e-14},
    )
    return -res.fun


def decision(model, y, k_rows):
    """A solve's decision values for kernel rows against its training rows."""
    return k_rows @ (model.alpha * y) + model.bias


def test_fidelity_diagonal_and_duplicates():
    rng = np.random.default_rng(91)
    X = rng.uniform(0, 1, size=(10, 4))
    X[7] = X[2]
    K = fidelity_kernel(X, X, build_zz_feature_map(4, 1))
    assert np.allclose(np.diag(K), 1.0, atol=1e-12)
    assert K[2, 7] == pytest.approx(1.0, abs=1e-12)


def test_single_feature_z_map_entry_is_cos_squared():
    X = np.array([[0.3], [0.3 + np.pi / 4]])
    K = fidelity_kernel(X, X, build_z_feature_map(1, 1))
    assert K[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_fidelity_kernel_invariants():
    rng = np.random.default_rng(92)
    X = rng.uniform(0, 1, size=(25, 4))
    K = fidelity_kernel(X, X, build_zz_feature_map(4, 1))
    assert np.max(np.abs(K - K.T)) < 1e-10
    assert np.all(K >= 0) and np.all(K <= 1 + 1e-12)
    assert float(np.linalg.eigvalsh(K).min()) > -1e-8


def test_fidelity_kernel_row_order_equivariance():
    rng = np.random.default_rng(93)
    X = rng.uniform(0, 1, size=(8, 4))
    perm = rng.permutation(8)
    fm = build_zz_feature_map(4, 1)
    k1 = fidelity_kernel(X, X, fm)
    k2 = fidelity_kernel(X[perm], X[perm], fm)
    assert np.allclose(k2, k1[np.ix_(perm, perm)], atol=1e-12)


def test_fidelity_cross_kernel_matches_matrix():
    rng = np.random.default_rng(94)
    X = rng.uniform(0, 1, size=(6, 4))
    fm = build_zz_feature_map(4, 1)
    cross = fidelity_kernel(X[:2], X, fm)
    assert np.allclose(cross, fidelity_kernel(X, X, fm)[:2], atol=1e-12)


def test_fidelity_rejects_wrong_dimension():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        fidelity_kernel(X, X, build_zz_feature_map(4, 1))


def test_fidelity_rejects_non_finite_features():
    X = np.zeros((3, 4))
    X[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        fidelity_kernel(X, X, build_zz_feature_map(4, 1))


def test_rbf_kernel_values():
    X = np.array([[0.0], [1.0], [2.0]])
    K = rbf_kernel(X, X, 1.0)
    expected = np.array(
        [
            [1.0, np.e**-1, np.e**-4],
            [np.e**-1, 1.0, np.e**-1],
            [np.e**-4, np.e**-1, 1.0],
        ]
    )
    assert np.allclose(K, expected, atol=1e-12)
    d = np.sqrt(np.log(2.0) / 0.7)
    X2 = np.array([[0.0], [d]])
    assert rbf_kernel(X2, X2, 0.7)[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_rbf_default_gamma():
    X = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert default_gamma(X) == pytest.approx(1.0 / (2 * X.var()))


def test_two_point_training_closed_form():
    K = np.array([[1.0, 0.1], [0.1, 1.0]])
    y = np.array([1.0, -1.0])
    model = svm_train(K, y, C=1.0)
    assert set(model.support_indices.tolist()) == {0, 1} and model.n_train == 2
    assert np.allclose(model.alpha, [1.0, 1.0], atol=1e-6)
    assert model.bias == pytest.approx(0.0, abs=1e-9)
    assert decision(model, y, K) == pytest.approx([0.9, -0.9], abs=1e-6)


def test_two_point_labels_stable_under_small_kernel_noise():
    y = np.array([1.0, -1.0])
    base = svm_train(np.array([[1.0, 0.1], [0.1, 1.0]]), y, C=1.0, tol=1e-3)
    noisy = np.array([[1.0, 0.1 + 5e-4], [0.1 + 5e-4, 1.0]])
    model = svm_train(noisy, y, C=1.0, tol=1e-3)
    signs = [decision(m, y, noisy) >= 0 for m in (model, base)]
    assert np.array_equal(*signs)


def _clusters(rng, centers, n_per, spread=0.3):
    X, y = [], []
    for label, c in enumerate(centers):
        X.append(rng.normal(loc=c, scale=spread, size=(n_per, len(c))))
        y += [label] * n_per
    return np.vstack(X), np.array(y)


def test_separable_rbf_training_accuracy():
    rng = np.random.default_rng(95)
    X, y01 = _clusters(rng, [(-2.0, -2.0), (2.0, 2.0)], 10)
    y = np.where(y01 == 1, 1.0, -1.0)
    K = rbf_kernel(X, X, 0.5)
    model = svm_train(K, y, C=10.0)
    preds = np.sign(decision(model, y, K))
    assert np.all(preds == y)


def test_separable_large_c_satisfies_margins():
    rng = np.random.default_rng(96)
    X, y01 = _clusters(rng, [(-2.0, -2.0), (2.0, 2.0)], 8)
    y = np.where(y01 == 1, 1.0, -1.0)
    K = rbf_kernel(X, X, 0.5)
    model = svm_train(K, y, C=1e4, tol=1e-4)
    decisions = decision(model, y, K)
    assert np.all(y * decisions >= 1 - 1e-3)


def test_free_support_vector_sits_on_margin():
    rng = np.random.default_rng(97)
    X, y01 = _clusters(rng, [(-1.0, -1.0), (1.0, 1.0)], 10, spread=0.6)
    y = np.where(y01 == 1, 1.0, -1.0)
    K = rbf_kernel(X, X, 0.5)
    tol = 1e-3
    model = svm_train(K, y, C=1.0, tol=tol)
    alpha = model.alpha
    free_pos = np.flatnonzero((alpha > 1e-6) & (alpha < 1.0 - 1e-6) & (y > 0))
    assert free_pos.size > 0
    assert np.all(decision(model, y, K[free_pos]) >= 1 - 2 * tol)


def test_zero_kernel_row_predicts_bias_sign():
    K = np.array([[1.0, 0.1], [0.1, 1.0]])
    y = np.array([1.0, -1.0])
    model = svm_train(K, y, C=1.0)
    # both alphas sit at C, so the bias is the midpoint of [-0.1, 0.1]
    assert model.bias == pytest.approx(0.0, abs=1e-12)
    assert decision(model, y, np.zeros((1, 2))) == pytest.approx([model.bias])
    # a row the rbf kernel sees as far from every support row scores the bias
    far = np.array([[1e3]])
    for bias, label in ((-0.5, 0), (0.5, 1)):
        machine = _stub_machine((0, 1), [[1.0]], [bias])
        assert kernel_machine_predict(machine, far).tolist() == [label]


def test_smo_matches_brute_force_dual():
    cases = []
    for seed in range(8):
        local = np.random.default_rng(seed)
        n = int(local.integers(3, 7))
        X = local.normal(size=(n, 2))
        y = local.choice([-1.0, 1.0], size=n)
        if np.unique(y).size < 2:
            y[0] = -y[1]
        cases.append((rbf_kernel(X, X, 0.8), y, 1.0))
    # a larger set with overlapping classes, where C = 0.5 holds alphas at C
    local = np.random.default_rng(36)
    X = local.normal(size=(36, 2))
    y = np.where(X[:, 0] + 0.8 * local.normal(size=36) > 0, 1.0, -1.0)
    cases.append((rbf_kernel(X, X, 0.5), y, 0.5))
    for K, y, C in cases:
        model = svm_train(K, y, C=C, tol=1e-5)
        alpha = model.alpha
        ours = dual_objective(K, y, alpha)
        best = brute_force_dual(K, y, C)
        assert abs(ours - best) < 1e-4
        assert model.kkt_gap <= 1e-5
        assert np.all(alpha >= -1e-12) and np.all(alpha <= C + 1e-12)
        assert abs(alpha @ y) < 1e-8
    assert np.count_nonzero(alpha == C) > 0


def test_svm_train_validation():
    K = np.eye(3)
    with pytest.raises(ValueError):
        svm_train(K, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        svm_train(K, np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        svm_train(np.eye(2), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        svm_train(K, np.array([1.0, -1.0, 1.0]), C=0.0)
    non_psd = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(IllConditionedKernelError):
        svm_train(non_psd, np.array([1.0, -1.0]))


def test_nan_c_or_tol_is_rejected_by_name():
    X = np.array([[0.0], [0.4], [1.0], [1.5]])
    K, y = rbf_kernel(X, X, 1.0), np.array([1.0, 1.0, -1.0, -1.0])
    with pytest.raises(ValueError, match="C must be positive"):
        svm_train(K, y, C=np.nan)
    with pytest.raises(ValueError, match="tol must be a number"):
        svm_train(K, y, tol=np.nan)
    with pytest.raises(ValueError, match="C must be positive"):
        kernel_machine_train(X, [0, 0, 1, 1], "rbf", 1.0, C=np.nan)
    with pytest.raises(ValueError, match="tol must be a number"):
        kernel_machine_train(X, [0, 0, 1, 1], "rbf", 1.0, tol=np.nan)


def test_hard_margin_and_any_real_tol_still_solve():
    X = np.array([[0.0], [0.4], [1.0], [1.5]])
    K, y = rbf_kernel(X, X, 1.0), np.array([1.0, 1.0, -1.0, -1.0])
    hard = svm_train(K, y, C=np.inf, tol=1e-6)
    assert hard.kkt_gap <= 1e-6 and np.all(decision(hard, y, K) * y >= 1 - 1e-5)
    assert svm_train(K, y, tol=np.inf).n_iter == 0
    assert svm_train(K, y, tol=-1.0).n_iter == 200 * 4


def assert_solves_match_the_oracle(K, Y, solves, C, tol):
    """Each solve has the bytes of the one-machine reference solve."""
    assert len(solves) == len(Y)
    for got, y in zip(solves, Y):
        want = reference.smo(K, y, C, tol)
        assert same_bytes(got.alpha, want.alpha)
        assert got.n_iter == want.n_iter
        # signed zeros included
        assert same_bytes(np.float64(got.bias), np.float64(want.bias))
        assert same_bytes(np.float64(got.kkt_gap), np.float64(want.kkt_gap))


def _ovr_signs(labels):
    classes = np.unique(labels)
    classes = classes[1:] if classes.size == 2 else classes
    return np.array([np.where(labels == c, 1.0, -1.0) for c in classes])


def _fit_against_the_oracle(X, labels, kernel, gamma, C, tol=1e-3):
    """kernel_machine_train's solves, each checked against the oracle."""
    _, solves = kernel_machine_train(X, labels, kernel, gamma, C=C, tol=tol)
    if kernel == "rbf":
        K = rbf_kernel(X, X, gamma)
    else:
        K = fidelity_kernel(X, X, build_zz_feature_map(X.shape[1], 1))
    assert_solves_match_the_oracle(K, _ovr_signs(labels), solves, C, tol)
    return solves


@pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("n", [2, 3, 9, 40, 200])
def test_lockstep_matches_the_oracle_on_rbf_fits(n, C):
    rng = np.random.default_rng(1000 + n)
    X = rng.normal(size=(n, 2))
    # overlapping classes, so that small C holds some alphas at C
    binary = (X[:, 0] + 0.8 * rng.normal(size=n) > 0).astype(int)
    binary[:2] = 0, 1
    _fit_against_the_oracle(X, binary, "rbf", 0.7, C)
    K, y = rbf_kernel(X, X, 0.7), np.where(binary == 1, 1.0, -1.0)
    assert_solves_match_the_oracle(K, y[None], (svm_train(K, y, C=C),), C, 1e-3)
    if n >= 3:
        ternary = np.digitize(X[:, 1] + 0.5 * rng.normal(size=n), [-0.4, 0.4])
        ternary[:3] = 0, 1, 2
        _fit_against_the_oracle(X, ternary, "rbf", 0.7, C)


@pytest.mark.parametrize("n_classes", [2, 3])
def test_lockstep_matches_the_oracle_on_fidelity_fits(n_classes):
    rng = np.random.default_rng(1100 + n_classes)
    X = rng.uniform(0, 1, size=(40, 3))
    labels = np.arange(40) % n_classes
    rng.shuffle(labels)
    _fit_against_the_oracle(X, labels, "zz_feature_map(3,1)", None, 1.0)


def test_lockstep_matches_the_oracle_on_duplicated_rows():
    # repeated rows give equal kernel rows, so both argmax choices meet ties
    rng = np.random.default_rng(1200)
    X = rng.normal(size=(8, 2))[rng.integers(0, 8, size=36)]
    labels = np.arange(36) % 3
    for C in (0.1, 1.0, 10.0):
        _fit_against_the_oracle(X, labels, "rbf", 0.5, C)
        _fit_against_the_oracle(X, labels % 2, "rbf", 0.5, C)


def test_lockstep_machines_stop_at_different_steps():
    rng = np.random.default_rng(1300)
    X, labels = _clusters(rng, [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.5)], 20, spread=0.7)
    solves = _fit_against_the_oracle(X, labels, "rbf", 0.5, 1.0)
    assert len({s.n_iter for s in solves}) == 3


def test_lockstep_keeps_the_signed_zero_of_an_exact_solve():
    # v - w gives +0.0 where the one-machine solve's -y*G gives -0.0
    K, y = np.array([[5.0, 3.0], [3.0, 5.0]]), np.array([1.0, -1.0])
    model = svm_train(K, y, C=2.0)
    assert model.kkt_gap == 0.0 and np.signbit(model.kkt_gap)
    assert_solves_match_the_oracle(K, y[None], (model,), 2.0, 1e-3)


def test_step_cap_stops_every_machine_at_200_n():
    rng = np.random.default_rng(1400)
    X = rng.normal(size=(6, 2))
    labels = np.array([0, 1, 2, 0, 1, 2])
    solves = _fit_against_the_oracle(X, labels, "rbf", 0.8, 1.0, tol=-1.0)
    assert [s.n_iter for s in solves] == [200 * 6] * 3


def test_capped_machine_beside_machines_that_converge():
    # at tol = 0 machine 1 never closes its last rounding-sized gap, while
    # machines 0 and 2 reach a gap of exactly 0 and stop
    rng = np.random.default_rng(2)
    n = int(rng.integers(4, 10))
    X = rng.normal(size=(n, 2))
    labels = rng.integers(0, 3, size=n)
    solves = _fit_against_the_oracle(X, labels, "rbf", 0.8, 1.0, tol=0.0)
    iters = [s.n_iter for s in solves]
    assert iters[1] == 200 * n and max(iters[0], iters[2]) < 200 * n


def _stub_machine(classes, coefficients, biases):
    """An rbf machine on support rows 0, 1, ... on one feature."""
    coefficients = np.asarray(coefficients, dtype=float)
    rows = np.arange(coefficients.shape[1], dtype=float)[:, None]
    return KernelMachine("rbf", 1.0, classes, rows, coefficients, np.asarray(biases))


def test_ovr_two_class_matches_binary():
    rng = np.random.default_rng(99)
    X, y = _clusters(rng, [(-1.5, 0.0), (1.5, 0.0)], 12, spread=0.8)
    K = rbf_kernel(X, X, 0.7)
    signs = np.where(y == 1, 1.0, -1.0)
    binary = svm_train(K, signs, C=1.0)
    machine, solves = kernel_machine_train(X, y, "rbf", 0.7, C=1.0)
    b_labels = np.where(decision(binary, signs, K) >= 0, 1, 0)
    assert np.array_equal(kernel_machine_predict(machine, X), b_labels)
    assert solves[0].n_iter == binary.n_iter and solves[0].bias == binary.bias


def test_two_classes_give_one_machine():
    rng = np.random.default_rng(102)
    X, y = _clusters(rng, [(-2.0, 0.0), (2.0, 0.0), (0.0, 2.0)], 6)
    # a slice of a ternary task that holds only classes 0 and 2
    keep = y != 1
    machine, solves = kernel_machine_train(X[keep], y[keep], "rbf", 0.5, C=10.0)
    assert machine.classes == (0, 2) and len(solves) == 1
    assert machine.coefficients.shape == (1, len(machine.support_rows))
    assert machine.biases.shape == (1,)
    assert np.array_equal(kernel_machine_predict(machine, X[keep]), y[keep])
    ternary, solves = kernel_machine_train(X, y, "rbf", 0.5, C=10.0)
    assert ternary.coefficients.shape[0] == ternary.biases.size == len(solves) == 3


def test_decision_of_zero_picks_the_second_class():
    machine = _stub_machine((3, 7), [[0.0]], [0.0])
    assert kernel_machine_predict(machine, np.array([[0.0], [5.0]])).tolist() == [7, 7]
    below = _stub_machine((3, 7), [[0.0]], [-1e-300])
    assert kernel_machine_predict(below, np.array([[0.0]])).tolist() == [3]


def test_support_rows_score_as_every_training_row():
    rng = np.random.default_rng(103)
    X, y01 = _clusters(rng, [(0.2, 0.3), (0.8, 0.6)], 10, spread=0.15)
    fm = build_zz_feature_map(2, 1)
    K = fidelity_kernel(X, X, fm)
    signs = np.where(y01 == 1, 1.0, -1.0)
    full = svm_train(K, signs, C=1.0)
    machine, _ = kernel_machine_train(X, y01, fm.name, C=1.0)
    assert len(machine.support_rows) == len(full.support_indices) < len(X)
    assert same_bytes(machine.support_rows, X[full.support_indices])
    Z = rng.uniform(0, 1, size=(7, 2))
    want = np.where(decision(full, signs, fidelity_kernel(Z, X, fm)) >= 0, 1, 0)
    assert np.array_equal(kernel_machine_predict(machine, Z), want)


def test_ovr_three_clusters_accuracy():
    rng = np.random.default_rng(100)
    X, y = _clusters(rng, [(-3.0, 0.0), (3.0, 0.0), (0.0, 3.0)], 8)
    machine, solves = kernel_machine_train(X, y, "rbf", 0.5, C=10.0)
    assert machine.classes == (0, 1, 2)
    assert np.array_equal(kernel_machine_predict(machine, X), y)
    # each machine's coefficients sit on the rows it kept, zero elsewhere:
    # alpha * y of its solve on the rows where alpha > 1e-9
    for label, row, solve in zip(machine.classes, machine.coefficients, solves):
        kept = np.flatnonzero(row)
        support = np.flatnonzero(solve.alpha > 1e-9)
        assert same_bytes(machine.support_rows[kept], X[support])
        signs = np.where(y == label, 1.0, -1.0)
        assert same_bytes(row[kept], solve.alpha[support] * signs[support])


def test_ovr_tie_goes_to_lowest_class():
    machine = _stub_machine((0, 1, 2), [[1.0, 0.0]] * 3, [0.0] * 3)
    assert kernel_machine_predict(machine, np.array([[0.4], [1.0]])).tolist() == [0, 0]


def test_ovr_requires_two_classes():
    with pytest.raises(ValueError):
        kernel_machine_train(np.eye(3), np.zeros(3), "rbf", 1.0)


def test_ovr_checks_the_kernel_once(monkeypatch):
    rng = np.random.default_rng(101)
    X, y = _clusters(rng, [(-3.0, 0.0), (3.0, 0.0), (0.0, 3.0)], 6)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(K):
        calls.append(K.shape)
        return eigvalsh(K)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    _, solves = kernel_machine_train(X, y, "rbf", 0.5, C=10.0)
    assert len(solves) == 3
    assert calls == [(18, 18)]


def test_ovr_train_validation(monkeypatch):
    X = np.eye(3)
    y = np.array([0, 1, 2])
    with pytest.raises(ValueError):
        kernel_machine_train(X[:2], y, "rbf", 1.0)
    with pytest.raises(ValueError):
        kernel_machine_train(X, y, "rbf", 1.0, C=0.0)
    with pytest.raises(ValueError, match="unknown circuit descriptor"):
        kernel_machine_train(X, y, "mystery(3,1)")
    monkeypatch.setattr(qkernel, "rbf_kernel", lambda A, B, gamma: 1.0 - np.eye(len(A)))
    with pytest.raises(IllConditionedKernelError):
        kernel_machine_train(X[:2], y[:2], "rbf", 1.0)


@pytest.mark.parametrize(
    "fields,match",
    [
        (dict(gamma=None), "gamma"),
        (dict(kernel="zz_feature_map(1,1)"), "gamma"),
        (dict(classes=(0,)), "classes"),
        (dict(classes=(1, 0)), "classes"),
        (dict(classes=(0, 0)), "classes"),
        (dict(classes=(0, 1, 2)), "shapes"),
        (dict(coefficients=np.zeros((1, 3))), "shapes"),
        (dict(biases=np.zeros(2)), "shapes"),
        (dict(support_rows=np.zeros(2)), "shapes"),
    ],
)
def test_kernel_machine_rejects_fields_that_do_not_fit(fields, match):
    good = dict(
        kernel="rbf",
        gamma=1.0,
        classes=(0, 1),
        support_rows=np.zeros((2, 1)),
        coefficients=np.zeros((1, 2)),
        biases=np.zeros(1),
    )
    KernelMachine(**good)
    with pytest.raises(ValueError, match=match):
        KernelMachine(**dict(good, **fields))
