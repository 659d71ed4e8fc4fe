import numpy as np
import pytest

from qweather import optim
from qweather.optim import (
    AdamState,
    OptimizationAbortedError,
    adam_init,
    adam_step,
    cobyla_minimize,
)


def test_adam_zero_grad_leaves_params_unchanged():
    state = adam_init(3, learning_rate=0.01)
    params = np.array([0.5, -1.0, 2.0])
    state, out = adam_step(state, params, np.zeros(3))
    assert np.array_equal(out, params)
    state, out = adam_step(state, out, np.zeros(3))
    assert np.array_equal(out, params)


def test_adam_first_step_magnitude_is_learning_rate():
    for g in (1e-3, 0.5, 40.0, -7.0):
        state = adam_init(1, learning_rate=0.01)
        _, out = adam_step(state, np.zeros(1), np.array([g]))
        assert abs(out[0]) == pytest.approx(0.01, rel=1e-4)
        assert np.sign(out[0]) == -np.sign(g)


def test_adam_minimizes_shifted_quadratic():
    state = adam_init(1, learning_rate=0.05)
    theta = np.zeros(1)
    for _ in range(500):
        grad = 2 * (theta - 3.0)
        state, theta = adam_step(state, theta, grad)
    assert abs(theta[0] - 3.0) < 1e-2


def test_adam_is_deterministic():
    def run():
        state = adam_init(2, learning_rate=0.02)
        params = np.array([1.0, -1.0])
        for k in range(20):
            grad = np.array([np.sin(k * 0.3), np.cos(k * 0.3)])
            state, params = adam_step(state, params, grad)
        return params

    assert np.array_equal(run(), run())


def test_adam_rejects_dimension_mismatch():
    state = adam_init(2)
    with pytest.raises(ValueError):
        adam_step(state, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        adam_step(state, np.zeros(2), np.zeros(3))


def test_adam_state_fields():
    state = adam_init(2, learning_rate=0.01)
    assert state.step == 0
    assert (optim._BETA1, optim._BETA2, optim._EPSILON) == (0.9, 0.999, 1e-8)
    state, _ = adam_step(state, np.zeros(2), np.ones(2))
    assert state.step == 1
    assert isinstance(state, AdamState)


def test_cobyla_constant_objective_returns_start():
    res = cobyla_minimize(lambda x: 5.0, np.array([0.3, -0.2]), max_iters=150)
    assert np.array_equal(res.x_best, [0.3, -0.2])
    assert res.f_best == 5.0


def test_cobyla_quadratic_4d_reaches_minimizer():
    rng = np.random.default_rng(71)
    for _ in range(5):
        c = rng.uniform(-1, 1, size=4)
        res = cobyla_minimize(
            lambda x: float(np.sum((x - c) ** 2)), np.zeros(4), max_iters=150
        )
        assert np.linalg.norm(res.x_best - c) < 1e-3


def test_cobyla_finds_sine_minimum():
    res = cobyla_minimize(lambda x: float(np.sin(x[0])), np.zeros(1), max_iters=150)
    assert res.f_best <= -1 + 1e-4


def test_cobyla_never_returns_worse_than_start():
    rng = np.random.default_rng(72)
    for seed in range(5):
        rs = np.random.default_rng(seed)

        def bumpy(x):
            return float(np.sum(np.sin(3 * x) + 0.1 * x**2))

        x0 = rng.uniform(-2, 2, size=3)
        res = cobyla_minimize(bumpy, x0, max_iters=40)
        assert res.f_best <= bumpy(x0) + 1e-12


def test_cobyla_evaluation_budget():
    calls = {"n": 0}

    def f(x):
        calls["n"] += 1
        return float(np.sum(x**2))

    n = 5
    res = cobyla_minimize(f, np.full(n, 0.7), max_iters=60)
    assert res.n_evals == calls["n"]
    assert res.n_evals <= 60 + n + 1
    assert res.n_iters <= 60


def test_cobyla_convex_quadratics_high_accuracy():
    rng = np.random.default_rng(73)
    for n in (2, 4, 6):
        a = rng.normal(size=(n, n))
        h = a @ a.T + n * np.eye(n)
        c = rng.uniform(-1, 1, size=n)
        f_min = 0.0

        def quad(x):
            d = x - c
            return float(d @ h @ d)

        res = cobyla_minimize(quad, np.zeros(n), max_iters=150)
        assert res.f_best - f_min < 1e-5


def test_cobyla_aborts_on_non_finite_value():
    def f(x):
        if x[0] < -0.5:
            return float("nan")
        return float(x[0] + x[1] ** 2)

    with pytest.raises(OptimizationAbortedError) as err:
        cobyla_minimize(f, np.zeros(2), max_iters=150)
    assert err.value.f_best is not None
    assert err.value.n_evals > 0


def test_cobyla_result_fields():
    res = cobyla_minimize(lambda v: float(np.sum(v**2)), np.ones(2), max_iters=30)
    assert res.f_best <= 2.0
    assert res.n_evals >= 3
    assert res.x_best.shape == (2,)


def test_cobyla_argument_validation():
    with pytest.raises(ValueError):
        cobyla_minimize(lambda x: 0.0, np.zeros(2), max_iters=0)
    with pytest.raises(ValueError):
        cobyla_minimize(lambda x: 0.0, np.zeros(0))
