"""Training drivers: Adam and a COBYLA-style derivative-free optimizer.

The derivative-free routine keeps an n+1-point simplex, fits a linear
interpolation model of the objective on it, and takes steepest-descent
steps of trust-region length.  The radius halves when a step fails to
improve, and dedicated geometry steps repair the simplex when it
degenerates or goes stale relative to the radius.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8
# COBYLA's starting trust radius and the radius at which it stops
_INITIAL_RADIUS = 1.0
_END_RADIUS = 1e-4


class OptimizationAbortedError(Exception):
    """Objective returned a non-finite value; carries the best point so far."""

    def __init__(self, message, x_best=None, f_best=None, n_evals=0):
        super().__init__(message)
        self.x_best = x_best
        self.f_best = f_best
        self.n_evals = n_evals


@dataclass(frozen=True)
class AdamState:
    step: int
    first_moment: np.ndarray
    second_moment: np.ndarray
    learning_rate: float


def adam_init(n_params: int, learning_rate: float = 0.01) -> AdamState:
    return AdamState(0, np.zeros(n_params), np.zeros(n_params), learning_rate)


def adam_step(state: AdamState, params, grad):
    """One bias-corrected moment update; returns (next state, new params)."""
    params = np.asarray(params, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if params.shape != grad.shape or params.shape != state.first_moment.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grad {grad.shape}, "
            f"moments {state.first_moment.shape}"
        )
    t = state.step + 1
    m = _BETA1 * state.first_moment + (1 - _BETA1) * grad
    v = _BETA2 * state.second_moment + (1 - _BETA2) * grad**2
    m_hat = m / (1 - _BETA1**t)
    v_hat = v / (1 - _BETA2**t)
    new_params = params - state.learning_rate * m_hat / (np.sqrt(v_hat) + _EPSILON)
    return replace(state, step=t, first_moment=m, second_moment=v), new_params


@dataclass
class CobylaResult:
    x_best: np.ndarray
    f_best: float
    n_evals: int
    n_iters: int


def cobyla_minimize(objective, x0, max_iters: int = 150) -> CobylaResult:
    """Minimize a black-box objective without derivatives.

    ``max_iters`` counts model/geometry steps after the initial simplex is
    evaluated; each such step costs at most one objective evaluation, so
    the total evaluation count is bounded by max_iters + n + 1.  Stops
    early once the trust radius falls below ``_END_RADIUS``.  Returns the
    best point actually evaluated.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    if n == 0:
        raise ValueError("x0 must be non-empty")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    state = {"n_evals": 0, "x_best": None, "f_best": np.inf}

    def evaluate(x):
        value = float(objective(x.copy()))
        state["n_evals"] += 1
        if not np.isfinite(value):
            raise OptimizationAbortedError(
                f"objective returned non-finite value {value!r}",
                x_best=state["x_best"],
                f_best=state["f_best"],
                n_evals=state["n_evals"],
            )
        if value < state["f_best"]:
            state["f_best"] = value
            state["x_best"] = x.copy()
        return value

    points = [x0.copy()]
    values = [evaluate(x0)]
    eye = np.eye(n)
    for i in range(n):
        p = x0 + _INITIAL_RADIUS * eye[i]
        points.append(p)
        values.append(evaluate(p))
    points = np.array(points)
    values = np.array(values)

    rho = _INITIAL_RADIUS
    iters = 0
    while iters < max_iters and rho >= _END_RADIUS:
        iters += 1
        b = int(np.argmin(values))
        xb, fb = points[b], values[b]
        others = [i for i in range(n + 1) if i != b]
        spread = points[others] - xb
        dists = np.linalg.norm(spread, axis=1)

        stale = np.max(dists) > 2.1 * rho
        sv = np.linalg.svd(spread, compute_uv=False)
        degenerate = sv[-1] < 0.05 * rho
        if stale or degenerate:
            # geometry step: drop the farthest (or worst) vertex and put a
            # fresh one at distance rho along the span's weakest direction
            drop = others[int(np.argmax(dists))] if stale else others[
                int(np.argmax(values[others]))
            ]
            keep = [i for i in range(n + 1) if i not in (b, drop)]
            basis = points[keep] - xb
            if basis.size:
                _, _, vt = np.linalg.svd(basis)
                direction = vt[-1]
            else:
                direction = eye[0]
            lead = np.flatnonzero(np.abs(direction) > 1e-12)
            if lead.size and direction[lead[0]] < 0:
                direction = -direction
            candidate = xb + rho * direction
            values[drop] = evaluate(candidate)
            points[drop] = candidate
            continue

        grad = np.linalg.solve(spread, values[others] - fb)
        norm = np.linalg.norm(grad)
        if norm < 1e-14:
            # flat model: nothing to exploit at this scale
            rho *= 0.5
            continue
        candidate = xb - rho * grad / norm
        fc = evaluate(candidate)
        if fc < fb:
            worst = others[int(np.argmax(values[others]))]
            points[worst] = candidate
            values[worst] = fc
        else:
            rho *= 0.5

    return CobylaResult(
        x_best=state["x_best"],
        f_best=float(state["f_best"]),
        n_evals=state["n_evals"],
        n_iters=iters,
    )
