"""Quantum fidelity kernels and a precomputed-kernel soft-margin SVM.

The kernel entry for two samples is the squared overlap of their embedded
statevectors.  Training solves the soft-margin dual by sequential minimal
optimization: each step pairs the maximal KKT violator with the partner
of largest second-order gain (Fan, Chen & Lin 2005, LIBSVM's WSS2).  A
``KernelMachine`` holds one machine for two classes, else one per class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, circuit_from_name, run_circuit_batch


class IllConditionedKernelError(Exception):
    """Kernel matrix is not positive semidefinite within tolerance."""


def embed_states(X, feature_map: Circuit) -> np.ndarray:
    """Amplitudes of every row under the feature map, shape (n, 2**q)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    return run_circuit_batch(feature_map, (), X)


def fidelity_kernel(Xa, Xb, feature_map: Circuit) -> np.ndarray:
    """|<phi(a)|phi(b)>|^2 for every pair of rows, shape (na, nb)."""
    amps_a = embed_states(Xa, feature_map)
    amps_b = embed_states(Xb, feature_map)
    return np.abs(amps_a.conj() @ amps_b.T) ** 2


def rbf_kernel(Xa, Xb, gamma: float) -> np.ndarray:
    Xa = np.atleast_2d(np.asarray(Xa, dtype=float))
    Xb = np.atleast_2d(np.asarray(Xb, dtype=float))
    sq = (
        np.sum(Xa**2, axis=1)[:, None]
        + np.sum(Xb**2, axis=1)[None, :]
        - 2.0 * Xa @ Xb.T
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


def default_gamma(X) -> float:
    """1 / (n_features * variance), the scale-aware default."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    var = float(X.var())
    if var <= 0:
        return 1.0 / X.shape[1]
    return 1.0 / (X.shape[1] * var)


@dataclass(frozen=True)
class SvmModel:
    dual_coefficients: np.ndarray
    support_indices: np.ndarray
    support_labels: np.ndarray
    bias: float
    n_train: int
    n_iter: int
    kkt_gap: float


def svm_train(kernel, y, C: float = 1.0, tol: float = 1e-3):
    """Soft-margin SVM on a precomputed kernel via SMO.

    ``y`` must be in {-1, +1} with both classes present.  The solver stops
    once the KKT gap, max(-y*G) over I_up minus min(-y*G) over I_low with
    G the dual gradient, is at most ``tol``, or after ``200 * n`` steps;
    the model records the steps taken and that final gap.  The final bias
    averages over free support vectors (0 < alpha < C); when none exist it
    is the midpoint of the interval the KKT conditions allow.
    """
    K, y = _checked(kernel, y, C)
    return _smo(K, y, C, tol)


def _checked(kernel, y, C):
    """The kernel entries and float labels, once every input check passes."""
    K = np.asarray(kernel, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    if K.shape != (n, n):
        raise ValueError(f"kernel shape {K.shape} does not match {n} labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if np.unique(y).size < 2:
        raise ValueError("both classes must be present")
    if C <= 0:
        raise ValueError("C must be positive")
    min_eig = float(np.linalg.eigvalsh(K).min())
    if min_eig < -1e-8:
        raise IllConditionedKernelError(
            f"kernel minimum eigenvalue {min_eig:.3e} below -1e-8"
        )
    return K, y


def _smo(K, y, C, tol):
    """The SMO solve of ``svm_train`` on checked inputs."""
    n = y.size
    # dual gradient G of 0.5 a'Qa - sum(a) with Q = yy'K; -y*G is the
    # bias each point asks for, and the KKT gap is its spread over the sets
    # where alpha can still move up (I_up) and down (I_low)
    alpha = np.zeros(n)
    G = -np.ones(n)
    diag = np.diag(K)
    n_iter = 0
    while True:
        v = -y * G
        up = np.where(y > 0, alpha < C, alpha > 0)
        low = np.where(y > 0, alpha > 0, alpha < C)
        i = int(np.argmax(np.where(up, v, -np.inf)))
        kkt_gap = float(v[i] - v[low].min())
        if kkt_gap <= tol or n_iter == 200 * n:
            break
        # second-order choice of j (Fan, Chen & Lin 2005, WSS2)
        gap = v[i] - v
        curv = np.maximum(diag[i] + diag - 2.0 * K[i], 1e-12)
        j = int(np.argmax(np.where(low & (gap > 0), gap**2 / curv, -np.inf)))
        pair = [i, j]
        old = alpha[pair]
        step = np.array([y[i], -y[j]])
        room = np.where(step > 0, C - old, old)
        t = min(gap[j] / curv[j], room.min())
        alpha[pair] = np.where(room <= t, np.where(step > 0, C, 0.0), old + t * step)
        G += y * (((alpha[pair] - old) * y[pair]) @ K[pair])
        n_iter += 1

    free = (alpha > 1e-9) & (alpha < C - 1e-9)
    if np.any(free):
        bias = float(np.mean(v[free]))
    else:
        # midpoint of the bias interval the box constraints leave open; both
        # ends are finite, since sum(alpha * y) = 0 leaves either every alpha
        # at 0 or an alpha at C in each class
        at_zero, at_c = alpha <= 1e-9, alpha >= C - 1e-9
        lower = v[(at_zero & (y > 0)) | (at_c & (y < 0))].max()
        upper = v[(at_zero & (y < 0)) | (at_c & (y > 0))].min()
        bias = float(0.5 * (lower + upper))

    support = np.flatnonzero(alpha > 1e-9)
    return SvmModel(
        dual_coefficients=alpha[support].copy(),
        support_indices=support,
        support_labels=y[support].copy(),
        bias=bias,
        n_train=n,
        n_iter=n_iter,
        kkt_gap=kkt_gap,
    )


def svm_decision(model: SvmModel, k_rows) -> np.ndarray:
    """Decision values for kernel rows of shape (m, n_train) or (n_train,)."""
    k_rows = np.atleast_2d(np.asarray(k_rows, dtype=float))
    if k_rows.shape[1] != model.n_train:
        raise ValueError(
            f"kernel row length {k_rows.shape[1]} does not match "
            f"{model.n_train} training points"
        )
    coef = model.dual_coefficients * model.support_labels
    return k_rows[:, model.support_indices] @ coef + model.bias


@dataclass(frozen=True)
class KernelMachine:
    """A trained kernel classifier, scored on the training rows it kept.

    ``kernel`` is "rbf", of width ``gamma``, or a feature-map descriptor
    such as "zz_feature_map(3,1)" with ``gamma`` None.  Row j of
    ``coefficients`` is machine j's alpha * y on each support row, zero
    where it did not keep the row.  One machine decides ``classes[1]``
    against ``classes[0]``, else machine j ``classes[j]`` against the rest.
    """

    kernel: str
    gamma: float | None
    classes: tuple
    support_rows: np.ndarray
    coefficients: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        if (self.kernel == "rbf") != (self.gamma is not None):
            raise ValueError("gamma is set exactly for the rbf kernel")
        if len(self.classes) < 2 or list(self.classes) != sorted(set(self.classes)):
            raise ValueError("classes must be two or more distinct labels in order")
        m = 1 if len(self.classes) == 2 else len(self.classes)
        shapes = (self.support_rows.shape, self.coefficients.shape, self.biases.shape)
        if self.support_rows.ndim != 2 or shapes[1:] != ((m, shapes[0][0]), (m,)):
            raise ValueError(
                f"{m} machines do not fit row, coefficient and bias shapes {shapes}"
            )


def _kernel(kernel, gamma, Xa, Xb) -> np.ndarray:
    if kernel == "rbf":
        return rbf_kernel(Xa, Xb, gamma)
    return fidelity_kernel(Xa, Xb, circuit_from_name(kernel))


def kernel_machine_train(X, y, kernel, gamma=None, C: float = 1.0, tol: float = 1e-3):
    """(machine, solves): the ``KernelMachine`` of rows ``X`` and labels ``y``
    and each machine's SMO solve (an ``SvmModel``); the kernel is checked once."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y).ravel()
    classes = tuple(np.unique(y).tolist())
    # one class against the rest for each class, or the second class alone;
    # the checks pass for one machine's labels iff they pass for all
    signs = [np.where(y == c, 1.0, -1.0) for c in classes[len(classes) == 2:]]
    K, _ = _checked(_kernel(kernel, gamma, X, X), signs[0], C)
    solves = tuple(_smo(K, sign, C, tol) for sign in signs)
    kept = np.unique(np.concatenate([m.support_indices for m in solves]))
    coefficients = np.zeros((len(solves), kept.size))
    for row, m in zip(coefficients, solves):
        row[np.isin(kept, m.support_indices)] = m.dual_coefficients * m.support_labels
    biases = np.array([m.bias for m in solves])
    return KernelMachine(kernel, gamma, classes, X[kept], coefficients, biases), solves


def kernel_machine_predict(machine: KernelMachine, X) -> np.ndarray:
    """Labels for feature rows, shape (n,): with one machine the second
    class where its decision is >= 0, else the class of the largest
    decision, ties to the lowest class."""
    k_rows = _kernel(machine.kernel, machine.gamma, X, machine.support_rows)
    decision = k_rows @ machine.coefficients.T + machine.biases
    if len(machine.biases) == 1:
        return np.asarray(machine.classes)[(decision[:, 0] >= 0).astype(int)]
    return np.asarray(machine.classes)[np.argmax(decision, axis=1)]
