"""Quantum fidelity kernels and a precomputed-kernel soft-margin SVM.

The kernel entry for two samples is the squared overlap of their embedded
statevectors.  Training solves the soft-margin dual by sequential minimal
optimization: each step pairs the maximal KKT violator with the partner
of largest second-order gain (Fan, Chen & Lin 2005, LIBSVM's WSS2).  A
solve (``SvmModel``) holds alpha over every training row; a
``KernelMachine`` holds one machine for two classes, else one per class.

All machines of a fit share one kernel and are solved in one loop: each
pass chooses i and j for every unfinished machine with row-wise reductions,
then steps each in turn, and a machine that stops takes no more steps.
Every solve keeps the bits of solving its machine alone.  Reductions pick
the first of equal maxima as a 1-D argmax does; each pair's step runs in
the same IEEE operations on Python floats; and each gradient update stays
one (2,) @ (2, n) product per machine, whose bits a batched product could
change.
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


# an alpha within this of 0 or C sits at that bound; above it, a row is support
_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class SvmModel:
    """One SMO solve: alpha over every training row, bias, steps, final KKT gap."""

    alpha: np.ndarray
    bias: float
    n_iter: int
    kkt_gap: float

    @property
    def n_train(self) -> int:
        return self.alpha.size

    @property
    def support_indices(self) -> np.ndarray:
        return np.flatnonzero(self.alpha > _BOUND_TOL)


def svm_train(kernel, y, C: float = 1.0, tol: float = 1e-3):
    """Soft-margin SVM on a precomputed kernel via SMO.

    ``y`` must be in {-1, +1} with both classes present.  The solver stops
    once the KKT gap, max(-y*G) over I_up minus min(-y*G) over I_low with
    G the dual gradient, is at most ``tol``, or after ``200 * n`` steps;
    the solve records the steps taken and that final gap.  The final bias
    averages over free support vectors (0 < alpha < C); when none exist it
    is the midpoint of the interval the KKT conditions allow.  ``C`` must
    be positive (``inf`` gives a hard margin) and ``tol`` not NaN.
    """
    K, y = _checked(kernel, y, C, tol)
    (model,) = _smo(K, y[None], C, tol)
    return model


def _checked(kernel, y, C, tol):
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
    # written so that a NaN fails too
    if not C > 0:
        raise ValueError(f"C must be positive, got {C!r}")
    if not tol == tol:
        raise ValueError(f"tol must be a number, got {tol!r}")
    min_eig = float(np.linalg.eigvalsh(K).min())
    if min_eig < -1e-8:
        raise IllConditionedKernelError(
            f"kernel minimum eigenvalue {min_eig:.3e} below -1e-8"
        )
    return K, y


def _smo(K, Y, C, tol):
    """The SMO solves of the label rows ``Y`` (m, n) on one checked kernel.

    Each pass takes one step in every machine that has not stopped; a
    machine stops when its KKT gap is at most ``tol`` or after 200 * n
    steps, and every machine's solve has the bits of solving it alone.
    """
    m, n = Y.shape
    # the pair step below is Python float arithmetic
    C, tol = float(C), float(tol)
    # v = -y*G, for the dual gradient G of 0.5 a'Qa - sum(a) with Q = yy'K,
    # is the bias each point asks for; the KKT gap is its spread over I_up
    # and I_low, the points whose y*alpha can still rise and fall.  up and
    # low hold 0 in their set and -inf outside it, so adding one masks v.
    alpha = np.zeros((m, n))
    v = Y.copy()
    up = np.where(Y > 0, 0.0, -np.inf)
    low = np.where(Y < 0, 0.0, -np.inf)
    ys = Y.tolist()
    diag = np.diag(K).copy()
    owner = list(range(m))
    rows = np.arange(m)
    solves = [None] * m
    for n_iter in range(200 * n + 1):
        i = (v + up).argmax(axis=1)
        gap = v[rows, i][:, None] - v
        # the KKT gap is the largest gap over I_low, as rounding keeps order
        low_gap = gap + low
        kkt = np.maximum.reduce(low_gap, axis=1).tolist()
        stop = [g <= tol or n_iter == 200 * n for g in kkt]
        if any(stop):
            for r in np.flatnonzero(stop):
                solves[owner[r]] = _solve(alpha[r], v[r], Y[r], C, i[r], low[r] == 0, n_iter)
            keep = np.flatnonzero(np.logical_not(stop))
            if not keep.size:
                break
            alpha, v, up, low, Y, i, gap, low_gap = (
                a[keep] for a in (alpha, v, up, low, Y, i, gap, low_gap)
            )
            owner, ys, rows = [owner[r] for r in keep], [ys[r] for r in keep], rows[: keep.size]
        # second-order choice of j (Fan, Chen & Lin 2005, WSS2), in every
        # row with the operation order of a single machine's step
        curv = np.maximum(diag[i][:, None] + diag - 2.0 * K.take(i, axis=0), 1e-12)
        j = np.where(low_gap > 0, gap**2 / curv, -np.inf).argmax(axis=1)
        for r, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
            row, y = alpha[r], ys[r]
            # alpha[a] moves by t along y[a] and alpha[b] by t along -y[b],
            # as far as the box [0, C] lets both
            old_a, old_b = row.item(a), row.item(b)
            room_a = C - old_a if y[a] > 0 else old_a
            room_b = C - old_b if y[b] < 0 else old_b
            t = min(gap.item(r, b) / curv.item(r, b), min(room_a, room_b))
            row[a] = (C if y[a] > 0 else 0.0) if room_a <= t else old_a + t * y[a]
            # written second, so it wins when a == b
            row[b] = (C if y[b] < 0 else 0.0) if room_b <= t else old_b + t * -y[b]
            moved = [(row.item(a) - old_a) * y[a], (row.item(b) - old_b) * y[b]]
            # v - w rounds like -y*(G + y*w), since y = +-1
            v[r] -= np.array(moved) @ K.take((a, b), axis=0)
            for k in (a, b):
                x = row.item(k)
                rise, fall = (x < C, x > 0) if y[k] > 0 else (x > 0, x < C)
                up[r, k] = 0.0 if rise else -np.inf
                low[r, k] = 0.0 if fall else -np.inf
    return tuple(solves)


def _solve(alpha, v, y, C, i, low, n_iter):
    """The ``SvmModel`` of one stopped machine, from its final state."""
    # -y*G has an exact zero as -0.0 where y = +1; v - w always leaves +0.0
    v = np.where(v == 0.0, -0.0 * y, v)
    kkt_gap = float(v[i] - v[low].min())
    at_zero, at_c = alpha <= _BOUND_TOL, alpha >= C - _BOUND_TOL
    free = ~(at_zero | at_c)
    if np.any(free):
        bias = float(np.mean(v[free]))
    else:
        # midpoint of the bias interval the box constraints leave open; both
        # ends are finite, since sum(alpha * y) = 0 leaves either every alpha
        # at 0 or an alpha at C in each class
        lower = v[(at_zero & (y > 0)) | (at_c & (y < 0))].max()
        upper = v[(at_zero & (y < 0)) | (at_c & (y > 0))].min()
        bias = float(0.5 * (lower + upper))
    return SvmModel(alpha=alpha.copy(), bias=bias, n_iter=n_iter, kkt_gap=kkt_gap)


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
    Y = np.array([np.where(y == c, 1.0, -1.0) for c in classes[len(classes) == 2:]])
    K, _ = _checked(_kernel(kernel, gamma, X, X), Y[0], C, tol)
    solves = _smo(K, Y, C, tol)
    alphas = np.array([m.alpha for m in solves])
    support = alphas > _BOUND_TOL
    kept = np.flatnonzero(support.any(axis=0))
    coefficients = np.where(support, alphas * Y, 0.0)[:, kept]
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
