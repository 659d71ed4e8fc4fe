"""Outside-in span tracer for the qweather modules.

The tracer wraps every public function defined in each ``qweather`` module
and records a span per call: name, start, end and parent.  Callers import
by name (``from .qsim import apply_matrix`` in ``circuits``) or call through
a module global, so installing rebinds every module attribute that holds an
original function; ``uninstall`` puts the originals back.  Nothing inside
``src/`` is edited.

A few boundaries also record counts taken from their arguments and results
(rows, bytes, kernel entries, objective evaluations), so that ratios are
measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy as np
from qweather.bench import MODEL_TASKS

# The modules whose public functions are wrapped; each is one layer.
LAYERS = (
    "qsim",
    "circuits",
    "autodiff",
    "optim",
    "qkernel",
    "weather",
    "models_qnn",
    "models_recurrent",
    "bench",
)

# autodiff functions that only evaluate; every other public autodiff
# function is a gradient entry point.
FORWARD_FUNCTIONS = {"autodiff.expectation", "autodiff.expectation_batch"}
KERNEL_FUNCTIONS = {"qkernel.fidelity_kernel", "qkernel.rbf_kernel", "qkernel.embed_states"}
DECISION_FUNCTIONS = {"qkernel.svm_decision", "qkernel.ovr_decision"}


def _rows(amps):
    return amps.size // amps.shape[-1] if amps.ndim else 0


class Tracer:
    """Records spans and per-function totals while installed."""

    def __init__(self):
        self._patches = []  # (module, attribute, original)
        self._originals = {}  # key -> original function
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []  # [span index, child seconds]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._grad_depth = 0

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Forget recorded spans and totals; wrappers stay installed."""
        self.spans.clear()
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def _enter(self, name):
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        frame = [index, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, key, start, end):
        span = self.spans[frame[0]]
        span[1] = start
        span[2] = end
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[key] += 1
        self.self_s[key] += duration - frame[1]

    def _wrap(self, key, fn):
        tracer = self
        count = self._counter(key, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(key)
            start = perf_counter()
            try:
                if count is None:
                    return fn(*args, **kwargs)
                return count(fn, args, kwargs)
            finally:
                tracer._exit(frame, key, start, perf_counter())

        return traced

    # -- counts at chosen boundaries ---------------------------------------

    def _counter(self, key, fn):
        c = self.counts
        if key == "qsim.apply_matrix":

            def count(fn, args, kwargs):
                amps = args[0] if args else kwargs["amps"]
                rows = _rows(amps)
                c["qsim.apply_matrix.rows"] += rows
                c["qsim.apply_matrix.bytes"] += 2 * amps.nbytes
                if self._grad_depth:
                    c["autodiff.gate_apps"] += rows
                return fn(*args, **kwargs)

            return count
        if key == "circuits.run_circuit_batch":

            def count(fn, args, kwargs):
                out = fn(*args, **kwargs)
                circuit = args[0] if args else kwargs["circuit"]
                rows = _rows(out)
                c["circuits.run_circuit_batch.rows"] += rows
                c["circuits.gate_apps"] += rows * len(circuit.ops)
                return out

            return count
        if key.startswith("autodiff.") and key not in FORWARD_FUNCTIONS:
            signature = inspect.signature(fn)

            def count(fn, args, kwargs):
                inputs = signature.bind(*args, **kwargs).arguments.get("inputs")
                if self._grad_depth == 0 and inputs is not None:
                    c["autodiff.jacobian.rows"] += np.atleast_2d(np.asarray(inputs)).shape[0]
                self._grad_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._grad_depth -= 1

            return count
        if key == "optim.cobyla_minimize":

            def count(fn, args, kwargs):
                objective = args[0] if args else kwargs.pop("objective")
                result = fn(self._traced_objective(objective), *args[1:], **kwargs)
                c["optim.cobyla.iters"] += result.n_iters
                return result

            return count
        if key in ("qkernel.fidelity_kernel", "qkernel.rbf_kernel"):

            def count(fn, args, kwargs):
                out = fn(*args, **kwargs)
                c["qkernel.kernel.entries"] += out.size
                return out

            return count
        if key == "qkernel.svm_train":

            def count(fn, args, kwargs):
                model = fn(*args, **kwargs)
                c["qkernel.svm_train.n"] += model.n_train
                c["qkernel.svm_train.support"] += len(model.support_indices)
                return model

            return count
        if key == "bench.run":

            def count(fn, args, kwargs):
                config = args[0] if args else kwargs["config"]
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    c[f"bench.run.{config.model}_s"] += perf_counter() - start

            return count
        return None

    def _traced_objective(self, objective):
        """Wrap a COBYLA objective: a span in its own module's layer plus
        the evaluation and improvement counts."""
        layer = objective.__module__.rsplit(".", 1)[-1]
        key = f"{layer}.{objective.__name__}"
        best = [np.inf]
        c = self.counts

        def traced(x):
            frame = self._enter(key)
            start = perf_counter()
            try:
                value = objective(x)
            finally:
                self._exit(frame, key, start, perf_counter())
            c["optim.cobyla.evals"] += 1
            if value < best[0]:
                best[0] = value
                c["optim.cobyla.improvements"] += 1
            return value

        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        """Rebind every module attribute holding a public qweather function."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"qweather.{layer}")
            for name, obj in vars(module).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    key = f"{layer}.{name}"
                    self._originals[key] = obj
                    wrappers[id(obj)] = (obj, self._wrap(key, obj))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qweather" or mod_name.startswith("qweather.")):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    @property
    def patches(self):
        return list(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, run_s):
        """Per-layer metrics of everything recorded since the last reset.

        ``run_s`` is the traced wall time of the same model runs, measured
        outside the tracer.  Times are reported as shares of ``run_s``: a
        layer a workload does not use reads 0 there, and a share does not
        move with the machine's speed.
        """
        calls, self_s, c = self.calls, self.self_s, self.counts

        def share(*keys):
            return sum(self_s[k] for k in keys) / run_s

        grad_keys = [
            k for k in self._originals if k.startswith("autodiff.") and k not in FORWARD_FUNCTIONS
        ]
        layer_self = defaultdict(float)
        for key, value in self_s.items():
            layer_self[key.split(".", 1)[0]] += value
        am_self = self_s["qsim.apply_matrix"]
        rcb_calls = calls["circuits.run_circuit_batch"]
        grad_rows = c["autodiff.jacobian.rows"]
        evals = c["optim.cobyla.evals"]
        svm_n = c["qkernel.svm_train.n"]
        m = {
            "trace.run_s": run_s,
            "qsim.apply_matrix.calls": calls["qsim.apply_matrix"],
            "qsim.apply_matrix.rows": c["qsim.apply_matrix.rows"],
            "qsim.apply_matrix.share": share("qsim.apply_matrix"),
            "qsim.apply_matrix.bytes": c["qsim.apply_matrix.bytes"],
            "qsim.apply_matrix.gbps": c["qsim.apply_matrix.bytes"] / am_self / 1e9 if am_self else 0.0,
            "qsim.gate_matrix.calls": calls["qsim.gate_matrix"],
            "qsim.gate_matrix.share": share("qsim.gate_matrix"),
            "circuits.run_circuit_batch.calls": rcb_calls,
            "circuits.run_circuit_batch.rows": c["circuits.run_circuit_batch.rows"],
            "circuits.run_circuit_batch.share": share("circuits.run_circuit_batch"),
            "circuits.rows_per_call": c["circuits.run_circuit_batch.rows"] / rcb_calls if rcb_calls else 0.0,
            "circuits.gate_apps": c["circuits.gate_apps"],
            "autodiff.jacobian.calls": sum(calls[k] for k in grad_keys),
            "autodiff.jacobian.share": share(*grad_keys),
            "autodiff.jacobian.rows": grad_rows,
            "autodiff.gate_apps_per_sample": c["autodiff.gate_apps"] / grad_rows if grad_rows else 0.0,
            "autodiff.forward.calls": calls["autodiff.expectation_batch"],
            "autodiff.forward.share": share("autodiff.expectation_batch"),
            "optim.adam_step.calls": calls["optim.adam_step"],
            "optim.adam_step.share": share("optim.adam_step"),
            "optim.cobyla.share": share("optim.cobyla_minimize"),
            "optim.cobyla.evals": evals,
            "optim.cobyla.iters": c["optim.cobyla.iters"],
            "optim.cobyla.improve_ratio": c["optim.cobyla.improvements"] / evals if evals else 0.0,
            "qkernel.kernel.share": share(*KERNEL_FUNCTIONS),
            "qkernel.kernel.entries": c["qkernel.kernel.entries"],
            "qkernel.svm_train.calls": calls["qkernel.svm_train"],
            "qkernel.svm_train.n": svm_n / calls["qkernel.svm_train"] if svm_n else 0.0,
            "qkernel.svm_train.share": share("qkernel.svm_train"),
            "qkernel.svm_train.support_ratio": c["qkernel.svm_train.support"] / svm_n if svm_n else 0.0,
            "qkernel.decision.share": share(*DECISION_FUNCTIONS),
            "models_recurrent.bptt.share": share("models_recurrent.sequence_loss_and_grad"),
        }
        for layer in LAYERS:
            m[f"{layer}.share"] = layer_self[layer] / run_s
        for model in MODEL_TASKS:
            m[f"bench.run.{model}.share"] = c[f"bench.run.{model}_s"] / run_s
        m["trace.coverage"] = sum(layer_self.values()) / run_s
        return m
