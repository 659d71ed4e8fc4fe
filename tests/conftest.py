"""Shared pytest hooks: surface acceptance verdicts past output capture,
count circuit sweeps and check the forward tape of circuit VJPs."""

import sys

import numpy as np
import pytest

import qweather.autodiff
import qweather.circuits

ACCEPTANCE_VERDICTS = []


def record_verdict(line: str) -> None:
    ACCEPTANCE_VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_VERDICTS:
        terminalreporter.write_line(line)


def _patch_everywhere(monkeypatch, attr, original, replacement):
    # modules import by name, so rebind every qweather module's copy
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qweather" and vars(module).get(attr) is original:
            monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def circuit_sweeps(monkeypatch):
    """List of the circuits every ``run_circuit_batch`` call runs, however
    a module imported the function."""
    original = qweather.circuits.run_circuit_batch
    swept = []

    def counted(circuit, *args, **kwargs):
        swept.append(circuit.name)
        return original(circuit, *args, **kwargs)

    _patch_everywhere(monkeypatch, "run_circuit_batch", original, counted)
    return swept


def same_bytes(a, b) -> bool:
    """Equal shape, dtype and bytes: no tolerance, signed zeros included.
    None (a gradient not taken) equals only None."""
    if a is None or b is None:
        return a is b
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.shape, a.dtype) == (b.shape, b.dtype) and np.array_equal(
        a.ravel().view(np.uint8), b.ravel().view(np.uint8)
    )


@pytest.fixture
def fresh_forward_vjps(monkeypatch):
    """Check every ``circuit_vjp`` call against a freshly simulated forward.

    The taped states must be the bytes ``run_circuit_batch`` gives under the
    binding the call passes (the bound forward the tape came from), and the
    VJP fed them must be the bytes of the VJP fed a fresh forward sweep.
    Stacked (G, n_trainable) params are simulated as ``params[..., None, :]``,
    the way a gate group's forward call runs them.  Returns the list of
    checked calls.
    """
    simulate = qweather.circuits.run_circuit_batch
    original = qweather.autodiff.circuit_vjp
    checked = []

    def checking(
        circuit, params, inputs, states, qubits, weights, bound=None, wrt_inputs=True
    ):
        theta = np.asarray(params)
        if theta.ndim == 2:
            theta = theta[..., None, :]
        fresh = simulate(circuit, theta, np.atleast_2d(inputs), bound=bound)
        assert same_bytes(states, fresh)
        args = qubits, weights, bound, wrt_inputs
        got = original(circuit, params, inputs, states, *args)
        want = original(circuit, params, inputs, fresh, *args)
        assert all(same_bytes(g, w) for g, w in zip(got, want))
        checked.append(circuit.name)
        return got

    _patch_everywhere(monkeypatch, "circuit_vjp", original, checking)
    return checked
