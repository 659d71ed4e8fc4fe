"""Quantum machine learning models for weather time series.

Exact statevector simulation, data-embedding circuit templates, quantum
kernel SVMs, variational classifiers and quantum recurrent models, plus
the experiment harness and CLI.  Gradient training uses adjoint
vector-Jacobian products; parameter shift stays as a test oracle.
"""

from .bench import (
    ExperimentConfig,
    ExperimentReport,
    compare,
    emit_plot_data,
    run,
)
from .weather import load_csv, save_csv, synth_generate

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "compare",
    "emit_plot_data",
    "run",
    "load_csv",
    "save_csv",
    "synth_generate",
    "__version__",
]
