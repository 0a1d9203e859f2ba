"""Adiabatic ground-state preparation on a statevector simulator.

Prepares ground states by slowly ramping an initial Hamiltonian into a
target, holds the result under the constant target while measuring
observables (exactly or with shot noise), and diagnoses the residual
excited-state weight from the oscillation it leaves in the record: the
oscillation variance yields the excitation probability, which in turn
corrects the systematic bias it imprints on time-averaged expectations.
"""

from __future__ import annotations

from .analyze import (
    OscillationStats,
    VacuumDiagnosis,
    diagnose,
    oscillation_stats,
    predicted_series,
)
from .config import PRESETS, ConfigError, ExperimentConfig, OutputOptions, preset_config
from .evolve import (
    INTEGRATORS,
    ResidualDecomposition,
    decompose,
    initial_state,
    run_adiabatic,
)
from .linalg import EigenSystem, eig_hermitian
from .measure import TimeSeries, hold_series
from .model import (
    AdiabaticSchedule,
    HermitianOperator,
    ModelSpec,
    model_one,
    model_two,
    observable_from_label,
    pauli,
)
from .runner import RunResult, run_experiment, run_and_write, sweep

__version__ = "0.1.0"

__all__ = [
    "AdiabaticSchedule",
    "ConfigError",
    "EigenSystem",
    "ExperimentConfig",
    "HermitianOperator",
    "INTEGRATORS",
    "ModelSpec",
    "OscillationStats",
    "OutputOptions",
    "PRESETS",
    "ResidualDecomposition",
    "RunResult",
    "TimeSeries",
    "VacuumDiagnosis",
    "decompose",
    "diagnose",
    "eig_hermitian",
    "hold_series",
    "initial_state",
    "model_one",
    "model_two",
    "observable_from_label",
    "oscillation_stats",
    "pauli",
    "predicted_series",
    "preset_config",
    "run_adiabatic",
    "run_and_write",
    "run_experiment",
    "sweep",
]
