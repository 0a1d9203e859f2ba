import dataclasses
import importlib
import inspect
import subprocess
import sys

import pytest

import adiaprep
from adiaprep.config import PRESETS, ConfigError, config_from_dict

MODULES = ("analyze", "config", "evolve", "linalg", "measure", "model", "runner", "svgplot")

# standard-library packages that importing the package must not load
UNUSED_STDLIB = ("urllib.request", "http", "email", "ssl", "socket", "xml")

# the whole public surface: what the ramp -> hold -> diagnose pipeline and
# the CLI use, and nothing only the tests call
EXPORTS = {
    "AdiabaticSchedule", "ConfigError", "EigenSystem", "ExperimentConfig",
    "HermitianOperator", "INTEGRATORS", "ModelSpec", "OscillationStats",
    "OutputOptions", "PRESETS", "ResidualDecomposition", "RunResult",
    "TimeSeries", "VacuumDiagnosis", "decompose", "diagnose", "eig_hermitian",
    "hold_series", "initial_state", "model_one", "model_two",
    "observable_from_label", "oscillation_stats", "pauli", "predicted_series",
    "preset_config", "run_adiabatic", "run_and_write", "run_experiment", "sweep",
}

# removed helpers and options; none may come back as an export or attribute
REMOVED = {
    "analyze": ("diagnose_anticommuting", "diagnose_general", "_pair_elements"),
    # one n >= 3 eigensolver; the cyclic Jacobi sweeps live on in tests/_oracles.py
    "linalg": (
        "apply", "hermiticity_defect", "expm_minus_i", "_jacobi", "_rotate", "_offdiag_norm",
        "_MAX_SWEEPS",
    ),
    "evolve": ("evolve_exact", "trotter2_step", "exact_midpoint_step", "superposition_state"),
    "measure": (
        "shot_std", "expectation", "sample_expectation", "ShotSampler", "heisenberg_z_closed_form"
    ),
    "model": ("hamiltonian_at", "spectral_gap_at"),
}


def test_package_exports_resolve():
    assert set(adiaprep.__all__) == EXPORTS
    assert len(adiaprep.__all__) == len(EXPORTS)
    for name in adiaprep.__all__:
        assert hasattr(adiaprep, name), name


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_resolve(module_name):
    module = importlib.import_module(f"adiaprep.{module_name}")
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module_name}.{name}"


def test_removed_names_are_gone():
    for module_name, names in REMOVED.items():
        module = importlib.import_module(f"adiaprep.{module_name}")
        for name in names:
            assert not hasattr(module, name), f"{module_name}.{name}"
            assert name not in adiaprep.__all__ and not hasattr(adiaprep, name), name
    assert not hasattr(adiaprep.HermitianOperator, "negated")
    assert not hasattr(adiaprep.ModelSpec, "observable")
    # the beat frequency is a field, no longer picked by a kind tag from a coupling
    assert [f.name for f in dataclasses.fields(adiaprep.ModelSpec)] == [
        "initial", "target", "observables", "reference_ground_state",
        "reference_excited_state", "oscillation_angular_frequency",
    ]
    # the reference energies are pair_elements(target)[:2]
    for name in ("kind", "coupling", "ground_energy", "excited_energy"):
        assert not hasattr(adiaprep.model_one(1.0), name), name
    assert not hasattr(adiaprep.EigenSystem, "dim")
    # a sweep keeps each value's spec itself
    assert [f.name for f in dataclasses.fields(adiaprep.RunResult)] == [
        "config", "summary", "series", "predictions",
    ]


def test_removed_options_are_gone():
    for fn, option in (
        (adiaprep.run_adiabatic, "outer"),
        (adiaprep.hold_series, "hold_integrator"),
        (adiaprep.hold_series, "substep_width"),
        (adiaprep.hold_series, "sampler"),
        (adiaprep.AdiabaticSchedule, "profile"),
        (adiaprep.predicted_series, "observable_label"),
        (adiaprep.decompose, "residual_tol"),
        (adiaprep.linalg.as_state_vector, "norm_tol"),
        (adiaprep.ModelSpec, "oscillation_angular_frequency"),
    ):
        assert option not in inspect.signature(fn).parameters, (fn.__name__, option)
    with pytest.raises(ConfigError, match=r"unknown fields \['hold_integrator'\]"):
        config_from_dict({**PRESETS["fig2"], "hold_integrator": "exact"})


def test_import_loads_no_network_email_tls_or_xml_modules():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, adiaprep, adiaprep.cli; print(*sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [
        m for m in proc.stdout.split()
        if any(m == name or m.startswith(name + ".") for name in UNUSED_STDLIB)
    ]
    assert loaded == []
