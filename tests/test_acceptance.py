"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line with the measured numbers once its
assertions hold, so a verbose run reads as a checklist. Criteria cover the
closed-form operator identity, the analytic hold-series laws, the two
built-in experiment reproductions, integrator order, recovery accuracy of
the variance diagnosis, shot-noise scaling, and artifact determinism.
"""

import numpy as np
import pytest

from adiaprep.analyze import diagnose, oscillation_stats
from adiaprep.config import PRESETS, config_from_dict
from adiaprep.evolve import initial_state, run_adiabatic
from adiaprep.measure import TimeSeries, hold_series
from adiaprep.model import AdiabaticSchedule, model_one, model_two, pauli
from adiaprep.runner import run_and_write, run_experiment

from _oracles import (
    expm_minus_i,
    heisenberg_z_closed_form,
    landau_zener_propagator,
    superposition_state,
)


@pytest.fixture
def report(request):
    reporter = request.config.pluginmanager.getplugin("terminalreporter")

    def _report(line: str) -> None:
        if reporter is None:
            print(line)
        else:
            reporter.ensure_newline()
            reporter.write_line(line)

    return _report


def test_criterion_1_heisenberg_closed_form(report):
    j = np.pi / 4.0
    spec = model_two(j)
    z = pauli("Z").matrix
    rng = np.random.default_rng(2026)
    worst = 0.0
    for t in rng.uniform(0.0, 20.0, size=100):
        u = expm_minus_i(spec.target.matrix, float(t))
        conjugated = u.conj().T @ z @ u
        closed = heisenberg_z_closed_form(float(t), j).matrix
        worst = max(worst, float(np.max(np.abs(closed - conjugated))))
    assert worst < 1e-10
    report(f"PASS criterion 1: closed-form Z(t) matches U^dag Z U, max deviation {worst:.2e}")


def test_criterion_2_closed_form_hold_series(report):
    rng = np.random.default_rng(7)
    worst = 0.0
    for factory, j in ((model_one, 1.0), (model_two, np.pi / 4.0)):
        spec = factory(j)
        period = np.pi / j
        sample_dt = period / 32.0
        for _ in range(5):
            beta_sq = rng.uniform(0.0, 0.05)
            theta = rng.uniform(-np.pi, np.pi)
            v = superposition_state(spec, np.sqrt(beta_sq), theta)
            series = hold_series(
                v, spec, pauli("Z"), 2.0 * period, sample_dt, 0, 0
            )
            ab = np.sqrt(beta_sq * (1.0 - beta_sq))
            beat = np.cos(2.0 * j * series.times + theta)
            if factory is model_one:
                predicted = 2.0 * ab * beat
            else:
                predicted = (1.0 - 2.0 * beta_sq) / np.sqrt(2.0) + np.sqrt(2.0) * ab * beat
            worst = max(worst, float(np.max(np.abs(series.exact_values - predicted))))
    assert worst < 1e-10
    report(f"PASS criterion 2: hold series match the cosine laws, max deviation {worst:.2e}")


def test_criterion_3_offset_model_reproduction(report):
    data = dict(PRESETS["fig2"])
    data["shots"] = 0
    result = run_experiment(config_from_dict(data))
    diag = result.summary["observables"]["Z"]["diagnosis_exact"]
    deficit = 1.0 / np.sqrt(2.0) - diag["raw_average"]
    assert 1e-4 < deficit < 1e-3
    assert 1e-4 < diag["beta_sq"] < 1e-3
    corrected_err = abs(diag["corrected_value"] - 0.707107)
    assert corrected_err < 1e-4
    report(
        "PASS criterion 3: raw deficit {:.3e}, beta_sq {:.3e}, "
        "|corrected - 0.707107| = {:.2e}".format(deficit, diag["beta_sq"], corrected_err)
    )


def test_criterion_4_flip_model_reproduction(report):
    result_a = run_experiment(config_from_dict(dict(PRESETS["fig1a"])))
    diag = result_a.summary["observables"]["Z"]["diagnosis_exact"]
    two_beta_sq = 2.0 * diag["beta_sq"]
    assert 2e-4 < two_beta_sq < 2e-3
    direct = result_a.summary["state_decomposition"]["beta_sq"]
    assert abs(diag["beta_sq"] - direct) < 1e-9

    result_b = run_experiment(config_from_dict(dict(PRESETS["fig1b"])))
    series = result_b.series["-X"]
    drift = float(np.max(series.exact_values) - np.min(series.exact_values))
    assert drift < 1e-12

    predicted = diag["predicted_conserved"]
    exact_gap = float(np.max(np.abs(series.exact_values - predicted)))
    assert exact_gap < 1e-9

    entry = result_b.summary["observables"]["-X"]
    pull = abs(entry["stats_sampled"]["mean_arith"] - predicted) / entry["stderr_window_mean"]
    assert pull < 3.0
    report(
        "PASS criterion 4: 2*beta_sq {:.3e}, conserved drift {:.1e}, predicted vs exact "
        "{:.1e}, sampled pull {:.2f} sigma".format(two_beta_sq, drift, exact_gap, pull)
    )


def test_criterion_5_integrator_order(report):
    spec = model_two(np.pi / 4.0)
    # one shared reference: the exact Landau-Zener propagator of the ramp
    reference = landau_zener_propagator(spec.initial.matrix, spec.target.matrix, 36.0) @ initial_state(spec)
    deviations = []
    for denominator in (12.0, 24.0, 48.0):
        coarse = run_adiabatic(spec, AdiabaticSchedule(36.0, 1.0 / denominator), "trotter2")
        deviations.append(float(np.linalg.norm(coarse - reference)))
    ratios = [deviations[0] / deviations[1], deviations[1] / deviations[2]]
    assert all(3.5 < r < 4.5 for r in ratios)
    report(
        "PASS criterion 5: ramp error shrinks {:.2f}x then {:.2f}x per step halving".format(
            *ratios
        )
    )


def test_criterion_6_recovery_oracle(report):
    rng = np.random.default_rng(99)
    c = 1.0 / np.sqrt(2.0)
    spec = model_two(np.pi / 4.0)
    z = pauli("Z")
    per_period = 32
    worst = 0.0
    for _ in range(1000):
        beta_sq = 10.0 ** rng.uniform(-5.0, np.log10(0.04))
        theta = rng.uniform(-np.pi, np.pi)
        j = rng.uniform(0.3, 2.0)
        periods = int(rng.integers(2, 7))
        tau = np.arange(periods * per_period + 1) * (np.pi / j) / per_period
        ab = np.sqrt(beta_sq * (1.0 - beta_sq))
        values = c * (1.0 - 2.0 * beta_sq) + 2.0 * c * ab * np.cos(2.0 * j * tau + theta)
        series = TimeSeries(
            spacing=(np.pi / j) / per_period,
            exact_values=values,
            sampled_values=None,
            stderr_values=None,
            shots_per_point=0,
            observable_label="Z",
        )
        diag = diagnose(oscillation_stats(series, 2.0 * j), spec, z)
        worst = max(worst, abs(diag.beta_sq - beta_sq) / beta_sq)
    assert worst < 1e-4
    report(f"PASS criterion 6: worst relative beta_sq error over 1000 records {worst:.2e}")


def test_criterion_7_shot_noise_scaling(report):
    spec = model_one(1.0)
    plus = spec.reference_ground_state
    z = pauli("Z")
    # the first point of a two-point hold record is the prepared state itself
    estimates = [
        hold_series(plus, spec, z, 0.1, 0.1, 1_000_000, seed).sampled_values[0]
        for seed in range(100)
    ]
    std = float(np.std(estimates, ddof=1))
    assert 0.8e-3 < std < 1.2e-3
    report(f"PASS criterion 7: sample std {std:.3e} across 100 seeds (binomial 1.000e-03)")


def test_criterion_8_determinism(tmp_path, report):
    data = dict(PRESETS["fig2"])
    data["outputs"] = {"directory": str(tmp_path / "repeat")}
    cfg = config_from_dict(data)
    _, paths = run_and_write(cfg)
    first = {p.name: p.read_bytes() for p in paths}
    _, paths = run_and_write(cfg)
    second = {p.name: p.read_bytes() for p in paths}
    assert set(first) == {"series_Z.csv", "summary.json", "series_Z.svg"}
    assert first == second
    report("PASS criterion 8: repeated runs produce byte-identical CSV/JSON/SVG artifacts")
