from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adiaprep.analyze import OscillationStats, diagnose, oscillation_stats, predicted_series
from adiaprep.config import config_from_dict, load_config_file, preset_dict
from adiaprep.evolve import ResidualDecomposition, decompose
from adiaprep.measure import TimeSeries, hold_series
from adiaprep.model import HermitianOperator, model_one, model_two, observable_from_label, pauli
from adiaprep.runner import run_experiment

from _oracles import superposition_state

SQRT2 = np.sqrt(2.0)


def cosine_series(amplitude, offset, theta=0.0, omega=2.0, periods=4, per_period=32):
    """Series offset + amplitude*cos(omega*t + theta) tiling whole periods."""
    h = (2.0 * np.pi / omega) / per_period
    n = periods * per_period + 1
    t = np.arange(n) * h
    return TimeSeries(t, offset + amplitude * np.cos(omega * t + theta), None, None, 0, "Z")


def test_stats_of_constant_series():
    series = TimeSeries(np.arange(65) * 0.1, np.full(65, 0.7), None, None, 0, "Z")
    stats = oscillation_stats(series, 2.0)
    assert stats.mean_minmax == pytest.approx(0.7)
    assert stats.mean_arith == pytest.approx(0.7)
    assert stats.variance < 1e-30
    assert stats.peak_to_peak == 0.0


def test_stats_pure_cosine_on_commensurate_grid():
    # whole periods with an even number of samples per period: the minmax
    # midpoint is exactly zero and the variance exactly amplitude^2/2
    a = 0.35
    stats = oscillation_stats(cosine_series(a, 0.0, theta=0.0), 2.0)
    assert abs(stats.mean_minmax) < 1e-15
    assert abs(stats.mean_arith) < 1e-15
    assert stats.variance == pytest.approx(a * a / 2.0, abs=1e-15)
    assert stats.amplitude == pytest.approx(a, abs=1e-15)
    assert stats.peak_to_peak == pytest.approx(2.0 * a, abs=1e-15)
    assert stats.window_periods == 4
    assert stats.window_size == 128


def test_stats_offset_cosine_recovers_offset():
    stats = oscillation_stats(cosine_series(0.02, 0.71, theta=1.1), 2.0)
    assert stats.mean_minmax == pytest.approx(0.71, abs=1e-12)
    assert stats.mean_arith == pytest.approx(0.71, abs=1e-12)
    assert stats.variance == pytest.approx(0.02**2 / 2.0, abs=1e-12)


def test_stats_variance_identity_with_arbitrary_phase():
    # the phase shifts which points are sampled but not the whole-period sums
    for theta in (0.0, 0.3, 1.7, -2.2):
        stats = oscillation_stats(cosine_series(0.1, 0.5, theta=theta), 2.0)
        assert stats.variance == pytest.approx(0.005, abs=1e-14)
        assert stats.mean_arith == pytest.approx(0.5, abs=1e-14)


def test_stats_window_drops_partial_period():
    # 4.5 periods recorded: the window must keep exactly 4
    h = np.pi / 32.0
    n = 145  # 4.5 periods of 32 samples
    t = np.arange(n) * h
    series = TimeSeries(t, np.cos(2.0 * t), None, None, 0, "Z")
    stats = oscillation_stats(series, 2.0)
    assert stats.window_periods == 4
    assert stats.window_size == 128
    assert stats.variance == pytest.approx(0.5, abs=1e-14)


def test_stats_incommensurate_grid_is_close_but_not_exact():
    # 30.159... samples per period: identity holds only approximately
    h = 1.0 / 12.0
    n = 200
    t = np.arange(n) * h
    series = TimeSeries(t, np.cos(2.0 * t), None, None, 0, "Z")
    stats = oscillation_stats(series, 2.0)
    assert stats.variance == pytest.approx(0.5, rel=0.05)


def test_stats_rejects_short_windows_and_coarse_grids():
    series = cosine_series(0.1, 0.0)
    with pytest.raises(ValueError, match="at least one"):
        oscillation_stats(series, 0.4)  # period longer than the record
    h = 0.5  # about 6 samples per period at omega = 2
    t = np.arange(40) * h
    coarse = TimeSeries(t, np.cos(2.0 * t), None, None, 0, "Z")
    with pytest.raises(ValueError, match="samples per period"):
        oscillation_stats(coarse, 2.0)


def test_stats_channel_selection():
    t = np.arange(65) * (np.pi / 32.0)
    exact = np.cos(2.0 * t)
    sampled = exact + 0.01
    series = TimeSeries(t, exact, sampled, np.full(65, 0.01), 100, "Z")
    stats = oscillation_stats(series, 2.0, channel="sampled")
    assert stats.mean_arith == pytest.approx(0.01, abs=1e-14)
    with pytest.raises(ValueError, match="channel"):
        oscillation_stats(series, 2.0, channel="both")
    bare = TimeSeries(t, exact, None, None, 0, "Z")
    with pytest.raises(ValueError, match="no sampled channel"):
        oscillation_stats(bare, 2.0, channel="sampled")


def test_stats_rejects_nonpositive_frequency():
    with pytest.raises(ValueError, match="angular_frequency"):
        oscillation_stats(cosine_series(0.1, 0.0), 0.0)


def test_stats_dataclass_guards():
    stats = OscillationStats(0.0, 0.0, 0.005, 0.2, 0.1, 4, 128)
    assert stats.variance <= stats.amplitude**2
    with pytest.raises(ValueError, match="inconsistent"):
        OscillationStats(0.0, 0.0, 0.5, 0.2, 0.1, 4, 128)
    with pytest.raises(ValueError, match="nonnegative"):
        OscillationStats(0.0, 0.0, -0.1, 0.2, 0.1, 4, 128)


MODEL1 = model_one(1.0)
MODEL2 = model_two(np.pi / 4.0)
Z = pauli("Z")


def test_anticommuting_worked_example():
    # variance 7.30e-4 -> 2*beta_sq ~ 7.303e-4, predicted conserved value
    # -1 + 2*beta_sq ~ -0.999270
    amplitude = np.sqrt(2.0 * 0.000730)
    stats = oscillation_stats(cosine_series(amplitude, 0.0, theta=0.4), 2.0)
    diag = diagnose(stats, MODEL1, Z)
    assert 2.0 * diag.beta_sq_shortcut == pytest.approx(0.000730, abs=1e-12)
    assert 2.0 * diag.beta_sq == pytest.approx(0.0007302666446862283, abs=1e-9)
    assert diag.predicted_conserved == pytest.approx(-0.999270, abs=1e-6)
    assert diag.reference_value == 0.0
    assert diag.corrected_value == diag.raw_average
    assert diag.model_kind == "anticommuting"
    # root vs shortcut agree to relative error < 2*beta_sq
    rel = abs(diag.beta_sq - diag.beta_sq_shortcut) / diag.beta_sq
    assert rel < 2.0 * diag.beta_sq


def test_anticommuting_zero_variance_means_vacuum():
    series = TimeSeries(np.arange(65) * (np.pi / 32.0), np.zeros(65), None, None, 0, "Z")
    diag = diagnose(oscillation_stats(series, 2.0), MODEL1, Z)
    assert diag.beta_sq == 0.0
    assert diag.predicted_conserved == pytest.approx(-1.0)


def test_anticommuting_rejects_equal_superposition():
    # amplitude 1 means |ab| = 1/2: no vacuum-dominated root exists
    stats = oscillation_stats(cosine_series(1.0, 0.0), 2.0)
    with pytest.raises(ValueError, match="not dominated"):
        diagnose(stats, MODEL1, Z)


def test_anticommuting_noise_floor_subtraction():
    amplitude = np.sqrt(2.0 * 4e-4)
    stats = oscillation_stats(cosine_series(amplitude, 0.0), 2.0)
    diag = diagnose(stats, MODEL1, Z, noise_floor=1e-4)
    assert diag.alpha_beta_sq == pytest.approx((4e-4 - 1e-4) / 2.0, abs=1e-12)
    assert diag.noise_floor == 1e-4
    # a floor larger than the variance clamps to zero excitation
    flat = diagnose(stats, MODEL1, Z, noise_floor=1.0)
    assert flat.beta_sq == 0.0
    with pytest.raises(ValueError, match="noise_floor"):
        diagnose(stats, MODEL1, Z, noise_floor=-1e-4)


def test_general_worked_example():
    # raw 0.706690 with variance 3.222e-4 -> beta_sq ~ 3.223e-4 and the
    # corrected average 0.707146, back at 1/sqrt(2) to within 4e-5
    c = 1.0 / SQRT2
    amplitude = np.sqrt(2.0 * 0.0003222)
    stats = oscillation_stats(cosine_series(amplitude, 0.706690, theta=0.25), 2.0)
    diag = diagnose(stats, MODEL2, Z)
    assert diag.beta_sq_shortcut == pytest.approx(0.0003222, abs=1e-10)
    assert diag.beta_sq == pytest.approx(0.0003223, abs=5e-8)
    assert diag.raw_average == pytest.approx(0.706690, abs=1e-9)
    assert diag.corrected_value == pytest.approx(0.7071458316902636, abs=1e-9)
    assert diag.corrected_value == pytest.approx(0.707145, abs=2e-6)
    assert abs(diag.corrected_value - c) < abs(diag.raw_average - c) / 10.0
    assert diag.reference_value == pytest.approx(c)
    assert diag.model_kind == "general"


def test_general_zero_variance_leaves_average_unchanged():
    series = TimeSeries(np.arange(65) * (np.pi / 32.0), np.full(65, 0.7), None, None, 0, "Z")
    diag = diagnose(oscillation_stats(series, 2.0), MODEL2, Z)
    assert diag.beta_sq == 0.0
    assert diag.corrected_value == diag.raw_average == pytest.approx(0.7)


def test_general_synthetic_recovery():
    # build the record straight from the closed form and recover beta_sq
    c = 1.0 / SQRT2
    b_sq = 0.01
    ab = np.sqrt((1.0 - b_sq) * b_sq)
    offset = c * (1.0 - 2.0 * b_sq)
    amplitude = 2.0 * c * ab
    stats = oscillation_stats(cosine_series(amplitude, offset, theta=-0.7), 2.0)
    diag = diagnose(stats, MODEL2, Z)
    assert diag.beta_sq == pytest.approx(b_sq, rel=1e-9)
    assert diag.corrected_value == pytest.approx(c, abs=1e-12)


def test_zero_ground_element_subtracts_the_excited_offset():
    # Z plus model1's excited-state projector: O_gg = 0, O_ee = 1, O_ge = 1, so
    # the record beats around b^2 and the correction subtracts b^2*O_ee
    observable = HermitianOperator(Z.matrix + np.array([[0.5, -0.5], [-0.5, 0.5]]), "Z+P")
    b_sq = 0.01
    ab = np.sqrt((1.0 - b_sq) * b_sq)
    stats = oscillation_stats(cosine_series(2.0 * ab, b_sq, theta=0.6), 2.0)
    diag = diagnose(stats, MODEL1, observable)
    assert diag.beta_sq == pytest.approx(b_sq, rel=1e-9)
    assert diag.raw_average == pytest.approx(b_sq, abs=1e-12)
    assert diag.corrected_value == pytest.approx(0.0, abs=1e-12)
    assert diag.reference_value == 0.0
    assert diag.model_kind == "general"
    assert diag.predicted_conserved is None


def test_non_beating_observable_reports_no_weight():
    # the excited-state projector has O_ge = 0: its record cannot beat, so
    # even a variance that would mean weight >= 1/2 for a beating one gives 0
    projector = HermitianOperator(np.array([[0.5, -0.5], [-0.5, 0.5]]), "P")
    stats = oscillation_stats(cosine_series(1.0, 0.3), 2.0)
    diag = diagnose(stats, MODEL1, projector)
    assert diag.beta_sq == 0.0
    assert diag.alpha_beta_sq == pytest.approx(0.25, abs=1e-15)
    assert diag.corrected_value == diag.raw_average
    assert diag.reference_value == 0.0


def test_general_negative_offset_scale():
    # a conserved observable with <g|O|g> = -1: flat record, no correction
    series = TimeSeries(np.arange(65) * (np.pi / 32.0), np.full(65, -0.9998), None, None, 0, "-X")
    diag = diagnose(oscillation_stats(series, 2.0), MODEL1, observable_from_label("-X"))
    assert diag.beta_sq == 0.0
    assert diag.corrected_value == pytest.approx(-0.9998)
    assert diag.reference_value == pytest.approx(-1.0, abs=1e-15)


def test_mean_estimator_selection():
    # put a spike into one point: minmax feels it, the window mean barely does
    t = np.arange(129) * (np.pi / 32.0)
    values = 0.5 + 0.01 * np.cos(2.0 * t)
    values[3] += 0.05
    series = TimeSeries(t, values, None, None, 0, "Z")
    stats = oscillation_stats(series, 2.0)
    minmax = diagnose(stats, MODEL2, Z, mean_estimator="minmax")
    arith = diagnose(stats, MODEL2, Z, mean_estimator="arith")
    assert minmax.raw_average != pytest.approx(arith.raw_average, abs=1e-4)
    with pytest.raises(ValueError, match="mean_estimator"):
        diagnose(stats, MODEL2, Z, mean_estimator="median")


@settings(max_examples=60, deadline=None)
@given(
    b_sq=st.floats(1e-6, 0.2),
    theta=st.floats(-3.1, 3.1),
    offset_scale=st.floats(0.2, 1.5),
)
def test_general_recovery_property(b_sq, theta, offset_scale):
    ab = np.sqrt((1.0 - b_sq) * b_sq)
    series = cosine_series(2.0 * offset_scale * ab, offset_scale * (1.0 - 2.0 * b_sq), theta=theta)
    # scaled so that on model2's reference pair O_gg = offset_scale = -O_ee = |O_ge|
    observable = HermitianOperator(offset_scale * SQRT2 * Z.matrix, "Z")
    diag = diagnose(oscillation_stats(series, 2.0), MODEL2, observable)
    assert diag.beta_sq == pytest.approx(b_sq, rel=1e-6, abs=1e-12)
    assert diag.corrected_value == pytest.approx(offset_scale, rel=1e-9)


ANTICOMMUTING = {("model1", "Z"), ("model1", "Y"), ("model2", "Y")}


@pytest.mark.parametrize("label", ["Z", "-Z", "X", "-X", "Y", "-Y", "H", "-H"])
@pytest.mark.parametrize("model", ["model1", "model2"])
def test_diagnose_picks_the_case_from_the_reference_pair(model, label):
    spec = {"model1": model_one, "model2": model_two}[model](1.0)
    observable = observable_from_label(label)
    series = TimeSeries(np.arange(65) * (np.pi / 32.0), np.zeros(65), None, None, 0, label)
    diag = diagnose(oscillation_stats(series, 2.0), spec, observable)
    g = spec.reference_ground_state
    if (model, label.lstrip("-")) in ANTICOMMUTING:
        assert diag.model_kind == "anticommuting"
        assert diag.reference_value == 0.0
    else:
        assert diag.model_kind == "general"
        assert diag.reference_value == np.vdot(g, observable.matrix @ g).real


def test_predicted_series_flat_for_pure_ground_state():
    spec1 = model_one(1.0)
    spec2 = model_two(np.pi / 4.0)
    t = np.arange(65) * 0.125
    dec1 = decompose(spec1.reference_ground_state, spec1)
    assert np.max(np.abs(predicted_series(dec1, spec1, t, pauli("Z")).exact_values)) < 1e-15
    minus_x = observable_from_label("-X")
    assert np.allclose(predicted_series(dec1, spec1, t, minus_x).exact_values, -1.0)
    dec2 = decompose(spec2.reference_ground_state, spec2)
    assert np.allclose(predicted_series(dec2, spec2, t, pauli("Z")).exact_values, 1.0 / SQRT2)


def test_predicted_series_matches_hold_record():
    # the two-level formula vs actual propagation of the same decomposition
    for spec in (model_one(1.0), model_two(np.pi / 4.0)):
        psi = superposition_state(spec, 0.12, 0.9)
        for label in ("Z", "-X", "Y"):
            observable = observable_from_label(label)
            series = hold_series(psi, spec, observable, 8.0, 0.125, 0, 0)
            predicted = predicted_series(decompose(psi, spec), spec, series.times, observable)
            assert np.max(np.abs(predicted.exact_values - series.exact_values)) < 1e-13


def test_predicted_series_rejects_a_dimension_mismatch():
    spec = model_one(1.0)
    dec = decompose(spec.reference_ground_state, spec)
    big = HermitianOperator(np.eye(3), "big")
    with pytest.raises(ValueError, match=r"observable 'big' dimension 3 != model dimension 2"):
        predicted_series(dec, spec, np.arange(65) * 0.125, big)


def _json_matrix(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _beside_seeded_block(top, rng):
    """top beside a seeded Hermitian 6x6 block whose spectrum sits in [2, 4]."""
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    block = (g + g.conj().T) / 2.0
    m = np.zeros((8, 8), dtype=np.complex128)
    m[:2, :2] = top
    m[2:, 2:] = block / np.linalg.norm(block) + 3.0 * np.eye(6)
    return _json_matrix(m)


# CI's 3x3 inline config, with its own grid and observables A, B and D
THREE_LEVEL = load_config_file(Path(__file__).parent / "data" / "inline3.json")


def _wide_inline():
    # fig2's 2x2 block beside seeded 6x6 blocks, shaped like the wide inline benchmark
    rng = np.random.default_rng(3)
    z = pauli("Z").matrix
    return {
        "model": {
            "initial": _beside_seeded_block(-z, rng),
            "target": _beside_seeded_block(-pauli("H").matrix, rng),
        },
        "total_time": 9.0,
        "observables": [{"label": "Z", "matrix": _json_matrix(np.diag([1, -1, 0, 0, 0, 0, 0, 0]))}],
    }


@pytest.mark.parametrize(
    "preset, overrides",
    [
        ("fig1a", {}),
        ("fig1b", {}),
        ("fig2", {}),
        ("fig1a", {"observables": ["Y"]}),
        ("fig1a", THREE_LEVEL),
        ("fig2", _wide_inline()),
    ],
    ids=["fig1a-Z", "fig1b-minusX", "fig2-Z", "model1-Y", "inline-3x3", "inline-8x8"],
)
def test_every_observable_gets_a_prediction_that_matches_its_record(preset, overrides):
    data = {**preset_dict(preset), **overrides, "shots": 0}
    data["outputs"] = {"directory": "unused", "csv": False, "json": False, "svg": False}
    result = run_experiment(config_from_dict(data))
    assert result.predictions.keys() == result.series.keys()
    assert len(result.series) == len(data["observables"])
    for label, series in result.series.items():
        predicted = result.predictions[label]
        np.testing.assert_array_equal(predicted.times, series.times)
        assert np.max(np.abs(predicted.exact_values - series.exact_values)) <= 1e-13, label


RECOVERY_SPECS = {
    "model1": MODEL1,
    "model2": MODEL2,
    "inline-3x3": config_from_dict({**preset_dict("fig1a"), **THREE_LEVEL}).build_model(),
}


@settings(max_examples=100, deadline=None)
@given(
    model=st.sampled_from(sorted(RECOVERY_SPECS)),
    seed=st.integers(0, 2**32 - 1),
    b_sq=st.floats(1e-6, 0.2),
    theta=st.floats(-3.1, 3.1),
)
def test_diagnose_recovers_the_weight_for_any_observable(model, seed, b_sq, theta):
    # a random Hermitian observable's two-level record, over whole periods,
    # gives back the weight and the ground-state value O_gg
    spec = RECOVERY_SPECS[model]
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((spec.dim, spec.dim)) + 1j * rng.standard_normal((spec.dim, spec.dim))
    observable = HermitianOperator((m + m.conj().T) / 2.0, "O")
    decomposition = ResidualDecomposition(np.sqrt(1.0 - b_sq), np.sqrt(b_sq), theta, b_sq)
    omega = spec.oscillation_angular_frequency
    times = np.arange(4 * 32 + 1) * (2.0 * np.pi / omega / 32)
    series = predicted_series(decomposition, spec, times, observable)
    diag = diagnose(oscillation_stats(series, omega), spec, observable)
    g = spec.reference_ground_state
    assert diag.beta_sq == pytest.approx(b_sq, rel=1e-9)
    assert diag.corrected_value == pytest.approx(np.vdot(g, observable.matrix @ g).real, rel=1e-9, abs=1e-9)
