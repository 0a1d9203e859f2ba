import tracemalloc
import types

import numpy as np
import pytest

from adiaprep import measure
from adiaprep.evolve import run_adiabatic
from adiaprep.linalg import eig_hermitian
from adiaprep.measure import (
    TimeSeries,
    _HoldGridError,
    _hold_intervals,
    _sample_means,
    _shot_stream,
    hold_series,
)
from adiaprep.model import (
    AdiabaticSchedule,
    HermitianOperator,
    ModelSpec,
    model_one,
    model_two,
    observable_from_label,
    pauli,
)
from adiaprep.runner import _write_series_csv

from _oracles import expm_minus_i, heisenberg_z_closed_form, superposition_state

SQRT2 = np.sqrt(2.0)


def _random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def _loop_sample_means(states, es, shots, gen):
    """Reference: one multinomial draw and one set of dot products per state."""
    lam = es.eigenvalues
    means, stderr = [], []
    for w in states:
        p = np.abs(es.eigenvectors.conj().T @ w) ** 2
        p = p / p.sum()
        counts = gen.multinomial(shots, p)
        means.append(float(counts @ lam) / shots)
        variance = float(p @ lam**2) - float(p @ lam) ** 2
        stderr.append(np.sqrt(max(variance, 0.0) / shots))
    return np.array(means), np.array(stderr)


def test_sample_means_stack_draws_row_by_row_from_one_stream():
    rng = np.random.default_rng(11)
    for dim in (2, 3):
        es = eig_hermitian(_random_hermitian(rng, dim))
        states = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        means, stderr = _sample_means(states, es, 1000, np.random.default_rng(4))
        gen = np.random.default_rng(4)
        rows = [_sample_means(states[k : k + 1], es, 1000, gen) for k in range(dim)]
        assert np.array_equal(means, np.concatenate([m for m, _ in rows]))
        assert np.array_equal(stderr, np.concatenate([e for _, e in rows]))
        loop_means, loop_stderr = _loop_sample_means(states, es, 1000, np.random.default_rng(4))
        assert np.array_equal(means, loop_means)
        assert np.array_equal(stderr, loop_stderr)


def test_sampler_streams_differ_by_label():
    a = _shot_stream(123, "Z").integers(0, 1 << 30, size=4)
    b = _shot_stream(123, "-X").integers(0, 1 << 30, size=4)
    c = _shot_stream(123, "Z").integers(0, 1 << 30, size=4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def test_time_series_validation():
    y = np.zeros(3)
    for spacing in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="spacing must be positive"):
            TimeSeries(spacing, y, None, None, 0, "Z")
    with pytest.raises(ValueError, match="shape"):
        TimeSeries(0.1, y, np.zeros(4), None, 0, "Z")
    with pytest.raises(ValueError, match="at least two"):
        TimeSeries(0.1, np.zeros(1), None, None, 0, "Z")
    series = TimeSeries(0.1, y, None, None, 0, "Z")
    assert series.n_points == 3
    assert series.spacing == pytest.approx(0.1)


def hold_fixture(shots=0, seed=5):
    spec = model_one(1.0)
    psi = superposition_state(spec, 0.2, 0.3)
    series = hold_series(
        psi, spec, pauli("Z"), 4.0 * np.pi, np.pi / 32.0, shots, seed
    )
    return spec, series


def test_hold_series_grid():
    _, series = hold_fixture()
    assert series.n_points == 129
    assert series.times[0] == 0.0
    assert series.spacing == pytest.approx(np.pi / 32.0)
    assert series.sampled_values is None
    assert series.stderr_values is None


def test_hold_series_ground_state_is_flat():
    spec = model_one(1.0)
    series = hold_series(
        spec.reference_ground_state, spec, pauli("Z"), 2.0, 0.1, 0, 0
    )
    assert np.max(np.abs(series.exact_values)) < 1e-13


def test_hold_series_matches_two_level_cosine():
    # <Z>(t) = 2|ab|cos(2Jt + theta) for a residual b*e^{-i theta} admixture
    spec = model_one(1.0)
    b, theta = 0.11, -0.9
    psi = superposition_state(spec, b, theta)
    series = hold_series(psi, spec, pauli("Z"), 4.0, 0.05, 0, 0)
    ab = np.sqrt(1.0 - b * b) * b
    expected = 2.0 * ab * np.cos(2.0 * series.times + theta)
    assert np.max(np.abs(series.exact_values - expected)) < 1e-12


def test_hold_series_offset_cosine_for_hadamard_model():
    # <Z>(t) = (1-2b^2)/sqrt(2) + sqrt(2)|ab|cos(2Jt + theta)
    spec = model_two(np.pi / 4.0)
    b, theta = 0.09, 1.2
    psi = superposition_state(spec, b, theta)
    series = hold_series(psi, spec, pauli("Z"), 8.0, 1.0 / 24.0, 0, 0)
    ab = np.sqrt(1.0 - b * b) * b
    expected = (1.0 - 2.0 * b * b) / SQRT2 + SQRT2 * ab * np.cos(
        np.pi / 2.0 * series.times + theta
    )
    assert np.max(np.abs(series.exact_values - expected)) < 1e-12


def test_hold_series_conserved_observable_is_constant():
    spec, _ = hold_fixture()
    psi = superposition_state(spec, 0.2, 0.3)
    series = hold_series(
        psi, spec, observable_from_label("-X"), 4.0 * np.pi, np.pi / 32.0, 0, 0
    )
    assert np.max(series.exact_values) - np.min(series.exact_values) < 1e-12
    assert series.exact_values[0] == pytest.approx(-1.0 + 2.0 * 0.04, abs=1e-12)


def test_hold_series_beat_frequency_sits_in_the_right_bin():
    _, series = hold_fixture()
    n = series.n_points - 1  # whole periods: drop the repeated endpoint
    values = series.exact_values[:n] - np.mean(series.exact_values[:n])
    spectrum = np.abs(np.fft.rfft(values))
    k_peak = int(np.argmax(spectrum[1:])) + 1
    bin_width = 2.0 * np.pi / (n * series.spacing)
    assert abs(k_peak * bin_width - 2.0) <= bin_width


def test_hold_series_sampled_channel_and_stderr():
    spec, series = hold_fixture(shots=40_000)
    assert series.sampled_values is not None
    assert series.stderr_values is not None
    assert series.shots_per_point == 40_000
    # stderr for a +-1-valued measurement is sqrt((1-<Z>^2)/shots)
    expected = np.sqrt((1.0 - series.exact_values**2) / 40_000.0)
    assert np.max(np.abs(series.stderr_values - expected)) < 1e-12
    # sampled values track the exact curve at the few-sigma level
    pulls = (series.sampled_values - series.exact_values) / series.stderr_values
    assert np.max(np.abs(pulls)) < 6.0


def test_hold_series_sampling_is_deterministic():
    _, a = hold_fixture(shots=1000, seed=9)
    _, b = hold_fixture(shots=1000, seed=9)
    _, c = hold_fixture(shots=1000, seed=10)
    assert np.array_equal(a.sampled_values, b.sampled_values)
    assert not np.array_equal(a.sampled_values, c.sampled_values)


def test_hold_series_repeats_on_one_sampler():
    # each call draws from the label's stream afresh, so one seed repeats
    spec = model_one(1.0)
    psi = superposition_state(spec, 0.2, 0.3)
    first, second = (
        hold_series(psi, spec, pauli("Z"), 1.0, 0.1, 1000, 1).sampled_values for _ in range(2)
    )
    assert np.array_equal(first, second)


def test_hold_series_samples_an_eigenstate_exactly():
    # the ground state of model1's target is an eigenstate of the conserved -X
    spec = model_one(1.0)
    series = hold_series(
        spec.reference_ground_state, spec, observable_from_label("-X"), 2.0, 0.1, 1000, 3
    )
    # every shot lands on the one eigenvalue, up to the eigensolve's rounding
    assert np.all(series.sampled_values == series.sampled_values[0])
    assert series.sampled_values[0] == pytest.approx(-1.0, abs=1e-15)
    assert np.all(series.stderr_values == 0.0)


def _three_level_spec():
    target = np.array(
        [[-1.0, 0.3, 0.1j], [0.3, 0.2, 0.25], [-0.1j, 0.25, 0.9]], dtype=complex
    )
    _, vecs = np.linalg.eigh(target)
    return ModelSpec(
        HermitianOperator(np.diag([-1.0, 0.0, 1.0]).astype(complex), "H0"),
        HermitianOperator(target, "HT"),
        (),
        vecs[:, 0],
        vecs[:, 1],
    )


def test_hold_series_exact_channel_matches_propagator_at_every_point():
    rng = np.random.default_rng(8)
    two = model_two(np.pi / 4.0)
    cases = [
        (two, run_adiabatic(two, AdiabaticSchedule(9.0, 1.0 / 24.0)), pauli("Z")),
        (model_one(1.0), superposition_state(model_one(1.0), 0.2, 0.3), pauli("Z")),
    ]
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    o3 = HermitianOperator(_random_hermitian(rng, 3), "O")
    cases.append((_three_level_spec(), psi / np.linalg.norm(psi), o3))
    for spec, v, o in cases:
        series = hold_series(v, spec, o, 6.0, 0.125, 0, 0)
        es = eig_hermitian(spec.target.matrix)
        coeff = es.eigenvectors.conj().T @ v
        for k, t in enumerate(series.times):
            w = expm_minus_i(spec.target.matrix, t) @ v
            assert abs(series.exact_values[k] - np.vdot(w, o.matrix @ w).real) < 1e-14
            # the same arithmetic as propagating this one point on its own
            w = es.eigenvectors @ (np.exp(-1j * es.eigenvalues * t) * coeff)
            assert series.exact_values[k] == np.vdot(w, o.matrix @ w).real


def test_hold_series_rejects_imaginary_residue():
    # HermitianOperator rejects such a matrix, so a stand-in reaches the guard
    spec = model_one(1.0)
    non_hermitian = types.SimpleNamespace(
        label="N", dim=2, matrix=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    )
    psi = superposition_state(spec, 0.2, 0.3)
    with pytest.raises(ArithmeticError, match="imaginary residue"):
        hold_series(psi, spec, non_hermitian, 1.0, 0.1, 0, 0)


def test_hold_series_validation():
    spec = model_one(1.0)
    psi = spec.reference_ground_state
    with pytest.raises(ValueError, match="duration"):
        hold_series(psi, spec, pauli("Z"), 0.0, 0.1, 0, 0)
    with pytest.raises(ValueError, match="sample_dt"):
        hold_series(psi, spec, pauli("Z"), 1.0, -0.1, 0, 0)
    for shots in (-1, 2.5, 3.0, True, np.bool_(True)):
        with pytest.raises(ValueError, match="shots"):
            hold_series(psi, spec, pauli("Z"), 1.0, 0.1, shots, 0)
    for shots in (3, np.int64(3), np.uint8(3)):
        assert hold_series(psi, spec, pauli("Z"), 1.0, 0.1, shots, 0).shots_per_point == 3
    with pytest.raises(ValueError, match="shorter than one sample interval"):
        hold_series(psi, spec, pauli("Z"), 0.04, 0.1, 0, 0)


def test_hold_intervals_is_the_one_hold_grid_check():
    # 2^53 is the largest count whose grid indices are all exact doubles
    assert _hold_intervals(2.0**53, 1.0) == 2**53
    cases = [
        ((2.0**54, 1.0), "too many sample intervals", ("hold_duration", "sample_dt")),
        ((0.04, 0.1), r"must exceed half a sample_dt of 0\.1 \(got 0\.04\): "
         "the hold is shorter than one sample interval", ("hold_duration",)),
        ((10**400, 1.0), "duration must be positive", ("hold_duration",)),
        ((1.0, float("nan")), "sample_dt must be positive", ("sample_dt",)),
    ]
    for args, message, fields in cases:
        with pytest.raises(_HoldGridError, match=message) as info:
            _hold_intervals(*args)
        assert info.value.fields == fields


SERIES_FIELDS = ("times", "exact_values", "sampled_values", "stderr_values")


def _bits(series):
    return [None if a is None else a.tobytes() for a in (getattr(series, f) for f in SERIES_FIELDS)]


@pytest.mark.parametrize("shots", [0, 1000])
@pytest.mark.parametrize("dim", [2, 3])
def test_hold_series_blocks_keep_every_bit(monkeypatch, dim, shots):
    rng = np.random.default_rng(21)
    if dim == 2:
        spec = model_two(np.pi / 4.0)
        v, o = superposition_state(spec, 0.3, 0.7), pauli("Z")
    else:
        spec = _three_level_spec()
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v, o = v / np.linalg.norm(v), HermitianOperator(_random_hermitian(rng, 3), "O")
    block = measure._HOLD_BLOCK
    dt = 1.0 / 16.0
    for points in (block - 1, block, block + 1, 2 * block + 1):
        blocked = hold_series(v, spec, o, (points - 1) * dt, dt, shots, 7)
        assert blocked.n_points == points
        with monkeypatch.context() as m:
            m.setattr(measure, "_HOLD_BLOCK", 4 * block)
            whole = hold_series(v, spec, o, (points - 1) * dt, dt, shots, 7)
        assert _bits(blocked) == _bits(whole), points
        assert (blocked.sampled_values is None) == (shots == 0)


def test_hold_series_reports_the_largest_residue_of_the_whole_record(monkeypatch):
    # <v|i*eps*Z|v> = i*eps*<Z> with <Z>(t) = sin(2t - 0.5) for this state: the
    # residue stays under the 1e-12 tolerance over the first block, peaks at
    # eps in the second and falls off in the third
    block = measure._HOLD_BLOCK
    eps = 1.5e-12
    spec = model_one(1.0)
    psi = superposition_state(spec, np.sqrt(0.5), -0.5 - np.pi / 2.0)
    stand_in = types.SimpleNamespace(label="N", dim=2, matrix=1j * eps * pauli("Z").matrix)
    dt = 1.1 / (2.0 * block)
    hold_series(psi, spec, stand_in, (block - 1) * dt, dt, 0, 0)
    with pytest.raises(ArithmeticError, match="imaginary residue") as blocked:
        hold_series(psi, spec, stand_in, 2 * block * dt, dt, 0, 0)
    with monkeypatch.context() as m:
        m.setattr(measure, "_HOLD_BLOCK", 4 * block)
        with pytest.raises(ArithmeticError, match="imaginary residue") as whole:
            hold_series(psi, spec, stand_in, 2 * block * dt, dt, 0, 0)
    assert str(blocked.value) == str(whole.value)
    times = np.arange(2 * block + 1) * dt
    largest = eps * np.max(np.abs(np.sin(2.0 * times - 0.5)))
    assert np.argmax(np.abs(np.sin(2.0 * times - 0.5))) // block == 1
    assert str(blocked.value).endswith(f"{largest:.3e}")


def test_long_hold_memory_stays_within_a_few_blocks(tmp_path):
    # the whole-grid record took about 280 B per point beyond the returned
    # arrays; blocks bound that to what a few blocks take, however long the hold
    spec = model_one(1.0)
    psi = superposition_state(spec, 0.2, 0.3)
    dt = 1.0 / 16.0
    # first calls allocate caches that later calls reuse: keep them out of the peak
    warm = hold_series(psi, spec, pauli("Z"), 1.0, dt, 1000, 5)
    _write_series_csv(tmp_path / "warm.csv", warm, 9.0)
    tracemalloc.start()
    try:
        series = hold_series(psi, spec, pauli("Z"), 100_000 * dt, dt, 1000, 5)
        _write_series_csv(tmp_path / "long.csv", series, 9.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert series.n_points == 100_001
    returned = sum(getattr(series, f).nbytes for f in SERIES_FIELDS)
    allowance = 4 * measure._HOLD_BLOCK * 256
    assert peak <= returned + allowance, (peak, returned)


def test_hold_past_t_8192_keeps_its_grid():
    # past t = 2^13 one ulp of t is 1.8e-12, more than a 1e-12 spacing tolerance allows
    spec = model_one(1.0)
    series = hold_series(spec.reference_ground_state, spec, pauli("Z"), 1e4, 0.1, 0, 0)
    assert series.n_points == 100_001
    assert series.times[-1] == 100_000 * 0.1


def test_heisenberg_z_closed_form_at_zero_is_z():
    op = heisenberg_z_closed_form(0.0, np.pi / 4.0)
    assert np.max(np.abs(op.matrix - pauli("Z").matrix)) < 1e-14


def test_heisenberg_z_closed_form_matches_conjugation():
    # (1/sqrt2)H - (1/sqrt2)Y sin(2Jt) + (1/2)(Z-X)cos(2Jt) = U^dag Z U
    j = np.pi / 4.0
    target = -j * pauli("H").matrix
    rng = np.random.default_rng(2)
    for t in rng.uniform(0.0, 20.0, size=20):
        u = expm_minus_i(target, t)
        conjugated = u.conj().T @ pauli("Z").matrix @ u
        closed = heisenberg_z_closed_form(t, j).matrix
        assert np.max(np.abs(closed - conjugated)) < 1e-12


def test_heisenberg_form_reproduces_hold_record_from_initial_state():
    # Schrodinger and Heisenberg pictures must give the same record
    spec = model_two(np.pi / 4.0)
    psi = run_adiabatic(spec, AdiabaticSchedule(9.0, 1.0 / 24.0))
    series = hold_series(psi, spec, pauli("Z"), 4.0, 0.25, 0, 0)
    for k, t in enumerate(series.times):
        z_t = heisenberg_z_closed_form(t, np.pi / 4.0).matrix
        heisenberg = np.vdot(psi, z_t @ psi).real
        assert heisenberg == pytest.approx(series.exact_values[k], abs=1e-12)
