import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adiaprep import evolve
from adiaprep.evolve import (
    INTEGRATORS,
    ResidualDecomposition,
    decompose,
    initial_state,
    run_adiabatic,
)
from adiaprep.model import AdiabaticSchedule, HermitianOperator, ModelSpec, model_one, model_two, pauli

from _oracles import expm_minus_i, landau_zener_propagator, superposition_state

SQRT2 = np.sqrt(2.0)

# cross-checked against an independent dense-eigensolver implementation
FIG1A_TWO_BETA_SQ_TROTTER = 2.3634946453370516e-04
FIG1A_TWO_BETA_SQ_EXACT = 2.3852620837236520e-04
FIG1A_THETA = 0.9481978753673791
FIG2_BETA_SQ_TROTTER = 1.5344038392404885e-04
FIG2_BETA_SQ_EXACT = 1.5346368796897628e-04


def step(integrator, v, spec, sched, t_start):
    """One step of the ramp's own loop over [t_start, t_start + step_width]."""
    k = round(t_start / sched.step_width)
    assert k * sched.step_width == t_start
    return np.array(evolve._ramp(list(v), spec, sched, integrator, range(k, k + 1)))


def fig1a_setup():
    return model_one(1.0), AdiabaticSchedule(36.0, 0.125)


def fig2_setup():
    return model_two(np.pi / 4.0), AdiabaticSchedule(36.0, 1.0 / 24.0)


def test_initial_state_is_ground_of_initial_hamiltonian():
    spec = model_one(1.0)
    v = initial_state(spec)
    # ground of -J*Z is |0>
    assert np.allclose(v, [1.0, 0.0], atol=1e-14)


def test_evolve_exact_identity_at_zero_time():
    spec = model_two(1.0)
    v = initial_state(spec)
    assert np.allclose(expm_minus_i(spec.target.matrix, 0.0) @ v, v, atol=1e-14)


def test_evolve_exact_ground_state_phase():
    # e^{-i(-JX)t}|+> = e^{+iJt}|+>
    spec = model_one(1.0)
    plus = spec.reference_ground_state
    w = expm_minus_i(spec.target.matrix, 1.7) @ plus
    assert np.vdot(plus, w) == pytest.approx(np.exp(1.7j), abs=1e-12)


def test_evolve_exact_two_level_oscillation():
    # hold a known superposition and compare <Z> against 2|ab|cos(2Jt+theta)
    spec = model_one(1.0)
    b, theta = 0.3, 0.8
    v = superposition_state(spec, b, theta)
    z = pauli("Z").matrix
    ab = np.sqrt(1.0 - b * b) * b
    for t in (0.0, 0.4, 1.1, 2.9):
        w = expm_minus_i(spec.target.matrix, t) @ v
        expected = 2.0 * ab * np.cos(2.0 * t + theta)
        assert np.vdot(w, z @ w).real == pytest.approx(expected, abs=1e-12)


def test_trotter_step_reduces_to_initial_hamiltonian_at_frozen_ramp():
    # with s pinned at ~0 the split step is a pure initial-Hamiltonian step
    spec = model_one(1.0)
    sched = AdiabaticSchedule(1e12, 0.125)
    v = np.array([0.6, 0.8], dtype=complex)
    stepped = step("trotter2", v, spec, sched, 0.0)
    exact = expm_minus_i(spec.initial.matrix, 0.125) @ v
    assert np.max(np.abs(stepped - exact)) < 1e-12


def test_trotter_step_exact_when_parts_commute():
    # commuting initial and target parts make the split error vanish
    z = pauli("Z")
    h0 = HermitianOperator(-z.matrix, "-Z")
    ht = HermitianOperator(-2.0 * z.matrix, "-2Z")
    down = np.array([0.0, 1.0], dtype=complex)
    up = np.array([1.0, 0.0], dtype=complex)
    spec = ModelSpec(h0, ht, (), up, down)
    sched = AdiabaticSchedule(4.0, 0.5)
    v = np.array([0.6, 0.8j], dtype=complex)
    split = step("trotter2", v, spec, sched, 1.0)
    exact = step("exact-midpoint", v, spec, sched, 1.0)
    assert np.max(np.abs(split - exact)) < 1e-12


def test_trotter_single_step_local_error_is_third_order():
    # one step from mid-ramp: halving dt must shrink the one-step error ~8x
    spec = model_one(1.0)
    v = np.array([1.0, 0.0], dtype=complex)
    t0 = 18.0
    errors = []
    for dt in (0.5, 0.25, 0.125, 0.0625):
        sched = AdiabaticSchedule(36.0, dt)
        coarse = step("trotter2", v, spec, sched, t0)
        fine_sched = AdiabaticSchedule(36.0, dt / 64.0)
        fine = v
        for k in range(64):
            fine = step("exact-midpoint", fine, spec, fine_sched, t0 + k * dt / 64.0)
        errors.append(np.linalg.norm(coarse - fine))
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    for r in ratios:
        assert 6.5 < r < 9.5


def test_sweep_hamiltonian2_has_the_bits_of_the_array_expression():
    # H(s) of the exact-midpoint step, built on scalars for n = 2, must equal
    # numpy's (1-s)*H0 + s*H_T entry by entry, signed zeros included
    inline = (
        np.array([[-0.5, complex(-0.0, 0.3)], [complex(-0.0, -0.3), 0.25]]),
        np.array([[complex(1.5, -0.0), 0.2 - 0.7j], [0.2 + 0.7j, -1.1]]),
    )
    pairs = [(spec.initial.matrix, spec.target.matrix)
             for spec in (model_one(1.0), model_two(np.pi / 4.0))]
    pairs.append(inline)
    _, sched = fig2_setup()
    dt = sched.step_width
    grid = [0.0, 1.0, 0.5, 1e-300, 1.0 - 2.0**-53]
    grid += [sched.s(k * dt + 0.5 * dt) for k in range(sched.num_steps)]
    grid += [float(s) for s in np.random.default_rng(19).uniform(0.0, 1.0, 500)]
    for h0, ht in pairs:
        a, b = h0.tolist(), ht.tolist()
        for s in grid:
            got = np.array(evolve._sweep_hamiltonian2(a, b, s), dtype=complex)
            assert got.tobytes() == ((1.0 - s) * h0 + s * ht).tobytes(), (a, b, s)


def test_scale2_has_the_bits_of_the_array_expression():
    # the split step's (1-s)*H0 and s*H_T, built on scalars for n = 2, must
    # equal numpy's scalar-times-array products, signed zeros included
    signed = np.array([[complex(-0.0, 0.0), complex(0.5, -0.0)],
                       [complex(0.5, 0.0), complex(-1.25, -0.0)]])
    matrices = [spec.initial.matrix for spec in (model_one(1.0), model_two(np.pi / 4.0))]
    matrices += [spec.target.matrix for spec in (model_one(1.0), model_two(np.pi / 4.0))]
    matrices.append(signed)
    grid = [0.0, 1.0, -0.0]
    for _, sched in (fig1a_setup(), fig2_setup()):
        dt = sched.step_width
        grid += [sched.s(k * dt + 0.5 * dt) for k in range(sched.num_steps)]
    for h in matrices:
        rows = h.tolist()
        for s in grid:
            for x in (1.0 - s, s):
                got = np.array(evolve._scale2(x, rows), dtype=complex)
                assert got.tobytes() == (x * h).tobytes(), (rows, x)


def test_run_adiabatic_rejects_unknown_integrator():
    spec, sched = fig1a_setup()
    with pytest.raises(ValueError, match="integrator"):
        run_adiabatic(spec, sched, "euler")
    assert set(INTEGRATORS) == {"trotter2", "exact-midpoint"}


def test_run_adiabatic_preserves_norm():
    spec, sched = fig2_setup()
    v = run_adiabatic(spec, sched, "trotter2")
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_run_adiabatic_rejects_a_nan_state(monkeypatch):
    # a NaN norm drift compares false with any bound, so the check must
    # be phrased to fail on it
    spec, sched = fig1a_setup()
    monkeypatch.setattr(evolve, "_propagate2", lambda es, t, v: [z * np.nan for z in v])
    with pytest.raises(ArithmeticError, match="state norm drifted by nan during the ramp"):
        run_adiabatic(spec, sched, "trotter2")


def test_run_adiabatic_single_step_schedule():
    spec = model_one(1.0)
    v = run_adiabatic(spec, AdiabaticSchedule(0.125, 0.125))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_flip_ramp_residual_matches_reference_value():
    spec, sched = fig1a_setup()
    dec = decompose(run_adiabatic(spec, sched, "trotter2"), spec)
    assert 2.0 * dec.beta_sq == pytest.approx(FIG1A_TWO_BETA_SQ_TROTTER, rel=1e-6)
    assert 2e-4 < 2.0 * dec.beta_sq < 2e-3
    assert dec.theta == pytest.approx(FIG1A_THETA, abs=1e-9)
    dec_exact = decompose(run_adiabatic(spec, sched, "exact-midpoint"), spec)
    assert 2.0 * dec_exact.beta_sq == pytest.approx(FIG1A_TWO_BETA_SQ_EXACT, rel=1e-6)


def test_hadamard_ramp_residual_matches_reference_value():
    spec, sched = fig2_setup()
    dec = decompose(run_adiabatic(spec, sched, "trotter2"), spec)
    assert dec.beta_sq == pytest.approx(FIG2_BETA_SQ_TROTTER, rel=1e-6)
    assert 1e-4 < dec.beta_sq < 1e-3
    dec_exact = decompose(run_adiabatic(spec, sched, "exact-midpoint"), spec)
    assert dec_exact.beta_sq == pytest.approx(FIG2_BETA_SQ_EXACT, rel=1e-6)


def test_very_slow_ramp_reaches_the_ground_state():
    spec = model_one(1.0)
    psi = run_adiabatic(spec, AdiabaticSchedule(360.0, 0.125), "exact-midpoint")
    fidelity = abs(np.vdot(spec.reference_ground_state, psi)) ** 2
    assert 1.0 - fidelity < 1e-4


def test_slower_ramp_beats_a_fast_ramp():
    # residual excitation oscillates with T, so compare a clearly separated
    # pair rather than neighbors: T=3 leaves ~2e-2, T=36 leaves ~2e-4
    spec = model_two(np.pi / 4.0)
    fast = decompose(run_adiabatic(spec, AdiabaticSchedule(3.0, 1.0 / 24.0), "exact-midpoint"), spec)
    slow = decompose(run_adiabatic(spec, AdiabaticSchedule(36.0, 1.0 / 24.0), "exact-midpoint"), spec)
    assert fast.beta_sq == pytest.approx(2.138231e-02, rel=1e-4)
    assert slow.beta_sq == pytest.approx(1.534637e-04, rel=1e-4)
    assert slow.beta_sq < fast.beta_sq


@pytest.mark.parametrize("factory,coupling", [(model_one, 1.0), (model_two, np.pi / 4.0)])
def test_global_error_is_second_order(factory, coupling):
    # error against the exact Landau-Zener propagator shrinks 4x per halving
    spec = factory(coupling)
    total = 12.0
    reference = landau_zener_propagator(spec.initial.matrix, spec.target.matrix, total) @ initial_state(spec)
    errors = []
    for dt in (0.125, 0.0625):
        coarse = run_adiabatic(spec, AdiabaticSchedule(total, dt), "trotter2")
        errors.append(np.linalg.norm(coarse - reference))
    ratio = errors[0] / errors[1]
    assert 3.5 < ratio < 4.5


def test_decompose_pure_reference_states():
    spec = model_two(1.0)
    dec = decompose(spec.reference_ground_state, spec)
    assert dec.alpha_mod == pytest.approx(1.0, abs=1e-12)
    assert dec.beta_sq == pytest.approx(0.0, abs=1e-15)
    assert dec.theta == 0.0
    assert not dec.theta_defined
    dec_e = decompose(spec.reference_excited_state, spec)
    assert dec_e.beta_mod == pytest.approx(1.0, abs=1e-12)
    assert not dec_e.theta_defined


def test_decompose_equal_superposition():
    spec = model_two(1.0)
    v = superposition_state(spec, 1.0 / SQRT2, 0.0)
    dec = decompose(v, spec)
    assert dec.alpha_mod == pytest.approx(1.0 / SQRT2, abs=1e-12)
    assert dec.beta_mod == pytest.approx(1.0 / SQRT2, abs=1e-12)
    assert dec.theta == pytest.approx(0.0, abs=1e-12)
    assert dec.theta_defined


@settings(max_examples=60, deadline=None)
@given(
    beta=st.floats(1e-3, 0.999),
    theta=st.floats(-3.14, 3.14),
)
def test_decompose_round_trip(beta, theta):
    spec = model_two(1.0)
    dec = decompose(superposition_state(spec, beta, theta), spec)
    assert dec.beta_mod == pytest.approx(beta, abs=1e-10)
    assert dec.theta == pytest.approx(theta, abs=1e-8)
    assert dec.alpha_mod**2 + dec.beta_mod**2 == pytest.approx(1.0, abs=1e-12)


def test_decompose_rejects_weight_outside_the_reference_pair():
    z = pauli("Z").matrix
    eye = np.eye(2, dtype=complex)
    h0 = HermitianOperator(-np.kron(z, eye) - np.kron(eye, z), "sum-Z")
    ht = HermitianOperator(-np.kron(z, eye) - 0.5 * np.kron(eye, z), "weighted-Z")
    basis = np.eye(4, dtype=complex)
    spec = ModelSpec(h0, ht, (), basis[:, 0], basis[:, 1])
    with pytest.raises(ValueError, match="outside the reference pair"):
        decompose(basis[:, 3], spec)


def test_decompose_rejects_unnormalized_state():
    spec = model_one(1.0)
    with pytest.raises(ValueError, match="norm"):
        decompose(np.array([1.0, 1.0], dtype=complex), spec)


def test_residual_decomposition_validates_weights():
    with pytest.raises(ValueError, match="normalized"):
        ResidualDecomposition(alpha_mod=1.0, beta_mod=0.5, theta=0.0, beta_sq=0.25)
    with pytest.raises(ValueError, match="theta"):
        ResidualDecomposition(alpha_mod=1.0, beta_mod=0.0, theta=7.0, beta_sq=0.0)
