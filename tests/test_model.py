import numpy as np
import pytest

from adiaprep.model import (
    AdiabaticSchedule,
    HermitianOperator,
    ModelSpec,
    model_one,
    model_two,
    observable_from_label,
    pauli,
)

SQRT2 = np.sqrt(2.0)


def test_pauli_matrices():
    assert np.array_equal(pauli("Z").matrix, np.diag([1.0, -1.0]).astype(complex))
    assert np.array_equal(pauli("X").matrix, np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(pauli("Y").matrix, np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(pauli("I").matrix, np.eye(2, dtype=complex))


def test_hadamard_is_x_plus_z_over_sqrt2_and_squares_to_identity():
    h = pauli("H").matrix
    assert np.allclose(h, (pauli("X").matrix + pauli("Z").matrix) / SQRT2, atol=1e-15)
    assert np.max(np.abs(h @ h - np.eye(2))) < 1e-15


def test_pauli_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown operator"):
        pauli("Q")


def test_observable_from_label_negation():
    mx = observable_from_label("-X")
    assert mx.label == "-X"
    assert np.array_equal(mx.matrix, -pauli("X").matrix)
    assert observable_from_label("Z").label == "Z"


def test_hermitian_operator_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian") as err:
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), "bad")
    # the message names the operator, the worst entry and its defect
    message = str(err.value)
    assert message.startswith("operator 'bad': ")
    assert "entry (0, 1)" in message and "defect 1.000e+00" in message


def test_hermitian_operator_matrix_is_frozen():
    op = pauli("Z")
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_model_one_structure():
    spec = model_one(1.0)
    assert spec.kind == "model1"
    assert np.array_equal(spec.initial.matrix, -pauli("Z").matrix)
    assert np.array_equal(spec.target.matrix, -pauli("X").matrix)
    plus = np.array([1.0, 1.0]) / SQRT2
    assert np.allclose(spec.reference_ground_state, plus)
    assert spec.ground_energy == pytest.approx(-1.0)
    assert spec.excited_energy == pytest.approx(1.0)
    assert spec.observables == ()
    # <+|Z|+> = 0: the oscillating observable is centered on zero
    g = spec.reference_ground_state
    assert abs(np.vdot(g, pauli("Z").matrix @ g)) < 1e-15


def test_model_two_reference_states():
    spec = model_two(np.pi / 4.0)
    assert spec.kind == "model2"
    ground = np.array([1.0, SQRT2 - 1.0]) / np.sqrt(4.0 - 2.0 * SQRT2)
    excited = np.array([1.0, -(SQRT2 + 1.0)]) / np.sqrt(4.0 + 2.0 * SQRT2)
    assert np.allclose(spec.reference_ground_state, ground, atol=1e-15)
    assert np.allclose(spec.reference_excited_state, excited, atol=1e-15)
    assert spec.ground_energy == pytest.approx(-np.pi / 4.0)
    # the ground state is not a Z eigenstate: <g|Z|g> = 1/sqrt(2)
    g = spec.reference_ground_state
    assert np.vdot(g, pauli("Z").matrix @ g).real == pytest.approx(1.0 / SQRT2, abs=1e-14)


@pytest.mark.parametrize("factory", [model_one, model_two])
def test_models_reject_nonpositive_coupling(factory):
    with pytest.raises(ValueError, match="coupling"):
        factory(0.0)
    with pytest.raises(ValueError, match="coupling"):
        factory(-1.0)


def test_oscillation_frequency_is_twice_coupling_for_builtins():
    assert model_one(1.0).oscillation_angular_frequency() == 2.0
    assert model_two(np.pi / 4).oscillation_angular_frequency() == pytest.approx(np.pi / 2)


def test_oscillation_frequency_for_custom_spec_uses_level_splitting():
    # custom two-qubit spec: frequency comes from the reference energies
    z = pauli("Z").matrix
    eye = np.eye(2, dtype=complex)
    h0 = HermitianOperator(-np.kron(z, eye) - np.kron(eye, z), "sum-Z")
    ht = HermitianOperator(-np.kron(z, eye) - 0.5 * np.kron(eye, z), "weighted-Z")
    ground = np.zeros(4, dtype=complex)
    ground[0] = 1.0
    excited = np.zeros(4, dtype=complex)
    excited[1] = 1.0
    spec = ModelSpec(h0, ht, 1.0, (), ground, excited)
    assert spec.oscillation_angular_frequency() == pytest.approx(1.0)


def test_model_spec_rejects_non_eigenvector_references():
    up = np.array([1.0, 0.0], dtype=complex)
    down = np.array([0.0, 1.0], dtype=complex)
    with pytest.raises(ValueError, match="eigenvector"):
        ModelSpec(
            HermitianOperator(-pauli("Z").matrix, "-Z"),
            HermitianOperator(-pauli("X").matrix, "-X"),
            1.0,
            (),
            up,
            down,
        )


def test_model_spec_rejects_swapped_ground_and_excited():
    spec = model_one(1.0)
    with pytest.raises(ValueError, match="ground"):
        ModelSpec(
            spec.initial,
            spec.target,
            1.0,
            (),
            spec.reference_excited_state,
            spec.reference_ground_state,
        )


def test_schedule_validation():
    with pytest.raises(ValueError, match="total_time"):
        AdiabaticSchedule(-1.0, 0.1)
    with pytest.raises(ValueError, match="step_width"):
        AdiabaticSchedule(1.0, 0.0)
    with pytest.raises(ValueError, match="exceeds"):
        AdiabaticSchedule(1.0, 10.0)


def test_schedule_step_counts():
    sched = AdiabaticSchedule(36.0, 0.125)
    assert sched.num_steps == 288
    single = AdiabaticSchedule(0.125, 0.125)
    assert single.num_steps == 1


def test_schedule_rejects_a_step_that_does_not_divide():
    # a rounded step count would ramp over a different length than total_time
    with pytest.raises(ValueError, match=r"step_width 0\.3 does not divide total_time 1\.0"):
        AdiabaticSchedule(1.0, 0.3)
    with pytest.raises(ValueError, match=r"step_width 0\.07 does not divide total_time 36\.0"):
        AdiabaticSchedule(36.0, 0.07)
    assert AdiabaticSchedule(36.0, 0.125).num_steps == 288


def test_schedule_ramp_parameter_clips():
    sched = AdiabaticSchedule(10.0, 0.5)
    assert sched.s(0.0) == 0.0
    assert sched.s(5.0) == pytest.approx(0.5)
    assert sched.s(10.0) == 1.0
    assert sched.s(-1.0) == 0.0
    assert sched.s(11.0) == 1.0
