from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adiaprep.config import config_from_dict, load_config_file
from adiaprep.linalg import eig_hermitian
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
INLINE3 = Path(__file__).parent / "data" / "inline3.json"


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
    assert np.array_equal(spec.initial.matrix, -pauli("Z").matrix)
    assert np.array_equal(spec.target.matrix, -pauli("X").matrix)
    plus = np.array([1.0, 1.0]) / SQRT2
    assert np.allclose(spec.reference_ground_state, plus)
    e_gg, e_ee = spec.pair_elements(spec.target)[:2]
    assert e_gg == pytest.approx(-1.0)
    assert e_ee == pytest.approx(1.0)
    assert spec.observables == ()
    # <+|Z|+> = 0: the oscillating observable is centered on zero
    g = spec.reference_ground_state
    assert abs(np.vdot(g, pauli("Z").matrix @ g)) < 1e-15


def test_model_two_reference_states():
    spec = model_two(np.pi / 4.0)
    ground = np.array([np.cos(np.pi / 8.0), np.sin(np.pi / 8.0)])
    excited = np.array([np.sin(np.pi / 8.0), -np.cos(np.pi / 8.0)])
    assert np.allclose(spec.reference_ground_state, ground, atol=1e-15)
    assert np.allclose(spec.reference_excited_state, excited, atol=1e-15)
    assert spec.pair_elements(spec.target)[0] == pytest.approx(-np.pi / 4.0)
    # the ground state is not a Z eigenstate: <g|Z|g> = 1/sqrt(2)
    g = spec.reference_ground_state
    assert np.vdot(g, pauli("Z").matrix @ g).real == pytest.approx(1.0 / SQRT2, abs=1e-14)


@pytest.mark.parametrize("factory", [model_one, model_two])
def test_models_reject_nonpositive_coupling(factory):
    with pytest.raises(ValueError, match="coupling"):
        factory(0.0)
    with pytest.raises(ValueError, match="coupling"):
        factory(-1.0)


def _flip_spec():
    # a custom spec whose target -0.25*X beats at 0.5, up to rounding
    plus = np.array([1.0, 1.0], dtype=complex) / SQRT2
    minus = np.array([1.0, -1.0], dtype=complex) / SQRT2
    initial = HermitianOperator(-pauli("Z").matrix, "-Z")
    target = HermitianOperator(-0.25 * pauli("X").matrix, "-X/4")
    return ModelSpec(initial, target, (), plus, minus)


@pytest.mark.parametrize(
    "build",
    [
        lambda: model_one(1.0),
        lambda: model_two(np.pi / 4),
        _flip_spec,
        lambda: config_from_dict(load_config_file(INLINE3)).build_model(),
    ],
    ids=["model1", "model2", "flip", "inline3"],
)
def test_oscillation_frequency_is_the_reference_splitting_to_the_bit(build):
    # built-in and inline models follow one rule: E_e - E_g on the reference pair
    spec = build()
    e_gg, e_ee = spec.pair_elements(spec.target)[:2]
    assert spec.oscillation_angular_frequency == e_ee - e_gg


def test_oscillation_frequency_values_of_the_builtins():
    # the splitting is 2J up to rounding, not the closed form itself
    assert model_one(1.0).oscillation_angular_frequency == 1.9999999999999996
    assert model_two(np.pi / 4).oscillation_angular_frequency == 1.5707963267948968
    assert _flip_spec().oscillation_angular_frequency == 0.4999999999999999


def test_replace_keeps_the_oscillation_frequency():
    spec = model_two(np.pi / 4)
    swapped = replace(spec, observables=(pauli("Z"), pauli("X")))
    assert [o.label for o in swapped.observables] == ["Z", "X"]
    assert swapped.oscillation_angular_frequency == spec.oscillation_angular_frequency


@pytest.mark.parametrize("stated", [2.0, 0.5 * (1.0 + 1e-11), float("nan")])
def test_model_spec_rejects_a_frequency_off_the_reference_splitting(stated):
    # ω is read off the reference pair, so no stated value is taken at all
    spec = _flip_spec()
    g, e = spec.reference_ground_state, spec.reference_excited_state
    with pytest.raises(TypeError, match="oscillation_angular_frequency"):
        ModelSpec(spec.initial, spec.target, (), g, e, oscillation_angular_frequency=stated)


@pytest.mark.parametrize("factory", [model_one, model_two])
@pytest.mark.parametrize("coupling", [np.pi / 4, 1.0, 0.3, 7.0, 1e-3, 123.456, 2.0**-30])
def test_builtin_reference_pair_is_the_eigensolver_columns(factory, coupling):
    # the built-ins form their pair with eig_hermitian's own rotation, so a
    # block-diagonal inline model that embeds the target reads the same bits
    spec = factory(coupling)
    vectors = eig_hermitian(spec.target.matrix).eigenvectors
    assert np.array_equal(spec.reference_ground_state, vectors[:, 0])
    assert np.array_equal(spec.reference_excited_state, vectors[:, 1])


def test_pair_elements_of_z_on_the_hadamard_reference_pair():
    # O_gg = -O_ee = |O_ge| = 1/sqrt(2), and the target's own are the energies
    spec = model_two(np.pi / 4.0)
    o_gg, o_ee, o_ge = spec.pair_elements(pauli("Z"))
    assert o_gg == pytest.approx(1.0 / SQRT2, abs=1e-15)
    assert o_ee == pytest.approx(-1.0 / SQRT2, abs=1e-15)
    assert abs(o_ge) == pytest.approx(1.0 / SQRT2, abs=1e-15)
    e_gg, e_ee, e_ge = spec.pair_elements(spec.target)
    assert (e_gg, e_ee) == pytest.approx((-np.pi / 4.0, np.pi / 4.0), abs=1e-15)
    assert abs(e_ge) < 1e-15


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
    spec = ModelSpec(h0, ht, (), ground, excited)
    assert spec.oscillation_angular_frequency == 1.0


def test_model_spec_rejects_non_eigenvector_references():
    up = np.array([1.0, 0.0], dtype=complex)
    down = np.array([0.0, 1.0], dtype=complex)
    with pytest.raises(ValueError, match="eigenvector"):
        ModelSpec(
            HermitianOperator(-pauli("Z").matrix, "-Z"),
            HermitianOperator(-pauli("X").matrix, "-X"),
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
            (),
            spec.reference_excited_state,
            spec.reference_ground_state,
        )


def test_schedule_validation():
    with pytest.raises(ValueError, match="total_time"):
        AdiabaticSchedule(-1.0, 0.1)
    with pytest.raises(ValueError, match="step_width"):
        AdiabaticSchedule(1.0, 0.0)
    # an int past the float range, or NaN, fails the range comparison
    with pytest.raises(ValueError, match="total_time must be positive and finite"):
        AdiabaticSchedule(10**400, 1.0)
    with pytest.raises(ValueError, match="step_width must be positive and finite"):
        AdiabaticSchedule(36.0, float("nan"))
    with pytest.raises(ValueError, match="exceeds"):
        AdiabaticSchedule(1.0, 10.0)
    # past 2^53 steps, the largest count whose indices are all exact doubles
    for total_time in (2.0**53 + 2.0, 2.0**54):
        with pytest.raises(ValueError, match="too many steps"):
            AdiabaticSchedule(total_time, 1.0)


def test_schedule_step_counts():
    sched = AdiabaticSchedule(36.0, 0.125)
    assert sched.num_steps == 288
    single = AdiabaticSchedule(0.125, 0.125)
    assert single.num_steps == 1
    assert AdiabaticSchedule(2.0**53, 1.0).num_steps == 2**53


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
