"""The ramp against the exact Landau-Zener propagator of a 2x2 linear ramp.

Both integrators are second order, so the distance of a final state from
the exact one is C*dt^2 with a constant C fixed by the model, the ramp time
and the integrator. The constants below were measured against
_oracles.landau_zener_propagator; each holds to 0.1% at the preset step and
at half of it, so a 2% band checks both the order and the constant. The
same propagator checks the sweep's trotter_deviation and locates the ramp
times at which the exact ramp leaves no excitation at all.
"""

from dataclasses import replace

import numpy as np
import pytest

from adiaprep.config import preset_config
from adiaprep.evolve import decompose, initial_state, run_adiabatic
from adiaprep.model import AdiabaticSchedule, model_one, model_two
from adiaprep.runner import sweep

from _oracles import landau_zener_propagator

PRESETS = {
    # name: (spec, total_time, preset step_width)
    "fig1a": (model_one(1.0), 36.0, 0.125),
    "fig2": (model_two(np.pi / 4.0), 36.0, 1.0 / 24.0),
}
# ||v(dt) - v_exact|| / dt^2
SECOND_ORDER_CONSTANTS = {
    ("fig1a", "trotter2"): 0.2708,
    ("fig1a", "exact-midpoint"): 0.005956,
    ("fig2", "trotter2"): 0.05297,
    ("fig2", "exact-midpoint"): 0.002758,
}
BAND = 0.02
# the sweep's trotter_deviation measures the split step against a reference
# whose own error is second order in step_width/64: within this relative
# distance of the split step's distance from the exact ramp
DEVIATION_RTOL = 1e-4
# ramp times at which the exact linear ramp leaves no excitation, to 1e-5
EXACT_NODES = {"model1": 38.74241, "model2": 29.50509}


def exact_final_state(spec, total_time):
    u = landau_zener_propagator(spec.initial.matrix, spec.target.matrix, total_time)
    return u @ initial_state(spec)


@pytest.mark.parametrize("name, integrator", sorted(SECOND_ORDER_CONSTANTS))
def test_final_state_error_is_second_order_at_its_constant(name, integrator):
    spec, total_time, step = PRESETS[name]
    exact = exact_final_state(spec, total_time)
    constant = SECOND_ORDER_CONSTANTS[name, integrator]
    for dt in (step, step / 2.0):
        final = run_adiabatic(spec, AdiabaticSchedule(total_time, dt), integrator)
        error = float(np.linalg.norm(final - exact))
        assert abs(error / (constant * dt**2) - 1.0) < BAND, (dt, error)


def test_oracle_is_unitary_and_matches_a_fine_piecewise_exact_ramp():
    # complex off-diagonals, a Y component and a scalar part that moves, so
    # the rotation and the global phase are both exercised
    h0 = np.array([[0.3, 0.2 - 0.5j], [0.2 + 0.5j, -0.7]])
    ht = np.array([[1.1, -0.4j], [0.4j, 0.2]])
    total_time = 3.0
    u = landau_zener_propagator(h0, ht, total_time)
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-14

    def midpoint_ramp(steps):
        dt = total_time / steps
        out = np.eye(2, dtype=complex)
        for k in range(steps):
            s = (k + 0.5) / steps
            h = (1.0 - s) * h0 + s * ht
            lam, v = np.linalg.eigh(h)
            out = (v * np.exp(-1j * lam * dt)) @ v.conj().T @ out
        return out

    coarse = np.abs(midpoint_ramp(400) - u).max()
    fine = np.abs(midpoint_ramp(800) - u).max()
    assert fine < 2e-7
    assert 3.9 < coarse / fine < 4.1


def test_oracle_rejects_a_ramp_with_no_sweep_or_no_gap():
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="^beta = 0"):
        landau_zener_propagator(x + z, x + z, 2.0)
    # -Z into -2Z: H(t) stays along Z, so the levels never approach
    with pytest.raises(ValueError, match="^g = 0"):
        landau_zener_propagator(-z, -2.0 * z, 2.0)
    with pytest.raises(ValueError, match="^g = 0"):
        landau_zener_propagator(-z, z, 2.0)


def test_sweep_trotter_deviation_is_the_distance_from_the_exact_ramp():
    cfg = preset_config("fig2")
    cfg = replace(cfg, shots=0, outputs=replace(cfg.outputs, csv=False))
    rows, _ = sweep(cfg, "T", [4.5, 9.0])
    spec = cfg.build_model()
    for row in rows:
        total_time = row["value"]
        split = run_adiabatic(spec, AdiabaticSchedule(total_time, cfg.step_width), "trotter2")
        exact = float(np.linalg.norm(split - exact_final_state(spec, total_time)))
        assert abs(row["trotter_deviation"] / exact - 1.0) < DEVIATION_RTOL, (total_time, exact)


@pytest.mark.parametrize(
    "model, spec", [("model1", model_one(1.0)), ("model2", model_two(np.pi / 4.0))]
)
def test_exact_excitation_vanishes_at_its_nodes(model, spec):
    # |b| crosses zero linearly in T: about 4e-8 at the stated node and
    # 5e-4 at 0.05 away
    node = EXACT_NODES[model]
    weight = {
        total_time: decompose(exact_final_state(spec, total_time), spec).beta_sq
        for total_time in (node - 0.05, node, node + 0.05)
    }
    assert weight[node] < 1e-12
    assert weight[node - 0.05] > 1e-7 and weight[node + 0.05] > 1e-7
