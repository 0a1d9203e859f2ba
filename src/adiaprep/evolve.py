"""Ramp-phase time evolution and residual decomposition.

The workhorse integrator is a symmetric split step: half a step of the
initial part, a full step of the target part, half a step of the initial
part again, all evaluated at the midpoint ramp parameter. A piecewise-exact
integrator (exponentiating the full sweep Hamiltonian at the midpoint) is
kept alongside as the reference for convergence studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_state_vector, eig_hermitian, expm_minus_i
from .model import AdiabaticSchedule, ModelSpec

__all__ = [
    "INTEGRATORS",
    "ResidualDecomposition",
    "decompose",
    "exact_midpoint_step",
    "initial_state",
    "run_adiabatic",
    "superposition_state",
    "trotter2_step",
]

INTEGRATORS = ("trotter2", "exact-midpoint")
# largest norm a prepared state may carry outside the target reference pair
RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class ResidualDecomposition:
    """Weights and relative phase of a state on the target reference pair.

    The state is alpha_mod*|g> + beta_mod*e^{-i*theta}|e> up to a global
    phase; theta is the phase of <g|v><v|e>. When either weight vanishes
    theta is meaningless and reported as 0 with theta_defined False.
    """

    alpha_mod: float
    beta_mod: float
    theta: float
    beta_sq: float
    theta_defined: bool = True

    def __post_init__(self) -> None:
        total = self.alpha_mod**2 + self.beta_mod**2
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"weights are not normalized: alpha^2 + beta^2 = {total!r}")
        if not (-np.pi - 1e-12 < self.theta <= np.pi + 1e-12):
            raise ValueError(f"theta {self.theta!r} outside (-pi, pi]")
        if abs(self.beta_sq - self.beta_mod**2) > 1e-12:
            raise ValueError("beta_sq does not match beta_mod")


def initial_state(spec: ModelSpec) -> np.ndarray:
    """Ground state of the initial Hamiltonian."""
    es = eig_hermitian(spec.initial.matrix)
    return es.eigenvectors[:, 0].copy()


def _check_step_bounds(schedule: AdiabaticSchedule, t_start: float) -> None:
    end = max(schedule.total_time, schedule.discrete_end)
    if t_start < -1e-12 or t_start + schedule.step_width > end + 1e-9:
        raise ValueError(
            f"step starting at {t_start!r} leaves the ramp window [0, {end!r}]"
        )


def trotter2_step(
    v: np.ndarray,
    spec: ModelSpec,
    schedule: AdiabaticSchedule,
    t_start: float,
) -> np.ndarray:
    """Symmetric split step over [t_start, t_start + dt].

    Both Hamiltonian parts are frozen at the midpoint ramp parameter; the
    outer half-steps use the initial part, the inner full step the target.
    """
    _check_step_bounds(schedule, t_start)
    dt = schedule.step_width
    s_mid = schedule.s(t_start + 0.5 * dt)
    a = (1.0 - s_mid) * spec.initial.matrix
    b = s_mid * spec.target.matrix
    half = expm_minus_i(a, 0.5 * dt)
    return half @ (expm_minus_i(b, dt) @ (half @ v))


def exact_midpoint_step(
    v: np.ndarray,
    spec: ModelSpec,
    schedule: AdiabaticSchedule,
    t_start: float,
) -> np.ndarray:
    """Exact step under the sweep Hamiltonian frozen at the interval midpoint."""
    _check_step_bounds(schedule, t_start)
    dt = schedule.step_width
    s_mid = schedule.s(t_start + 0.5 * dt)
    m = (1.0 - s_mid) * spec.initial.matrix + s_mid * spec.target.matrix
    return expm_minus_i(m, dt) @ v


def run_adiabatic(
    spec: ModelSpec,
    schedule: AdiabaticSchedule,
    integrator: str = "trotter2",
) -> np.ndarray:
    """Ramp the initial ground state to t = T and return the final state."""
    if integrator not in INTEGRATORS:
        raise ValueError(f"unknown integrator {integrator!r}; choose from {INTEGRATORS}")
    v = initial_state(spec)
    dt = schedule.step_width
    for k in range(schedule.num_steps):
        if integrator == "trotter2":
            v = trotter2_step(v, spec, schedule, k * dt)
        else:
            v = exact_midpoint_step(v, spec, schedule, k * dt)
    drift = abs(float(np.linalg.norm(v)) - 1.0)
    # written so that a NaN drift fails too
    if not drift <= 1e-9:
        raise ArithmeticError(f"state norm drifted by {drift:.3e} during the ramp")
    return v


def superposition_state(spec: ModelSpec, beta_mod: float, theta: float = 0.0) -> np.ndarray:
    """Build sqrt(1-b^2)*|g> + b*e^{-i*theta}*|e>; decompose() recovers (b, theta)."""
    if not 0.0 <= beta_mod <= 1.0:
        raise ValueError(f"beta_mod must lie in [0, 1], got {beta_mod!r}")
    alpha = np.sqrt(1.0 - beta_mod**2)
    return (
        alpha * spec.reference_ground_state
        + beta_mod * np.exp(-1.0j * theta) * spec.reference_excited_state
    )


def decompose(v: np.ndarray, spec: ModelSpec) -> ResidualDecomposition:
    """Project a prepared state onto the target reference pair.

    Rejects states with more than RESIDUAL_TOL norm outside the two
    reference levels; the two-level diagnosis would silently misread them.
    """
    v = as_state_vector(v)
    if v.shape[0] != spec.dim:
        raise ValueError(f"state dimension {v.shape[0]} != model dimension {spec.dim}")
    g = spec.reference_ground_state
    e = spec.reference_excited_state
    a = np.vdot(g, v)
    b = np.vdot(e, v)
    residual = float(np.linalg.norm(v - a * g - b * e))
    if residual > RESIDUAL_TOL:
        raise ValueError(
            f"state has norm {residual:.3e} outside the reference pair "
            f"(tolerance {RESIDUAL_TOL:g})"
        )
    product = a * np.conj(b)
    if abs(product) < 1e-15:
        theta, defined = 0.0, False
    else:
        theta, defined = float(np.angle(product)), True
    return ResidualDecomposition(
        alpha_mod=float(abs(a)),
        beta_mod=float(abs(b)),
        theta=theta,
        beta_sq=float(abs(b)) ** 2,
        theta_defined=defined,
    )
