"""Ramp-phase time evolution and residual decomposition.

The workhorse integrator is a symmetric split step: half a step of the
initial part, a full step of the target part, half a step of the initial
part again, all evaluated at the midpoint ramp parameter. A piecewise-exact
integrator (exponentiating the full sweep Hamiltonian at the midpoint) is
kept alongside as the reference for convergence studies. Each exponential
is one eig_hermitian call applied on Python scalars, n = 2 with the same bits.
At n = 2 the exact-midpoint step also builds H(s) on scalars, with the bits
of the numpy expression the split step and n > 2 keep.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .linalg import EigenSystem, as_state_vector, eig_hermitian
from .model import AdiabaticSchedule, ModelSpec

__all__ = [
    "INTEGRATORS",
    "ResidualDecomposition",
    "decompose",
    "initial_state",
    "run_adiabatic",
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
    return eig_hermitian(spec.initial.matrix).eigenvectors[:, 0].copy()


def _propagate(es: EigenSystem, t: float, v: list[complex]) -> list[complex]:
    """exp(-i*H*t) v for the H with eigensystem es, as sum_k e^{-i*lam_k*t}
    <e_k|v> e_k on lists of complex scalars; each sum runs in index order."""
    rows = es.rows
    coeffs = [
        cmath.rect(1.0, -lam * t) * reduce(add, [row[k].conjugate() * x for row, x in zip(rows, v)])
        for k, lam in enumerate(es.values)
    ]
    return [reduce(add, [e * c for e, c in zip(row, coeffs)]) for row in rows]


def _propagate2(es: EigenSystem, t: float, v: list[complex]) -> list[complex]:
    """_propagate for n = 2 written out in the same operand order: the same bits."""
    lam0, lam1 = es.values
    (e00, e01), (e10, e11) = es.rows
    v0, v1 = v
    c0 = cmath.rect(1.0, -lam0 * t) * (e00.conjugate() * v0 + e10.conjugate() * v1)
    c1 = cmath.rect(1.0, -lam1 * t) * (e01.conjugate() * v0 + e11.conjugate() * v1)
    return [e00 * c0 + e01 * c1, e10 * c0 + e11 * c1]


def _sweep_hamiltonian2(a: list, b: list, s: float) -> list[list[complex]]:
    """(1-s)*a + s*b for 2x2 rows a and b, entry by entry in numpy's
    operations: each real factor enters as a complex with imaginary part +0,
    as numpy casts it, so the rows carry the bits of the array expression."""
    u, s = complex(1.0 - s), complex(s)
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return [[u * a00 + s * b00, u * a01 + s * b01], [u * a10 + s * b10, u * a11 + s * b11]]


def _ramp(v: list, spec: ModelSpec, schedule: AdiabaticSchedule, integrator: str, steps) -> list:
    """Apply steps of the schedule to the state list v, each frozen at its
    midpoint s; the split step puts (1-s)*H0 half steps around s*H_T."""
    h0, ht = spec.initial.matrix, spec.target.matrix
    two = spec.dim == 2
    propagate = _propagate2 if two else _propagate
    rows0, rowst = h0.tolist(), ht.tolist()
    dt = schedule.step_width
    for k in steps:
        s_mid = schedule.s(k * dt + 0.5 * dt)
        if integrator == "trotter2":
            half = eig_hermitian((1.0 - s_mid) * h0)
            full = eig_hermitian(s_mid * ht)
            v = propagate(half, 0.5 * dt, propagate(full, dt, propagate(half, 0.5 * dt, v)))
        elif two:
            v = propagate(eig_hermitian(_sweep_hamiltonian2(rows0, rowst, s_mid)), dt, v)
        else:
            v = propagate(eig_hermitian((1.0 - s_mid) * h0 + s_mid * ht), dt, v)
    return v


def run_adiabatic(
    spec: ModelSpec, schedule: AdiabaticSchedule, integrator: str = "trotter2"
) -> np.ndarray:
    """Ramp the initial ground state to t = T and return the final state."""
    if integrator not in INTEGRATORS:
        raise ValueError(f"unknown integrator {integrator!r}; choose from {INTEGRATORS}")
    steps = range(schedule.num_steps)
    v = np.array(_ramp(initial_state(spec).tolist(), spec, schedule, integrator, steps))
    drift = abs(float(np.linalg.norm(v)) - 1.0)
    # written so that a NaN drift fails too
    if not drift <= 1e-9:
        raise ArithmeticError(f"state norm drifted by {drift:.3e} during the ramp")
    return v


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
