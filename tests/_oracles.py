"""Reference constructions the tests check the package against.

None of these is on the package's pipeline. expm_minus_i diagonalises with
numpy's LAPACK eigh, not the package's Jacobi solver, so the propagator tests
that use it compare two independent eigensolvers.
"""

import numpy as np

from adiaprep.model import HermitianOperator, ModelSpec, pauli


def expm_minus_i(m, t: float) -> np.ndarray:
    """Unitary exp(-i*m*t) for Hermitian m, via numpy's eigh."""
    lam, v = np.linalg.eigh(np.asarray(m, dtype=np.complex128))
    return (v * np.exp(lam * (-1j * t))) @ v.conj().T


def superposition_state(spec: ModelSpec, beta_mod: float, theta: float = 0.0) -> np.ndarray:
    """Build sqrt(1-b^2)*|g> + b*e^{-i*theta}*|e>; decompose() recovers (b, theta)."""
    alpha = np.sqrt(1.0 - beta_mod**2)
    return (
        alpha * spec.reference_ground_state
        + beta_mod * np.exp(-1.0j * theta) * spec.reference_excited_state
    )


def heisenberg_z_closed_form(t: float, coupling: float) -> HermitianOperator:
    """Z carried to hold time t by the Hadamard-type target with coupling J.

    Closed form: (1/sqrt(2))*H - (1/sqrt(2))*Y*sin(2Jt) + (1/2)*(Z-X)*cos(2Jt),
    equal to exp(+i*H_T*t) Z exp(-i*H_T*t) for H_T = -J*H.
    """
    sqrt2 = np.sqrt(2.0)
    angle = 2.0 * coupling * t
    m = (
        pauli("H").matrix / sqrt2
        - pauli("Y").matrix * (np.sin(angle) / sqrt2)
        + (pauli("Z").matrix - pauli("X").matrix) * (0.5 * np.cos(angle))
    )
    return HermitianOperator(m, f"Z(t={t:.12g})")
