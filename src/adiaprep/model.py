"""Hamiltonians, observables, and the linear ramp between them.

The sweep Hamiltonian is H(s) = (1-s)*H_initial + s*H_target with s = t/T.
A ModelSpec carries the target's reference ground/excited pair, gives any
operator's elements O_gg, O_ee and O_ge on it, and reads off that pair the
frequency E_e - E_g at which a state held on it beats. Two single-qubit
benchmark models are built in: a bit-flip target (-J*X) and a Hadamard-type
target (-J*H) whose ground state is not a Pauli eigenstate.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .linalg import _jacobi_rotation, as_complex_matrix, as_state_vector

__all__ = [
    "AdiabaticSchedule",
    "BUILTIN_MODELS",
    "HermitianOperator",
    "ModelSpec",
    "model_one",
    "model_two",
    "observable_from_label",
    "pauli",
]

_PAULI: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}
_PAULI["H"] = (_PAULI["X"] + _PAULI["Z"]) / float(np.sqrt(2.0))


@dataclass(frozen=True)
class HermitianOperator:
    """A labelled Hermitian matrix; serves as Hamiltonian or observable."""

    matrix: np.ndarray
    label: str

    def __post_init__(self) -> None:
        try:
            m = as_complex_matrix(self.matrix)
        except ValueError as exc:
            raise ValueError(f"operator {self.label!r}: {exc}") from exc
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def pauli(name: str) -> HermitianOperator:
    """One of I, X, Y, Z, or the Hadamard matrix H = (X+Z)/sqrt(2)."""
    try:
        return HermitianOperator(_PAULI[name], name)
    except KeyError:
        raise ValueError(f"unknown operator {name!r}; known: {', '.join(sorted(_PAULI))}") from None


def observable_from_label(label: str) -> HermitianOperator:
    """Resolve labels like "Z" or "-X" to operators, keeping the sign in the label."""
    bare = label[1:] if label.startswith("-") else label
    op = pauli(bare)
    if label.startswith("-"):
        return HermitianOperator(-op.matrix, label)
    return op


@dataclass(frozen=True)
class AdiabaticSchedule:
    """Linear ramp profile s(t) = t/T in num_steps steps of fixed width, at
    most 2^53, the largest count whose step indices are exact doubles."""

    total_time: float
    step_width: float
    num_steps: int = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.total_time <= sys.float_info.max:
            raise ValueError(f"total_time must be positive and finite, got {self.total_time!r}")
        if not 0.0 < self.step_width <= sys.float_info.max:
            raise ValueError(f"step_width must be positive and finite, got {self.step_width!r}")
        ratio = self.total_time / self.step_width
        if not ratio <= 2.0**53:
            raise ValueError(f"a ramp of {self.total_time!r} has too many steps of {self.step_width!r}")
        n = int(round(ratio))
        if n < 1:
            raise ValueError(
                f"step_width {self.step_width} exceeds twice the total time {self.total_time}"
            )
        if abs(ratio - n) > 1e-9:
            raise ValueError(
                f"step_width {self.step_width!r} does not divide total_time "
                f"{self.total_time!r} (ratio {ratio!r})"
            )
        object.__setattr__(self, "num_steps", n)

    def s(self, t: float) -> float:
        """Ramp parameter at time t, clipped to [0, 1]."""
        return min(max(t / self.total_time, 0.0), 1.0)


@dataclass(frozen=True)
class ModelSpec:
    """A preparation problem: initial and target Hamiltonians, observables,
    and the target's reference ground/excited pair used for diagnosis.
    pair_elements gives any operator's elements on that pair.

    oscillation_angular_frequency is the beat of a held a|g> + b|e>, the
    reference splitting E_e - E_g of pair_elements(target).
    """

    initial: HermitianOperator
    target: HermitianOperator
    observables: tuple[HermitianOperator, ...]
    reference_ground_state: np.ndarray
    reference_excited_state: np.ndarray
    oscillation_angular_frequency: float = field(init=False)

    def __post_init__(self) -> None:
        dim = self.target.dim
        if dim < 2:
            raise ValueError("target must act on at least a two-level system")
        if self.initial.dim != dim:
            raise ValueError(
                f"initial Hamiltonian dimension {self.initial.dim} != target dimension {dim}"
            )
        obs = tuple(self.observables)
        for o in obs:
            if o.dim != dim:
                raise ValueError(f"observable {o.label!r} dimension {o.dim} != {dim}")
        object.__setattr__(self, "observables", obs)
        g = as_state_vector(self.reference_ground_state)
        e = as_state_vector(self.reference_excited_state)
        if g.shape[0] != dim or e.shape[0] != dim:
            raise ValueError("reference states must match the Hamiltonian dimension")
        overlap = abs(np.vdot(g, e))
        if overlap > 1e-10:
            raise ValueError(f"reference states are not orthogonal (|<g|e>| = {overlap:.3e})")
        g.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "reference_ground_state", g)
        object.__setattr__(self, "reference_excited_state", e)
        e_gg, e_ee = map(float, self.pair_elements(self.target)[:2])
        for name, vec, energy in (("ground", g, e_gg), ("excited", e, e_ee)):
            residual = float(np.linalg.norm(self.target.matrix @ vec - energy * vec))
            if residual > 1e-10:
                raise ValueError(
                    f"reference {name} state is not a target eigenvector (residual {residual:.3e})"
                )
        if e_gg >= e_ee:
            raise ValueError(
                f"reference ground energy {e_gg!r} is not below the excited energy {e_ee!r}"
            )
        object.__setattr__(self, "oscillation_angular_frequency", e_ee - e_gg)

    @property
    def dim(self) -> int:
        return self.target.dim

    def pair_elements(self, operator: HermitianOperator) -> tuple[float, float, complex]:
        """(O_gg, O_ee, O_ge) on the reference pair, O_xy = <x|O|y>."""
        if operator.dim != self.dim:
            raise ValueError(
                f"observable {operator.label!r} dimension {operator.dim} != model dimension {self.dim}"
            )
        g, e, o = self.reference_ground_state, self.reference_excited_state, operator.matrix
        return np.vdot(g, o @ g).real, np.vdot(e, o @ e).real, np.vdot(g, o @ e)


def _builtin_model(coupling: float, target: str, tau: float) -> ModelSpec:
    """Ramp -J*Z into -J*target, whose reference pair is eig_hermitian's one
    Jacobi rotation at the target's tau = (h11 - h00) / (2|h01|), exact at any J."""
    if not (np.isfinite(coupling) and coupling > 0.0):
        raise ValueError(f"coupling must be positive, got {coupling!r}")
    j = float(coupling)
    t, c = _jacobi_rotation(tau)
    return ModelSpec(
        initial=HermitianOperator(-j * _PAULI["Z"], "-J*Z"),
        target=HermitianOperator(-j * _PAULI[target], f"-J*{target}"),
        observables=(),
        reference_ground_state=np.array([c, t * c], dtype=np.complex128),
        reference_excited_state=np.array([t * c, -c], dtype=np.complex128),
    )


def model_one(coupling: float) -> ModelSpec:
    """Bit-flip benchmark: ramp -J*Z into -J*X, whose pair is (|+>, |->).

    Z anti-commutes with the target, so any residual excitation makes <Z>
    oscillate around zero during the hold; -X commutes and is conserved.
    """
    return _builtin_model(coupling, "X", 0.0)


def model_two(coupling: float) -> ModelSpec:
    """Hadamard benchmark: ramp -J*Z into -J*H.

    The target ground state (cos(pi/8), sin(pi/8)) has <Z> = 1/sqrt(2), so
    the hold-phase <Z> record oscillates around an offset and its time
    average is biased by the excited-state weight.
    """
    return _builtin_model(coupling, "H", 1.0)


# the built-in models by config name
BUILTIN_MODELS = {"model1": model_one, "model2": model_two}
