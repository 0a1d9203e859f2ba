"""Expectation values, projective shot sampling, and hold-phase records.

After the ramp ends the state evolves under the constant target; values are
recorded on a uniform time grid, exactly and (optionally) as averages of a
finite number of projective shots drawn from the observable's eigenbasis.
The hold record is computed over the whole grid at once: one row of a
(points, dim) array per grid point, with no Python loop per point.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .linalg import EigenSystem, as_state_vector, eig_hermitian
from .model import HermitianOperator, ModelSpec

__all__ = ["TimeSeries", "hold_series"]

_SEED_MASK = (1 << 64) - 1


def _shot_stream(seed: int, label: str) -> np.random.Generator:
    """The shot stream of one observable: seeded by (seed, crc32(label)), so
    adding an observable or reordering them does not disturb the shots drawn
    for the others, and every draw for a label starts its stream afresh."""
    digest = zlib.crc32(label.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed & _SEED_MASK, digest]))


def _residue_tolerance(m: np.ndarray) -> float:
    """Largest imaginary part <v|O|v> may keep: rounding scales with |O|."""
    return 1e-12 * max(1.0, float(np.max(np.abs(m))))


def _matvec_rows(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """m @ row for every row, as a stack of matrix-vector products; each row
    gets the bits a single `m @ row` gives, whatever the number of rows."""
    return (m @ rows[:, :, None])[:, :, 0]


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] for every row k (b may be one shared vector), as a stack of
    dot products with the bits of a single `a[k] @ b[k]`."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def _sample_means(
    states: np.ndarray, es: EigenSystem, shots: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per row of states, in order: the average of `shots` projective
    measurements in the eigenbasis es, drawn from gen, and its standard error."""
    lam = es.eigenvalues
    p = np.abs(_matvec_rows(es.eigenvectors.conj().T, states)) ** 2
    p = p / p.sum(axis=1, keepdims=True)
    # 2-D pvals draw row by row from gen, as one multinomial call per row would
    counts = gen.multinomial(int(shots), p)
    means = _dot_rows(counts, lam) / float(shots)
    variance = _dot_rows(p, lam**2) - _dot_rows(p, lam) ** 2
    return means, np.sqrt(np.maximum(variance, 0.0) / float(shots))


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled expectation record over the hold window.

    Times are offsets from the end of preparation (0 is the instant the
    ramp stops). sampled_values/stderr_values are None for exact-only runs.
    """

    times: np.ndarray
    exact_values: np.ndarray
    sampled_values: np.ndarray | None
    stderr_values: np.ndarray | None
    shots_per_point: int
    observable_label: str

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=np.float64)
        y = np.asarray(self.exact_values, dtype=np.float64)
        if t.ndim != 1 or t.shape[0] < 2:
            raise ValueError("a time series needs at least two points")
        if y.shape != t.shape:
            raise ValueError("exact_values shape does not match times")
        gaps = np.diff(t)
        if np.any(gaps <= 0.0) or float(np.max(np.abs(gaps - gaps[0]))) > 1e-12:
            raise ValueError("times must be strictly increasing with uniform spacing")
        if self.shots_per_point < 0:
            raise ValueError("shots_per_point must be >= 0")
        for name in ("sampled_values", "stderr_values"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=np.float64)
                if arr.shape != t.shape:
                    raise ValueError(f"{name} shape does not match times")
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        t.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "exact_values", y)

    @property
    def n_points(self) -> int:
        return self.times.shape[0]

    @property
    def spacing(self) -> float:
        return float(self.times[1] - self.times[0])


def hold_series(
    v_end: np.ndarray,
    spec: ModelSpec,
    observable: HermitianOperator,
    duration: float,
    sample_dt: float,
    shots: int,
    seed: int,
) -> TimeSeries:
    """Hold v_end under the constant target and record the observable.

    The state is propagated exactly in the target's eigenbasis. shots = 0
    records exact values only; otherwise each grid point also gets an
    average of `shots` projective measurements and its standard error, drawn
    from the shot stream that seed gives the observable's label.
    """
    if not (np.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration must be positive, got {duration!r}")
    if not (np.isfinite(sample_dt) and sample_dt > 0.0):
        raise ValueError(f"sample_dt must be positive, got {sample_dt!r}")
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots!r}")
    v = as_state_vector(v_end)
    if v.shape[0] != spec.dim or observable.dim != spec.dim:
        raise ValueError("state, model, and observable dimensions must agree")
    n = int(round(duration / sample_dt)) + 1
    if n < 2:
        raise ValueError("hold window shorter than one sample interval")
    times = np.arange(n, dtype=np.float64) * sample_dt
    es = eig_hermitian(spec.target.matrix)
    vectors = es.eigenvectors
    coeff = vectors.conj().T @ v
    phased = np.exp(-1j * np.outer(times, es.eigenvalues)) * coeff
    states = _matvec_rows(vectors, phased)
    values = _dot_rows(states.conj(), _matvec_rows(observable.matrix, states))
    residue = float(np.max(np.abs(values.imag)))
    if residue > _residue_tolerance(observable.matrix):
        raise ArithmeticError(f"expectation has imaginary residue {residue:.3e}")
    exact = values.real

    sampled = stderr = None
    if shots > 0:
        o_es = eig_hermitian(observable.matrix)
        sampled, stderr = _sample_means(states, o_es, shots, _shot_stream(seed, observable.label))

    return TimeSeries(
        times=times,
        exact_values=exact,
        sampled_values=sampled,
        stderr_values=stderr,
        shots_per_point=int(shots),
        observable_label=observable.label,
    )
