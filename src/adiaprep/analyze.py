"""Oscillation statistics and the residual-excitation diagnosis.

A state a|g> + b|e> held under the target makes every observable with an
off-diagonal element beat at the level splitting. Windowed over whole
periods, the record's variance equals 2*|ab|^2*|O_ge|^2, so the variance
hands back the excitation weight |b|^2 without knowing the state; that
weight then removes the bias it imprints on the time-averaged expectation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import ResidualDecomposition
from .measure import TimeSeries, _residue_tolerance
from .model import HermitianOperator, ModelSpec

__all__ = [
    "OscillationStats",
    "VacuumDiagnosis",
    "diagnose",
    "oscillation_stats",
    "predicted_series",
]

MIN_SAMPLES_PER_PERIOD = 16
# each names the OscillationStats field mean_<estimator>
MEAN_ESTIMATORS = ("minmax", "arith")


@dataclass(frozen=True)
class OscillationStats:
    """Windowed statistics of a hold record over whole oscillation periods.

    mean_minmax is the midpoint of the extremes (insensitive to how the
    grid phases align with the peaks); mean_arith and variance are taken
    over the half-open window of window_size points covering exactly
    window_periods periods, so commensurate grids give them exactly.
    """

    mean_minmax: float
    mean_arith: float
    variance: float
    peak_to_peak: float
    amplitude: float
    window_periods: int
    window_size: int

    def __post_init__(self) -> None:
        if self.variance < 0.0 or self.peak_to_peak < 0.0:
            raise ValueError("variance and peak_to_peak must be nonnegative")
        if self.window_periods < 1 or self.window_size < 2:
            raise ValueError("window must cover at least one period of two samples")
        # a pure tone has variance amplitude^2/2; anything above amplitude^2
        # means the window arithmetic went wrong
        if self.variance > self.amplitude**2 * 1.01 + 1e-15:
            raise ValueError(
                f"variance {self.variance!r} inconsistent with amplitude {self.amplitude!r}"
            )


class _HoldGridError(ValueError):
    """A hold record too coarse or too short to show the beat; field names
    the config field that sets it."""

    def __init__(self, message: str, field: str) -> None:
        super().__init__(message)
        self.field = field


def _beat_window(spacing: float, span: float, angular_frequency: float) -> tuple[float, int]:
    """Samples per beat period and whole beat periods in a record of this
    spacing and span. Fewer than MIN_SAMPLES_PER_PERIOD samples per period
    alias the beat, and less than one period has no window."""
    period = 2.0 * np.pi / angular_frequency
    per_period = period / spacing
    if per_period < MIN_SAMPLES_PER_PERIOD - 1e-9:
        raise _HoldGridError(
            f"{per_period:.3g} samples per period; need at least {MIN_SAMPLES_PER_PERIOD}",
            "sample_dt",
        )
    periods = int(np.floor(span / period + 1e-9))
    if periods < 1:
        raise _HoldGridError(
            f"record spans {span / period:.3g} periods; need at least one", "hold_duration"
        )
    return per_period, periods


def oscillation_stats(
    series: TimeSeries,
    angular_frequency: float,
    *,
    channel: str = "exact",
) -> OscillationStats:
    """Window the series to whole periods of the given beat frequency.

    Requires at least one whole period in the record and at least
    MIN_SAMPLES_PER_PERIOD samples per period; coarser grids alias the
    beat and the variance loses its meaning.
    """
    if not (np.isfinite(angular_frequency) and angular_frequency > 0.0):
        raise ValueError(f"angular_frequency must be positive, got {angular_frequency!r}")
    if channel == "exact":
        values = series.exact_values
    elif channel == "sampled":
        if series.sampled_values is None:
            raise ValueError("series has no sampled channel")
        values = series.sampled_values
    else:
        raise ValueError(f"channel must be 'exact' or 'sampled', got {channel!r}")

    span = float(series.times[-1] - series.times[0])
    per_period, periods = _beat_window(series.spacing, span, angular_frequency)
    # half-open window [0, periods*period): commensurate grids sum whole
    # cosine periods exactly, which is what makes the variance identity exact
    q = int(np.floor(periods * per_period + 1e-9))
    q = min(q, series.n_points - 1)
    window = values[:q]
    closed = values[: q + 1]
    vmax = float(np.max(closed))
    vmin = float(np.min(closed))
    return OscillationStats(
        mean_minmax=0.5 * (vmax + vmin),
        mean_arith=float(np.mean(window)),
        variance=float(np.var(window)),
        peak_to_peak=vmax - vmin,
        amplitude=0.5 * (vmax - vmin),
        window_periods=periods,
        window_size=q,
    )


@dataclass(frozen=True)
class VacuumDiagnosis:
    """Excitation weight inferred from a hold record, and the corrected average.

    beta_sq is the smaller root of b*(1-b) = alpha_beta_sq; beta_sq_shortcut
    is the |alpha| ~ 1 approximation beta_sq ~ alpha_beta_sq. The record
    oscillates around O_gg*(1 + beta_sq*(O_ee/O_gg - 1)), and dividing that
    factor out restores the ground-state value reference_value = O_gg; with
    O_gg = 0 the offset beta_sq*O_ee is subtracted instead. model_kind is
    "anticommuting" when O_gg and O_ee are both zero, and only then is
    predicted_conserved, the conserved companion's value -1 + 2*beta_sq, set.
    """

    beta_sq: float
    alpha_beta_sq: float
    raw_average: float
    corrected_value: float
    reference_value: float
    model_kind: str
    beta_sq_shortcut: float
    noise_floor: float = 0.0
    predicted_conserved: float | None = None


def _effective_variance(variance: float, noise_floor: float) -> float:
    if noise_floor < 0.0:
        raise ValueError(f"noise_floor must be >= 0, got {noise_floor!r}")
    return max(variance - noise_floor, 0.0)


def _smaller_weight_root(alpha_beta_sq: float) -> float:
    """Solve b*(1-b) = alpha_beta_sq for the root below 1/2."""
    discriminant = 1.0 - 4.0 * alpha_beta_sq
    # the boundary |ab|^2 = 1/4 (equal weights) must reject even when float
    # rounding leaves the discriminant a hair positive
    if discriminant <= 1e-12:
        raise ValueError(
            f"|alpha*beta|^2 = {alpha_beta_sq!r} implies excitation weight >= 1/2; "
            "the record is not dominated by the ground state"
        )
    return 0.5 * (1.0 - np.sqrt(discriminant))


def _pick_mean(stats: OscillationStats, estimator: str) -> float:
    if estimator not in MEAN_ESTIMATORS:
        choices = " or ".join(map(repr, MEAN_ESTIMATORS))
        raise ValueError(f"mean_estimator must be {choices}, got {estimator!r}")
    return getattr(stats, f"mean_{estimator}")


def diagnose(
    stats: OscillationStats,
    spec: ModelSpec,
    observable: HermitianOperator,
    *,
    noise_floor: float = 0.0,
    mean_estimator: str = "minmax",
) -> VacuumDiagnosis:
    """Diagnose a hold record from the observable's elements on the reference pair.

    The record of a|g> + b|e> has variance 2*|ab|^2*|O_ge|^2 and mean
    O_gg + b^2*(O_ee - O_gg). Elements below the rounding tolerance count as
    zero. An observable with O_ge = 0 does not beat: its variance is rounding
    or shot noise, scaled by O_gg^2 (1 if O_gg = 0), and reports beta_sq 0.
    """
    tol = _residue_tolerance(observable.matrix)
    o_gg, o_ee, o_ge = (0.0 if abs(x) <= tol else x for x in spec.pair_elements(observable))
    variance = _effective_variance(stats.variance, noise_floor)
    if o_ge:
        alpha_beta_sq = variance / (2.0 * abs(o_ge) ** 2)
        beta_sq = _smaller_weight_root(alpha_beta_sq)
    else:
        alpha_beta_sq = variance / (2.0 * (o_gg * o_gg or 1.0))
        beta_sq = 0.0
    raw = _pick_mean(stats, mean_estimator)
    if o_gg:
        corrected = raw / (1.0 + beta_sq * (o_ee / o_gg - 1.0))
    else:
        corrected = raw - beta_sq * o_ee
    anticommuting = not (o_gg or o_ee)
    return VacuumDiagnosis(
        beta_sq=beta_sq,
        alpha_beta_sq=alpha_beta_sq,
        raw_average=raw,
        corrected_value=corrected,
        reference_value=o_gg,
        model_kind="anticommuting" if anticommuting else "general",
        beta_sq_shortcut=alpha_beta_sq,
        noise_floor=noise_floor,
        predicted_conserved=-1.0 + 2.0 * beta_sq if anticommuting else None,
    )


def predicted_series(
    decomposition: ResidualDecomposition,
    spec: ModelSpec,
    times: np.ndarray,
    observable: HermitianOperator,
) -> TimeSeries:
    """Hold record implied by a residual decomposition, for any observable.

    The state a|g> + b*e^{-i*theta}|e> held under the target gives
    a^2*O_gg + b^2*O_ee + 2ab*Re(e^{-i(w*t + theta)}*O_ge), O_xy = <x|O|y>.
    """
    o_gg, o_ee, o_ge = spec.pair_elements(observable)
    a, b = decomposition.alpha_mod, decomposition.beta_mod
    t = np.asarray(times, dtype=np.float64)
    phase = spec.oscillation_angular_frequency * t + decomposition.theta
    y = a * a * o_gg + b * b * o_ee + 2.0 * a * b * (np.exp(-1j * phase) * o_ge).real
    return TimeSeries(t, y, None, None, 0, f"{observable.label} (predicted)")
