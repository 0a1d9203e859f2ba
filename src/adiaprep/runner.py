"""End-to-end experiments: ramp, hold, diagnose, and write artifacts.

Artifacts are deterministic functions of the configuration: CSV series with
%.17g floats, a summary.json with sorted keys, and SVG plots with the
closed-form predicted curve overlaid where one exists.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analyze import (
    OscillationStats,
    VacuumDiagnosis,
    diagnose_anticommuting,
    diagnose_general,
    oscillation_stats,
    predicted_series,
)
from .config import ConfigError, ExperimentConfig
from .evolve import ResidualDecomposition, decompose, run_adiabatic
from .measure import ShotSampler, TimeSeries, expectation, hold_series
from .model import AdiabaticSchedule, HermitianOperator, ModelSpec
from .svgplot import line_plot

__all__ = ["RunResult", "run_and_write", "run_experiment", "sweep", "write_artifacts"]

FLOAT_FMT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


@dataclass
class RunResult:
    """Everything one experiment produced; summary is the JSON-ready view."""

    config: ExperimentConfig
    summary: dict
    series: dict[str, TimeSeries]
    predictions: dict[str, TimeSeries]
    decomposition: ResidualDecomposition
    elapsed_seconds: float


def _anticommutes_with_target(observable: HermitianOperator, spec: ModelSpec) -> bool:
    o = observable.matrix
    h = spec.target.matrix
    defect = float(np.max(np.abs(o @ h + h @ o)))
    scale = max(1.0, float(np.max(np.abs(o))) * float(np.max(np.abs(h))))
    return defect <= 1e-10 * scale


def _diagnose(
    spec: ModelSpec,
    observable: HermitianOperator,
    stats: OscillationStats,
    noise_floor: float,
    mean_estimator: str,
) -> VacuumDiagnosis:
    if _anticommutes_with_target(observable, spec):
        return diagnose_anticommuting(
            stats, noise_floor=noise_floor, mean_estimator=mean_estimator
        )
    c = expectation(spec.reference_ground_state, observable)
    return diagnose_general(stats, c, noise_floor=noise_floor, mean_estimator=mean_estimator)


def _stats_dict(stats: OscillationStats) -> dict:
    return {
        "mean_minmax": float(stats.mean_minmax),
        "mean_arith": float(stats.mean_arith),
        "variance": float(stats.variance),
        "peak_to_peak": float(stats.peak_to_peak),
        "amplitude": float(stats.amplitude),
        "window_periods": int(stats.window_periods),
        "window_size": int(stats.window_size),
    }


def _diagnosis_dict(diag: VacuumDiagnosis) -> dict:
    d = {
        "beta_sq": float(diag.beta_sq),
        "alpha_beta_sq": float(diag.alpha_beta_sq),
        "beta_sq_shortcut": float(diag.beta_sq_shortcut),
        "raw_average": float(diag.raw_average),
        "corrected_value": float(diag.corrected_value),
        "reference_value": float(diag.reference_value),
        "model_kind": diag.model_kind,
        "noise_floor": float(diag.noise_floor),
    }
    if diag.predicted_conserved is not None:
        d["predicted_conserved"] = float(diag.predicted_conserved)
    return d


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Ramp, hold, and diagnose every configured observable."""
    cfg.validate()
    started = time.perf_counter()
    spec = cfg.build_model()
    schedule = cfg.build_schedule()
    sampler = ShotSampler(cfg.seed)

    prepared = run_adiabatic(spec, schedule, cfg.integrator)
    decomposition = decompose(prepared, spec)
    omega = spec.oscillation_angular_frequency()

    series_map: dict[str, TimeSeries] = {}
    predictions: dict[str, TimeSeries] = {}
    observables_summary: dict[str, dict] = {}
    headline: dict | None = None

    for observable in spec.observables:
        series = hold_series(
            prepared,
            spec,
            observable,
            cfg.hold_duration,
            cfg.sample_dt_resolved,
            cfg.shots,
            sampler,
        )
        series_map[observable.label] = series

        stats_exact = oscillation_stats(series, omega, channel="exact")
        diag_exact = _diagnose(spec, observable, stats_exact, 0.0, cfg.mean_estimator)
        entry = {
            "stats_exact": _stats_dict(stats_exact),
            "diagnosis_exact": _diagnosis_dict(diag_exact),
        }

        chosen = diag_exact
        channel = "exact"
        if cfg.shots > 0:
            stats_sampled = oscillation_stats(series, omega, channel="sampled")
            window = stats_sampled.window_size
            floor = float(np.mean(series.stderr_values[:window] ** 2))
            diag_sampled = _diagnose(spec, observable, stats_sampled, floor, cfg.mean_estimator)
            entry["stats_sampled"] = _stats_dict(stats_sampled)
            entry["diagnosis_sampled"] = _diagnosis_dict(diag_sampled)
            entry["stderr_point_mean"] = float(np.mean(series.stderr_values[:window]))
            # standard error of the window-averaged sampled mean
            entry["stderr_window_mean"] = float(
                np.sqrt(np.sum(series.stderr_values[:window] ** 2)) / window
            )
            chosen = diag_sampled
            channel = "sampled"
        observables_summary[observable.label] = entry

        if headline is None:
            headline = {
                "observable": observable.label,
                "channel": channel,
                "diagnosis": chosen,
            }

        if spec.kind in ("model1", "model2"):
            try:
                predictions[observable.label] = predicted_series(
                    decomposition, spec, series.times, observable.label
                )
            except ValueError:
                pass

    assert headline is not None
    chosen = headline["diagnosis"]
    summary = {
        "config": cfg.to_dict(),
        "headline_observable": headline["observable"],
        "headline_channel": headline["channel"],
        "beta_sq": float(chosen.beta_sq),
        "raw_average": float(chosen.raw_average),
        "corrected_value": float(chosen.corrected_value),
        "reference_value": float(chosen.reference_value),
        "state_decomposition": {
            "alpha_mod": float(decomposition.alpha_mod),
            "beta_mod": float(decomposition.beta_mod),
            "beta_sq": float(decomposition.beta_sq),
            "theta": float(decomposition.theta),
            "theta_defined": bool(decomposition.theta_defined),
        },
        "oscillation_angular_frequency": float(omega),
        "observables": observables_summary,
    }
    elapsed = time.perf_counter() - started
    return RunResult(
        config=cfg,
        summary=summary,
        series=series_map,
        predictions=predictions,
        decomposition=decomposition,
        elapsed_seconds=elapsed,
    )


def _series_filename(label: str) -> str:
    safe = "".join(ch if (ch.isalnum() or ch in "+-_") else "_" for ch in label)
    return f"series_{safe}.csv"


def _write_series_csv(path: Path, series: TimeSeries, total_time: float) -> None:
    header = [
        f"# observable {series.observable_label}",
        "# t is the hold time since the end of preparation; "
        f"absolute time = t + {_fmt(total_time)}",
        f"# shots per point: {series.shots_per_point}",
        "t,exact,sampled,stderr",
    ]
    cells = (series.times, series.exact_values, series.sampled_values, series.stderr_values)
    row = ",".join("" if c is None else FLOAT_FMT for c in cells) + "\n"
    columns = [c.tolist() for c in cells if c is not None]
    with path.open("w", encoding="utf-8") as f:
        f.write("\n".join(header) + "\n")
        f.writelines(row % values for values in zip(*columns))


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


def write_artifacts(result: RunResult) -> list[Path]:
    """Write the configured CSV/JSON/SVG artifacts; returns the paths."""
    cfg = result.config
    out = Path(cfg.outputs.directory)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if cfg.outputs.csv:
        for label, series in result.series.items():
            path = out / _series_filename(label)
            _write_series_csv(path, series, cfg.total_time)
            written.append(path)

    if cfg.outputs.json:
        path = out / "summary.json"
        path.write_text(
            json.dumps(_jsonable(result.summary), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        written.append(path)

    if cfg.outputs.svg:
        for label, series in result.series.items():
            path = out / (_series_filename(label)[: -len(".csv")] + ".svg")
            curves = []
            if series.sampled_values is not None:
                curves.append(("sampled", series.sampled_values, "#9ecae1"))
            curves.append(("exact", series.exact_values, "#1f77b4"))
            prediction = result.predictions.get(label)
            if prediction is not None:
                curves.append(("predicted", prediction.exact_values, "#ff7f0e"))
            line_plot(
                path,
                series.times,
                curves,
                title=f"<{label}> during the hold",
                xlabel="hold time",
                ylabel=f"<{label}>",
            )
            written.append(path)
    return written


def run_and_write(cfg: ExperimentConfig) -> tuple[RunResult, list[Path]]:
    result = run_experiment(cfg)
    return result, write_artifacts(result)


SWEEP_PARAMETERS = {"T": "total_time", "dt": "step_width", "shots": "shots"}
_REFERENCE_REFINEMENT = 64


def _trotter_deviation(spec: ModelSpec, schedule: AdiabaticSchedule, cache: dict) -> float:
    """Norm distance between the split-step ramp and a fine reference ramp.

    cache belongs to one sweep, so a sweep over shots builds each reference
    once and nothing outlives the call.
    """
    key = (
        spec.initial.matrix.tobytes(),
        spec.target.matrix.tobytes(),
        schedule.total_time,
        schedule.step_width,
    )
    if key not in cache:
        coarse = run_adiabatic(spec, schedule, "trotter2")
        fine = AdiabaticSchedule(
            schedule.total_time, schedule.step_width / _REFERENCE_REFINEMENT
        )
        reference = run_adiabatic(spec, fine, "exact-midpoint")
        cache[key] = float(np.linalg.norm(coarse - reference))
    return cache[key]


def sweep(
    cfg: ExperimentConfig, parameter: str, values: list
) -> tuple[list[dict], Path | None]:
    """Re-run the experiment for each value of one parameter.

    Emits one summary row per value, in input order, to
    <outputs.directory>/sweep_<parameter>.csv. Headline numbers follow the
    run's headline channel; the trotter_deviation column compares the
    split-step ramp against an exact-midpoint ramp at step_width/64 and is
    empty for non-split integrators.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(
            f"unknown sweep parameter {parameter!r}; choose from {sorted(SWEEP_PARAMETERS)}"
        )
    if not values:
        raise ConfigError("sweep needs at least one value")
    field_name = SWEEP_PARAMETERS[parameter]
    rows: list[dict] = []
    deviations: dict = {}
    for value in values:
        if parameter == "shots":
            if float(value) != int(float(value)) or float(value) < 0:
                raise ConfigError(f"sweep value for shots must be a nonnegative integer, got {value!r}")
            value = int(float(value))
        else:
            value = float(value)
        sub = replace(cfg, **{field_name: value})
        sub.validate()
        result = run_experiment(sub)
        label = result.summary["headline_observable"]
        entry = result.summary["observables"][label]
        deviation = None
        if sub.integrator == "trotter2":
            deviation = _trotter_deviation(sub.build_model(), sub.build_schedule(), deviations)
        rows.append(
            {
                "parameter": parameter,
                "value": value,
                "beta_sq": result.summary["beta_sq"],
                "raw_average": result.summary["raw_average"],
                "corrected_value": result.summary["corrected_value"],
                "reference_value": result.summary["reference_value"],
                "stderr": entry.get("stderr_window_mean"),
                "trotter_deviation": deviation,
            }
        )

    path = None
    if cfg.outputs.csv:
        out = Path(cfg.outputs.directory)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"sweep_{parameter}.csv"
        lines = ["parameter,value,beta_sq,raw_average,corrected_value,reference_value,stderr,trotter_deviation"]
        for row in rows:
            cells = [
                row["parameter"],
                _fmt(row["value"]) if parameter != "shots" else str(row["value"]),
                _fmt(row["beta_sq"]),
                _fmt(row["raw_average"]),
                _fmt(row["corrected_value"]),
                _fmt(row["reference_value"]),
                "" if row["stderr"] is None else _fmt(row["stderr"]),
                "" if row["trotter_deviation"] is None else _fmt(row["trotter_deviation"]),
            ]
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows, path
