"""End-to-end experiments: ramp, hold, diagnose, and write artifacts.

Artifacts are deterministic functions of the configuration: CSV series with
%.17g floats, a summary.json with sorted keys, and SVG plots with the
two-level predicted curve overlaid on every observable's record.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .analyze import diagnose, oscillation_stats, predicted_series
from .config import ConfigError, ExperimentConfig, _artifact_name
from .evolve import decompose, run_adiabatic
from .measure import _HOLD_BLOCK, TimeSeries, hold_series
from .model import AdiabaticSchedule, ModelSpec
from .svgplot import line_plot

__all__ = ["RunResult", "run_and_write", "run_experiment", "sweep", "write_artifacts"]

FLOAT_FMT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


def _csv_cell(x: str | int | float | None) -> str:
    """One sweep CSV cell: None empty, str as it is, int in full, float by FLOAT_FMT."""
    if x is None:
        return ""
    return str(x) if isinstance(x, (str, int)) else _fmt(x)


@dataclass
class RunResult:
    """Everything one experiment produced; summary is the JSON-ready view."""

    config: ExperimentConfig
    summary: dict
    series: dict[str, TimeSeries]
    predictions: dict[str, TimeSeries]


def _fields(result) -> dict:
    """A result dataclass as a summary object, without its unset fields."""
    return {k: v for k, v in asdict(result).items() if v is not None}


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Ramp, hold, and diagnose every configured observable.

    Each observable is diagnosed on the exact channel and, with shots, on the
    sampled one; the headline is the first observable's last channel.
    """
    cfg.validate()
    return _run(cfg, cfg.build_model(), cfg.build_schedule())


def _run(cfg: ExperimentConfig, spec: ModelSpec, schedule: AdiabaticSchedule) -> RunResult:
    """run_experiment on a validated cfg whose model and schedule are built."""
    prepared = run_adiabatic(spec, schedule, cfg.integrator)
    decomposition = decompose(prepared, spec)
    omega = spec.oscillation_angular_frequency
    channels = ("exact", "sampled") if cfg.shots > 0 else ("exact",)

    series_map: dict[str, TimeSeries] = {}
    predictions: dict[str, TimeSeries] = {}
    observables_summary: dict[str, dict] = {}

    for observable in spec.observables:
        series = hold_series(
            prepared,
            spec,
            observable,
            cfg.hold_duration,
            cfg.sample_dt_resolved,
            cfg.shots,
            cfg.seed,
        )
        series_map[observable.label] = series

        entry: dict = {}
        for channel in channels:
            stats = oscillation_stats(series, omega, channel=channel)
            noise_floor = 0.0
            if channel == "sampled":
                window = stats.window_size
                stderr = series.stderr_values[:window]
                noise_floor = float(np.mean(stderr**2))
                entry["stderr_point_mean"] = float(np.mean(stderr))
                # standard error of the window-averaged sampled mean
                entry["stderr_window_mean"] = float(np.sqrt(np.sum(stderr**2)) / window)
            diag = diagnose(stats, spec, observable, noise_floor=noise_floor, mean_estimator=cfg.mean_estimator)
            entry[f"stats_{channel}"] = _fields(stats)
            entry[f"diagnosis_{channel}"] = _fields(diag)
        observables_summary[observable.label] = entry

        predictions[observable.label] = predicted_series(decomposition, spec, series.times, observable)

    headline_label = spec.observables[0].label
    headline = observables_summary[headline_label][f"diagnosis_{channels[-1]}"]
    summary = {
        "config": cfg.to_dict(),
        "headline_observable": headline_label,
        "headline_channel": channels[-1],
        **{k: headline[k] for k in ("beta_sq", "raw_average", "corrected_value", "reference_value")},
        "state_decomposition": asdict(decomposition),
        "oscillation_angular_frequency": omega,
        "observables": observables_summary,
    }
    return RunResult(config=cfg, summary=summary, series=series_map, predictions=predictions)


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
    columns = [c for c in cells if c is not None]
    with path.open("w", encoding="utf-8") as f:
        f.write("\n".join(header) + "\n")
        # Python floats for one block of rows at a time: whole-record lists
        # would cost about 32 B per cell
        for start in range(0, series.n_points, _HOLD_BLOCK):
            block = [c[start : start + _HOLD_BLOCK].tolist() for c in columns]
            f.writelines(row % values for values in zip(*block))


def write_artifacts(result: RunResult) -> list[Path]:
    """Write the configured CSV/JSON/SVG artifacts; returns the paths."""
    cfg = result.config
    out = Path(cfg.outputs.directory)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if cfg.outputs.csv:
        for label, series in result.series.items():
            path = out / f"{_artifact_name(label)}.csv"
            _write_series_csv(path, series, cfg.total_time)
            written.append(path)

    if cfg.outputs.json:
        path = out / "summary.json"
        path.write_text(
            json.dumps(result.summary, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        written.append(path)

    if cfg.outputs.svg:
        for label, series in result.series.items():
            path = out / f"{_artifact_name(label)}.svg"
            curves = []
            if series.sampled_values is not None:
                curves.append(("sampled", series.sampled_values, "#9ecae1"))
            curves.append(("exact", series.exact_values, "#1f77b4"))
            curves.append(("predicted", result.predictions[label].exact_values, "#ff7f0e"))
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

    cache belongs to one sweep, whose values never change the model, so a
    sweep over shots builds each reference once and nothing outlives the call.
    """
    key = (schedule.total_time, schedule.step_width)
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
    empty for non-split integrators. Every value's config, model and
    schedule are built and checked before the first ramp, so a bad value
    fails the sweep before any of them runs.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(
            f"unknown sweep parameter {parameter!r}; choose from {sorted(SWEEP_PARAMETERS)}"
        )
    if not values:
        raise ConfigError("sweep needs at least one value")
    field_name = SWEEP_PARAMETERS[parameter]
    runs = []
    for value in values:
        if isinstance(value, (bool, np.bool_)):
            raise ConfigError(f"sweep value for {parameter} must be a number, got {value!r}")
        if parameter == "shots":
            # an int is taken as it is: float() rounds one above 2^53
            exact = isinstance(value, int)
            number = value if exact else float(value)
            if not (number >= 0 and (exact or number.is_integer())):
                raise ConfigError(f"sweep value for shots must be a nonnegative integer, got {value!r}")
            value = int(number)
        else:
            value = float(value)
        sub = replace(cfg, **{field_name: value})
        sub.validate()
        runs.append((value, sub, sub.build_model(), sub.build_schedule()))
    rows: list[dict] = []
    deviations: dict = {}
    for value, sub, spec, schedule in runs:
        result = _run(sub, spec, schedule)
        label = result.summary["headline_observable"]
        entry = result.summary["observables"][label]
        deviation = None
        if sub.integrator == "trotter2":
            deviation = _trotter_deviation(spec, schedule, deviations)
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
        lines = [",".join(rows[0])]
        lines += [",".join(_csv_cell(cell) for cell in row.values()) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows, path
