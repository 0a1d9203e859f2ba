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
from .linalg import _read_only
from .measure import TimeSeries, hold_series
from .model import AdiabaticSchedule, ModelSpec
from .svgplot import line_plot

__all__ = ["RunResult", "run_and_write", "run_experiment", "sweep", "write_artifacts"]

FLOAT_FMT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


# The series CSV kernel, _format_rows, writes FLOAT_FMT for a block of cells
# at once. Each cell gets a slot that holds every byte its text may need, and
# a keep mask picks them: the sign, "0.", the five 4-digit groups of its
# 17-digit integer ("000" and the 17 digits), "." and the last 16 digits again.
_DIGITS = 17
_SLOT = 3 + 20 + 1 + 16
_POINT = 23  # slot position of the "."; digit j sits at 6 + j and at _POINT + j
# hold-record rows per formatted block: half a hold block keeps the block's
# arrays near what one hold block of rows took as Python strings
_CSV_BLOCK = 512


# 10^p for p = 0..22, every one an exact double, and its Veltkamp split
_POW10 = _read_only(np.concatenate(([1.0], np.cumprod(np.full(22, 10.0)))))
_POW10_HI = _read_only(134217729.0 * _POW10 - (134217729.0 * _POW10 - _POW10))
_POW10_LO = _read_only(_POW10 - _POW10_HI)


def _quads() -> np.ndarray:
    """The four ASCII digits of each of 0..9999, packed in one uint32."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        quads[..., place] = digit.reshape((10,) + (1,) * (3 - place))
    return _read_only(quads.view(np.uint32).ravel())


_QUADS = _quads()


def _keep_table() -> np.ndarray:
    """Slot bytes kept, by (decimal exponent X + 4) * 18 + significant digits
    nd, for the fixed notation %.17g uses at -4 <= X <= 16. The sign byte,
    slot position 0, is left to the caller."""
    # float grids: int64 comparisons would map numpy loops nothing else runs
    x = np.arange(-4.0, 17.0)[:, None, None]
    nd = np.arange(_DIGITS + 1.0)[None, :, None]
    pos = np.arange(float(_SLOT))[None, None, :]
    keep = np.where(
        x < 0,
        # "0.", then -X - 1 of the zeros before the first digit, then nd digits
        (pos == 1) | (pos == 2) | (pos >= 7 + x) & (pos <= 5 + nd),
        # X + 1 integer digits, then "." and the rest if any digit is left
        (pos >= 6) & (pos <= 6 + x)
        | (nd > x + 1) & ((pos == _POINT) | (pos > _POINT + x) & (pos < _POINT + nd)),
    )
    return _read_only(keep.reshape(-1, _SLOT))


_KEEP = _keep_table()


def _times_pow10(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^p exactly, as hi + lo with hi the rounded product (Dekker's
    TwoProduct on Veltkamp splits: exact while nothing overflows)."""
    c = 134217729.0 * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    hi = a * _POW10[p]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per cell of x: whether %.17g writes it in fixed notation, its decimal
    exponent X, and D = round-half-even(|x| * 10^(16 - X)), its 17
    significant digits, as D // 1e8 and D % 1e8.

    The product is formed exactly as a double-double, so D is exact for every
    cell with 1e-5 <= |x| < 1e17; fixed notation, -4 <= X <= 16, lies inside.
    The later steps are float arithmetic on integers below 2^53, each exact
    or corrected.
    """
    a = np.abs(x)
    fixed = (a >= 1e-5) & (a < 1e17)
    a[~fixed] = 1.0
    exponent = np.clip(np.floor(np.log10(a)), -6.0, 16.0)
    hi, lo = _times_pow10(a, (16 - exponent).astype(np.intp))
    # log10 may miss X by one next to a power of ten: compare hi + lo exactly
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    if up.any() or down.any():
        exponent[up] += 1.0
        exponent[down] -= 1.0
        hi, lo = _times_pow10(a, (16 - exponent).astype(np.intp))
    # D = hi + rint(lo): hi is an even integer here, so rint's ties to even
    # round hi + lo half to even. D never rounds up to 10^17: the largest
    # double below each power of ten here is at least 8 units of the 17th
    # digit below it. Split D = upper * 1e8 + lower: the rounded quotient may
    # floor one too high, and rint(lo) < 0 may take lower below a multiple of
    # 1e8; either way lower ends up just below 0.
    upper = np.floor(hi / 1e8)
    lower = hi - upper * 1e8 + np.rint(lo)
    under = lower < 0.0
    upper[under] -= 1.0
    lower[under] += 1e8
    fixed &= exponent >= -4.0
    return fixed, exponent.astype(np.intp), upper, lower


def _digits(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """The ASCII of each D = upper * 1e8 + lower after three "0"s, one row of
    20 bytes per cell, from D's five 4-digit groups."""
    groups = np.empty((upper.size, 5), np.intp)
    groups[:, 0] = lead = np.floor(upper / 1e8)
    upper = upper - lead * 1e8
    groups[:, 1] = quad = np.floor(upper / 1e4)
    groups[:, 2] = upper - quad * 1e4
    groups[:, 3] = quad = np.floor(lower / 1e4)
    groups[:, 4] = lower - quad * 1e4
    return np.take(_QUADS, groups).view(np.uint8)


def _keep_mask(
    template: np.ndarray, fixed: np.ndarray, exponent: np.ndarray, digits: np.ndarray
) -> np.ndarray:
    """The slot bytes each cell keeps: its _KEEP row, by exponent and number
    of significant digits, then its column's separator from the template."""
    cols, width = template.shape
    nd = _DIGITS - np.argmax(np.greater(digits[:, :2:-1], ord("0"), order="C"), axis=1)
    code = np.where(fixed, (exponent + 4) * (_DIGITS + 1) + nd, 0).reshape(-1, cols)
    code += np.arange(cols) * _KEEP.shape[0]
    keep = np.empty((cols, _KEEP.shape[0], width), np.bool_)
    keep[:, :, :_SLOT] = _KEEP
    keep[:, :, _SLOT:] = template[:, None, _SLOT:] > 0
    return np.take(keep.reshape(-1, width), code.ravel(), axis=0)


def _format_rows(block: np.ndarray, seps: list[bytes]) -> np.ndarray:
    """FLOAT_FMT % x for every cell of a (rows, columns) float64 block, each
    cell followed by its column's separator, as one uint8 array of ASCII.

    Cells in fixed notation, 1e-4 <= |x| < 1e17 once rounded, are spelled
    from their exact 17-digit integer (see _decimal). Every other cell (0,
    -0, smaller or larger magnitudes, nan, inf) is formatted by FLOAT_FMT on
    its own.
    """
    rows, cols = block.shape
    width = _SLOT + max(map(len, seps))
    slot = b"-0." + b"0" * 20 + b"." + b"0" * 16
    template = np.frombuffer(
        b"".join(slot + sep.ljust(width - _SLOT, b"\0") for sep in seps), np.uint8
    ).reshape(cols, width)
    x = block.ravel()
    with np.errstate(all="ignore"):
        fixed, exponent, upper, lower = _decimal(x)
        digits = _digits(upper, lower)
    mask = _keep_mask(template, fixed, exponent, digits)
    mask[:, 0] = np.signbit(x)
    slots = np.empty((rows, cols, width), np.uint8)
    slots[:] = template
    slots = slots.reshape(x.size, width)
    slots[:, 3:_POINT] = digits
    slots[:, _POINT + 1 : _SLOT] = digits[:, 4:]
    del exponent, upper, lower, digits  # only slots and mask stay for the block's output
    slow = np.flatnonzero(~fixed)
    if slow.size:
        text = np.array([FLOAT_FMT % v for v in x[slow].tolist()], dtype=f"S{_SLOT}")
        text = text.view(np.uint8).reshape(slow.size, _SLOT)
        slots[slow, :_SLOT] = text
        mask[slow, :_SLOT] = text > 0
    return slots[mask]


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
    # the text after each present column; times always comes first
    seps = [sep.encode("ascii") for sep in row.split(FLOAT_FMT)[1:]]
    columns = [c for c in cells if c is not None]
    with path.open("wb") as f:
        f.write(("\n".join(header) + "\n").encode("utf-8"))
        for start in range(0, series.n_points, _CSV_BLOCK):
            block = np.column_stack([c[start : start + _CSV_BLOCK] for c in columns])
            f.write(_format_rows(block, seps))


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
