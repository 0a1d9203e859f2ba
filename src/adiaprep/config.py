"""Experiment configuration: presets, JSON loading, validation, overrides."""

from __future__ import annotations

import copy
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .analyze import MEAN_ESTIMATORS, _beat_window
from .evolve import INTEGRATORS
from .measure import _HoldGridError, _hold_intervals
from .model import (
    BUILTIN_MODELS,
    AdiabaticSchedule,
    HermitianOperator,
    ModelSpec,
    observable_from_label,
)
from .linalg import eig_hermitian

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "OutputOptions",
    "PRESETS",
    "SEED_ENV_VAR",
    "apply_set_overrides",
    "config_from_dict",
    "load_config_file",
    "preset_config",
]

SEED_ENV_VAR = "ADIAPREP_SEED"


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


# the fig1a/fig1b hold grid is pinned to pi/32 (32 samples per beat period at
# J=1) so whole-period windows tile the grid exactly; the ramp step 1/8 does
# not divide the period and would leave a discretization floor under the
# variance identity
_FIG1A = {
    "model": "model1",
    "coupling": 1.0,
    "total_time": 36.0,
    "step_width": 0.125,
    "integrator": "trotter2",
    "hold_duration": 4.0 * math.pi,
    "sample_dt": math.pi / 32.0,
    "shots": 1_000_000,
    "seed": 12345,
    "observables": ["Z"],
    "outputs": {"directory": "out/fig1a"},
}

PRESETS: dict[str, dict] = {
    "fig1a": _FIG1A,
    # the same run as fig1a, seen through the conserved -X
    "fig1b": {**_FIG1A, "observables": ["-X"], "outputs": {"directory": "out/fig1b"}},
    "fig2": {
        "model": "model2",
        "coupling": math.pi / 4.0,
        "total_time": 36.0,
        "step_width": 1.0 / 24.0,
        "integrator": "trotter2",
        "hold_duration": 16.0,
        "sample_dt": 1.0 / 24.0,
        "shots": 1_000_000,
        "seed": 12345,
        "observables": ["Z"],
        "outputs": {"directory": "out/fig2"},
    },
}


@dataclass(frozen=True)
class OutputOptions:
    directory: str = "out"
    csv: bool = True
    json: bool = True
    svg: bool = True


def _artifact_name(label: str) -> str:
    """File stem of an observable's CSV and SVG: series_ plus the label with
    every character outside letters, digits and +-_ replaced by _."""
    safe = "".join(ch if (ch.isalnum() or ch in "+-_") else "_" for ch in label)
    return f"series_{safe}"


def _require(condition: bool, field_name: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"config field {field_name!r}: {message}")


def _grid_error(exc: _HoldGridError) -> ConfigError:
    return ConfigError(f"config field {'/'.join(map(repr, exc.fields))}: {exc}")


def _is_number(x) -> bool:
    # JSON true/false arrive as bool, an int subclass
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _matrix_from_json(value, field_name: str) -> np.ndarray:
    """Nested lists with entries that are numbers or [re, im] pairs."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config field {field_name!r}: expected a matrix as a list of rows")
    for i, row in enumerate(value):
        _require(
            isinstance(row, list), field_name, f"matrix rows must be lists (row {i} is {row!r})"
        )

    def entry(x):
        if _is_number(x):
            return complex(x)
        if isinstance(x, list) and len(x) == 2 and all(map(_is_number, x)):
            return complex(x[0], x[1])
        raise ConfigError(
            f"config field {field_name!r}: matrix entries must be numbers or [re, im] pairs"
        )

    try:
        rows = [[entry(x) for x in row] for row in value]
        m = np.array(rows, dtype=np.complex128)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"config field {field_name!r}: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"config field {field_name!r}: matrix must be square, got {m.shape}")
    return m


@dataclass(frozen=True)
class ExperimentConfig:
    """One ramp-and-hold experiment, fully determined by these fields and checked when built."""

    model: str | dict
    coupling: float
    total_time: float
    step_width: float
    hold_duration: float
    shots: int
    seed: int
    observables: tuple = ("Z",)
    integrator: str = "trotter2"
    sample_dt: float | None = None
    mean_estimator: str = "minmax"
    outputs: OutputOptions = field(default_factory=OutputOptions)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        _require(
            isinstance(self.model, (str, dict)),
            "model",
            "must be 'model1', 'model2', or an inline {initial, target} object",
        )
        if isinstance(self.model, str):
            _require(self.model in BUILTIN_MODELS, "model", f"unknown model {self.model!r}")
        positive = ["coupling", "total_time", "step_width", "hold_duration"]
        if self.sample_dt is not None:
            positive.append("sample_dt")
        for name in positive:
            value = getattr(self, name)
            valid = _is_number(value) and 0 < value <= sys.float_info.max
            _require(valid, name, f"must be a finite number > 0 (got {value!r})")
        try:
            _hold_intervals(self.hold_duration, self.sample_dt_resolved)
        except _HoldGridError as exc:
            raise _grid_error(exc) from exc
        _require(
            isinstance(self.shots, int) and not isinstance(self.shots, bool) and 0 <= self.shots < 2**63,
            "shots",
            f"must be an integer in [0, 2^63) (got {self.shots!r})",
        )
        _require(
            isinstance(self.seed, int) and not isinstance(self.seed, bool) and 0 <= self.seed < 2**64,
            "seed",
            f"must be an integer in [0, 2^64) (got {self.seed!r})",
        )
        for name, choices in (("integrator", INTEGRATORS), ("mean_estimator", MEAN_ESTIMATORS)):
            value = getattr(self, name)
            options = " or ".join(map(repr, choices))
            _require(value in choices, name, f"must be {options} (got {value!r})")
        _require(
            isinstance(self.observables, (list, tuple)) and len(self.observables) >= 1,
            "observables",
            "must be a non-empty list",
        )
        _require(isinstance(self.outputs, OutputOptions), "outputs", "must be an outputs object")
        _require(
            isinstance(self.outputs.directory, str) and self.outputs.directory != "",
            "outputs.directory",
            "must be a non-empty path",
        )
        for name in ("csv", "json", "svg"):
            value = getattr(self.outputs, name)
            _require(
                isinstance(value, bool), f"outputs.{name}", f"must be true or false (got {value!r})"
            )

    @property
    def sample_dt_resolved(self) -> float:
        return float(self.step_width if self.sample_dt is None else self.sample_dt)

    def build_model(self) -> ModelSpec:
        """Resolve the model plus configured observables into a ModelSpec,
        once the hold grid can show its beat."""
        try:
            if isinstance(self.model, str):
                base = BUILTIN_MODELS[self.model](self.coupling)
            else:
                base = self._build_inline_model()
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"config field 'model': {exc}") from exc
        try:
            resolved = tuple(self._resolve_observable(o, base) for o in self.observables)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"config field 'observables': {exc}") from exc
        labels = [o.label for o in resolved]
        duplicates = sorted({label for label in labels if labels.count(label) > 1})
        _require(not duplicates, "observables", f"duplicate labels {duplicates}")
        owners: dict[str, str] = {}
        for label in labels:
            name = _artifact_name(label)
            first = owners.setdefault(name, label)
            _require(
                first == label,
                "observables",
                f"labels {first!r} and {label!r} share the artifact name {name}",
            )
        # the spacing and span of the grid hold_series lays out
        dt = self.sample_dt_resolved
        span = _hold_intervals(self.hold_duration, dt) * dt
        try:
            _beat_window(dt, span, base.oscillation_angular_frequency)
        except _HoldGridError as exc:
            raise _grid_error(exc) from exc
        return replace(base, observables=resolved)

    def _build_inline_model(self) -> ModelSpec:
        # inline matrices are dimensionless shapes; coupling stays the single
        # energy knob, scaling both ends of the ramp
        spec_dict = self.model
        unknown = set(spec_dict) - {"initial", "target", "name"}
        if unknown:
            raise ConfigError(f"config field 'model': unknown keys {sorted(unknown)}")
        for key in ("initial", "target"):
            if key not in spec_dict:
                raise ConfigError(f"config field 'model': missing {key!r} matrix")
        name = spec_dict.get("name", "")
        _require(isinstance(name, str), "model.name", f"must be a string (got {name!r})")
        initial, target = (
            HermitianOperator(self.coupling * _matrix_from_json(spec_dict[key], f"model.{key}"), key)
            for key in ("initial", "target")
        )
        vectors = eig_hermitian(target.matrix).eigenvectors
        return ModelSpec(
            initial=initial,
            target=target,
            observables=(),
            reference_ground_state=vectors[:, 0],
            reference_excited_state=vectors[:, 1],
        )

    @staticmethod
    def _resolve_observable(entry, base: ModelSpec) -> HermitianOperator:
        if isinstance(entry, str):
            op = observable_from_label(entry)
        elif isinstance(entry, dict):
            unknown = set(entry) - {"label", "matrix"}
            if unknown:
                raise ConfigError(f"config field 'observables': unknown keys {sorted(unknown)}")
            if "label" not in entry or "matrix" not in entry:
                raise ConfigError("config field 'observables': inline entries need label and matrix")
            label = entry["label"]
            _require(isinstance(label, str), "observables.label", f"must be a string (got {label!r})")
            _require(label != "", "observables.label", "must not be empty")
            _require(label.isprintable(), "observables.label", f"must be printable (got {label!r})")
            op = HermitianOperator(_matrix_from_json(entry["matrix"], "observables.matrix"), label)
        else:
            raise ConfigError(f"config field 'observables': bad entry {entry!r}")
        if op.dim != base.dim:
            raise ConfigError(
                f"config field 'observables': {op.label!r} has dimension {op.dim}, model has {base.dim}"
            )
        return op

    def build_schedule(self) -> AdiabaticSchedule:
        try:
            return AdiabaticSchedule(float(self.total_time), float(self.step_width))
        except ValueError as exc:
            raise ConfigError(f"config field 'total_time'/'step_width': {exc}") from exc

    def to_dict(self) -> dict:
        """JSON-ready echo with defaults resolved."""
        return {
            "model": copy.deepcopy(self.model),
            "coupling": float(self.coupling),
            "total_time": float(self.total_time),
            "step_width": float(self.step_width),
            "integrator": self.integrator,
            "hold_duration": float(self.hold_duration),
            "sample_dt": self.sample_dt_resolved,
            "mean_estimator": self.mean_estimator,
            "shots": int(self.shots),
            "seed": int(self.seed),
            "observables": list(copy.deepcopy(self.observables)),
            "outputs": asdict(self.outputs),
        }


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}
_REQUIRED_KEYS = {
    f.name
    for f in fields(ExperimentConfig)
    if f.default is MISSING and f.default_factory is MISSING
}
_OUTPUTS_KEYS = {f.name for f in fields(OutputOptions)}


def config_from_dict(data: dict, *, source: str = "config") -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: expected a JSON object, got {type(data).__name__}")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{source}: unknown fields {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(data)
    if missing:
        raise ConfigError(f"{source}: missing required fields {sorted(missing)}")
    kwargs = dict(data)
    out = kwargs.get("outputs", {})
    if not isinstance(out, dict):
        raise ConfigError(f"{source}: outputs must be an object")
    unknown_out = set(out) - _OUTPUTS_KEYS
    if unknown_out:
        raise ConfigError(f"{source}: unknown outputs fields {sorted(unknown_out)}")
    kwargs["outputs"] = OutputOptions(**out)
    if "observables" in kwargs:
        obs = kwargs["observables"]
        if not isinstance(obs, (list, tuple)):
            raise ConfigError(f"{source}: observables must be a list")
        kwargs["observables"] = tuple(obs)
    return ExperimentConfig(**kwargs)


def preset_config(name: str) -> ExperimentConfig:
    return config_from_dict(preset_dict(name), source=f"preset {name!r}")


def preset_dict(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return copy.deepcopy(PRESETS[name])


def load_config_file(path: str | Path) -> dict:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's int digit limit
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    return data


def apply_set_overrides(data: dict, assignments: list[str]) -> dict:
    """Apply key=value overrides; dotted keys reach into nested objects.

    Values are parsed as JSON when possible and fall back to raw strings,
    so shots=0, outputs.svg=false, and model=model2 all do what they look
    like they do.
    """
    result = copy.deepcopy(data)
    for raw in assignments:
        if "=" not in raw:
            raise ConfigError(f"bad --set {raw!r}: expected key=value")
        key, _, text = raw.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"bad --set {raw!r}: empty key")
        try:
            value = json.loads(text)
        except ValueError:  # JSONDecodeError, or an integer past Python's int digit limit
            value = text
        node = result
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return result


def apply_env_seed(cfg: ExperimentConfig, environ=os.environ) -> ExperimentConfig:
    """ADIAPREP_SEED, when set, wins over the configured seed."""
    raw = environ.get(SEED_ENV_VAR)
    if raw is None:
        return cfg
    try:
        seed = int(raw, 10)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{SEED_ENV_VAR} must lie in [0, 2^64), got {seed}")
    return replace(cfg, seed=seed)
