"""Command-line interface.

Verbs:
  run       execute one experiment and write its artifacts
  sweep     re-run while varying one parameter (T, dt, or shots)
  validate  resolve and echo the effective configuration without running

Configurations come from --preset or --config (JSON); individual fields can
be overridden with repeated --set key=value flags, and the environment
variable ADIAPREP_SEED overrides the seed. Exit codes: 0 success, 2 bad
configuration, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .config import (
    ConfigError,
    apply_env_seed,
    apply_set_overrides,
    config_from_dict,
    load_config_file,
    preset_dict,
    PRESETS,
)
from .runner import SWEEP_PARAMETERS, run_and_write, sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", metavar="NAME",
                        help=f"built-in configuration ({', '.join(sorted(PRESETS))})")
    source.add_argument("--config", metavar="PATH", help="JSON configuration file")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                        dest="overrides",
                        help="override one field (repeatable; dotted keys reach into objects)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="shortcut for --set outputs.directory=DIR")


def _resolve_config(args: argparse.Namespace):
    if args.preset is not None:
        data = preset_dict(args.preset)
    else:
        data = load_config_file(args.config)
    overrides = list(args.overrides)
    if args.out is not None:
        overrides.append(f"outputs.directory={args.out}")
    data = apply_set_overrides(data, overrides)
    cfg = config_from_dict(data)
    return apply_env_seed(cfg)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    started = time.perf_counter()
    result, written = run_and_write(cfg)
    elapsed = time.perf_counter() - started
    summary = result.summary
    print(f"beta_sq         {summary['beta_sq']:.9g}")
    print(f"raw_average     {summary['raw_average']:.9g}")
    print(f"corrected_value {summary['corrected_value']:.9g}")
    print(f"reference_value {summary['reference_value']:.9g}")
    for path in written:
        print(f"wrote {path}")
    print(f"done in {elapsed:.2f} s")
    return EXIT_OK


def _number(text: str) -> int | float:
    """An integer literal as an exact int, anything else as a float: a shot
    count above 2^53 would lose its last digits through float()."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    try:
        values = [v for v in (s.strip() for s in args.values.split(",")) if v]
        parsed = [_number(v) for v in values]
    except ValueError as exc:
        raise ConfigError(f"bad --values {args.values!r}: {exc}") from exc
    rows, path = sweep(cfg, args.parameter, parsed)
    for row in rows:
        # a shot count in full, as the CSV writes it
        value = row["value"] if isinstance(row["value"], int) else f"{row['value']:g}"
        line = (f"{row['parameter']}={value}  beta_sq={row['beta_sq']:.9g}  "
                f"corrected={row['corrected_value']:.9g}")
        if row["trotter_deviation"] is not None:
            line += f"  trotter_deviation={row['trotter_deviation']:.9g}"
        print(line)
    if path is not None:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    cfg.build_model()
    cfg.build_schedule()
    print(json.dumps(cfg.to_dict(), sort_keys=True, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiaprep",
        description="Slow-ramp ground-state preparation with residual-excitation diagnosis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write artifacts")
    _add_config_arguments(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="vary one parameter and tabulate the results")
    _add_config_arguments(p_sweep)
    p_sweep.add_argument("--parameter", required=True, choices=tuple(SWEEP_PARAMETERS),
                         help="which knob to sweep")
    p_sweep.add_argument("--values", required=True, metavar="V1,V2,...",
                         help="comma-separated values, in the order to run them")
    p_sweep.set_defaults(func=cmd_sweep)

    p_validate = sub.add_parser("validate", help="check a configuration and echo it resolved")
    _add_config_arguments(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps everything
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
