"""adiaprep benchmark: one closed-loop client running a named workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from any directory of a source checkout: the library is imported from
the ``src/`` directory beside this one, with no install step. One client
issues one op at a time, each starting when the previous one has finished.

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
first runs the workload untraced for S/2 seconds in a child process, then
replays exactly those ops in this process with every public library function
wrapped in a span (see spans.py), and reports the per-layer split. Each metric
is printed on its own line with its unit; the last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads are defined in workloads.py: presets, sweep_T, long_hold and
wide_inline. Artifacts go to ``_work/`` beside this file and are removed at
exit; a traced run leaves its spans there as ``spans-<workload>.tsv.gz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

# one client on a small machine: keep BLAS and OpenMP from starting threads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK = BENCH_DIR / "_work"
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="adiaprep closed-loop benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal modes: time set-up only, or run the untraced half of --trace 1
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--untraced-pass", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import adiaprep from this checkout's src/, then the workload module."""
    if not (SRC / "adiaprep" / "__init__.py").is_file():
        raise SystemExit(f"error: no adiaprep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import adiaprep
    import workloads

    if Path(adiaprep.__file__).resolve().parent != SRC / "adiaprep":
        raise SystemExit(f"error: imported adiaprep from {adiaprep.__file__}, not {SRC}")
    return adiaprep, workloads


def drive(wl, workloads, workdir: Path, *, seconds: float, count: int | None = None,
          tracer=None, after_op=None) -> tuple[list[dict], list, float]:
    """Run ops until `seconds` have passed at a round boundary, or `count` ops.

    Returns per-op records, the (op, outcome) pairs and the measured wall
    time, which leaves out the artifact hashing done between ops.
    """
    records, ops = [], []
    start = perf_counter()
    paused = 0.0
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif perf_counter() - start - paused >= seconds and i % wl.round_size == 0:
            break
        op = wl.op(i)
        if op is None:
            break
        if tracer is not None:
            tracer.op_id = i + 1
        t0 = perf_counter()
        try:
            outcome, error = op.run(), None
        except Exception:  # the op counts as failed and the loop goes on
            outcome, error = None, traceback.format_exc(limit=4)
        t1 = perf_counter()
        digest = workloads.digest(outcome.paths, workdir) if outcome is not None else {}
        records.append({"index": i, "key": op.key, "latency_s": t1 - t0, "error": error,
                        "digest": digest})
        ops.append((op, outcome))
        if after_op is not None:
            after_op(op)
        paused += perf_counter() - t1
        i += 1
    return records, ops, perf_counter() - start - paused


def check_ops(wl, workloads, records: list[dict], ops: list) -> None:
    """Store each op's failed output checks in record["problems"]."""
    first_digest: dict[str, dict] = {}
    for record, (op, outcome) in zip(records, ops):
        if record["error"] is not None:
            record["problems"] = [f"op {op.index} ({op.key}) raised:\n{record['error']}"]
            continue
        problems = workloads.headline_problems(wl, op, outcome)
        shas = {path: sha for path, (sha, _size) in record["digest"].items()}
        if shas != first_digest.setdefault(op.key, shas):
            problems.append(f"op {op.index} ({op.key}): artifacts differ from an op with the same inputs")
        record["problems"] = problems


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it.

    Below 2 * TAIL_BEYOND + 2 samples that percentile is at or under the
    median, which is no tail; the median is returned then, so the value does
    not jump as the op count of a slow workload varies between runs.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND + 2:
        return statistics.median(xs), 50.0, n
    idx = n - 1 - TAIL_BEYOND
    return xs[idx], 100.0 * (idx + 1) / n, n


def probe_setups(args) -> list[float]:
    """Set-up time measured again in fresh processes."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "clients": 1,
    }


def print_result(metrics: dict, units: dict, records: list[dict], notes: dict, args,
                 global_problems: list[str]) -> int:
    failed = sum(1 for r in records if r["problems"])
    for r in records:
        for problem in r["problems"]:
            print(f"FAILED {problem}", file=sys.stderr)
    for problem in global_problems:
        print(f"FAILED {problem}", file=sys.stderr)
    attempted = len(records)
    print(f"# workload {args.workload}, seed {args.seed}, one closed-loop client")
    for name, value in metrics.items():
        print(f"{name:<42} {value:>16.6f} {units[name]}{notes.get(name, '')}")
    print(f"{'failed_ratio':<42} {failed / max(attempted, 1):>16.6f} failed/attempted "
          f"({failed} of {attempted})")
    print(json.dumps({"environment": environment(args)}, sort_keys=True))
    correct = attempted > 0 and failed == 0 and not global_problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def end_to_end(args, workloads, build, workdir: Path, setup_started: float) -> int:
    wl = build(args.seed, workdir)
    setup_s = perf_counter() - setup_started
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    records, ops, wall = drive(wl, workloads, workdir, seconds=args.seconds)
    check_ops(wl, workloads, records, ops)
    if args.untraced_pass is not None:
        args.untraced_pass.write_text(json.dumps(records), encoding="utf-8")
        return 0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + probe_setups(args)
    done = [r["latency_s"] for r in records if not r["problems"]]
    if not done:
        metrics = dict.fromkeys(END_TO_END_UNITS, 0.0)
        return print_result(metrics, END_TO_END_UNITS, records, {}, args, ["no op completed"])
    tail_s, tail_pct, n = tail(done)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(done) / wall,
        "op_p50_ms": 1e3 * statistics.median(done),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": f" (median of {len(setups)} set-ups: 1 in process, {SETUP_PROBES} fresh processes)",
        "ops_per_s": f" ({len(done)} ops in {wall:.3f} s)",
        "op_p50_ms": f" (n={n})",
        "op_tail_ms": f" (p{tail_pct:.1f}, n={n})",
    }
    return print_result(metrics, END_TO_END_UNITS, records, notes, args, [])


def traced(args, adiaprep, workloads, build, workdir: Path) -> int:
    import numpy as np

    from spans import Tracer, layer_totals

    # the untraced half runs in a fresh process, so no module-level state of
    # the library (such as runner's deviation cache) carries over
    untraced_path = WORK / f"{args.workload}-{os.getpid()}-untraced.json"
    untraced_path.parent.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds / 2.0), "--trace", "0", "--untraced-pass", str(untraced_path)],
        check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
    )
    untraced = json.loads(untraced_path.read_text(encoding="utf-8"))
    untraced_path.unlink()

    tracer = Tracer()
    counts = Counter()
    eig_inputs: list = []
    seen: set = set()

    def on_run_adiabatic(a, kw):
        integrator = a[2] if len(a) > 2 else kw.get("integrator", "trotter2")
        counts["reference_ramps"] += integrator == "exact-midpoint"

    def on_hold_series(series):
        counts["hold_points"] += series.n_points
        if series.sampled_values is not None:
            counts["shots_drawn"] += series.n_points * series.shots_per_point

    def after_op(op):
        # a matrix repeats a basis when it is a positive multiple of one
        # already diagonalised in this op: same matrix after scaling to unit norm
        for m in eig_inputs:
            m = np.asarray(m, dtype=np.complex128)
            norm = float(np.linalg.norm(m))
            if norm > 0.0:
                key = (np.round(m / norm, 12) + 0.0).tobytes()
                counts["repeat_basis"] += key in seen
                seen.add(key)
        eig_inputs.clear()
        seen.clear()
        counts["sweep_points"] += op.sweep_points

    tracer.on_call["linalg.eig_hermitian"] = lambda a, kw: eig_inputs.append(a[0])
    tracer.on_call["evolve.run_adiabatic"] = on_run_adiabatic
    tracer.on_return["measure.hold_series"] = on_hold_series
    with tracer.installed(adiaprep):
        wl = build(args.seed, workdir)
        records, ops, _wall = drive(wl, workloads, workdir, seconds=0.0, count=len(untraced),
                                    tracer=tracer, after_op=after_op)
    check_ops(wl, workloads, records, ops)

    problems = []
    if len(records) != len(untraced):
        problems.append(f"traced run made {len(records)} ops, untraced {len(untraced)}")
    eig_per_op = Counter(op_id for _s, _p, op_id, name, _a, _b in tracer.spans
                         if name == "linalg.eig_hermitian")
    for record, (op, _outcome), plain in zip(records, ops, untraced):
        want = op.eig_calls()
        if eig_per_op[op.index + 1] != want:
            record["problems"].append(
                f"op {op.index} ({op.key}): {eig_per_op[op.index + 1]} eig_hermitian calls, expected {want}")
        if {p: d[0] for p, d in record["digest"].items()} != {p: d[0] for p, d in plain["digest"].items()}:
            record["problems"].append(f"op {op.index} ({op.key}): traced artifacts differ from untraced")

    n = max(len(records), 1)
    op_spans = [s for s in tracer.spans if s[2] > 0]
    totals = layer_totals(op_spans)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def ms(*names, key="ns"):
        return sum(totals.get(name, {}).get(key, 0) for name in names) / 1e6 / n

    def us_per_call(*names):
        c = sum(calls(name) for name in names)
        return sum(totals.get(name, {}).get("ns", 0) for name in names) / 1e3 / c if c else 0.0

    eig_calls = calls("linalg.eig_hermitian")
    hit_ratio = 1.0 - counts["reference_ramps"] / counts["sweep_points"] if counts["sweep_points"] else 0.0
    if hit_ratio != 0.0:
        problems.append(f"runner.deviation_cache.hit_ratio is {hit_ratio}, not 0: the sweep reused references")
    traced_ns = sum(r["latency_s"] for r in records) * 1e9
    top_ns = sum(end - start for _s, parent, _o, _n, start, end in op_spans if parent == 0)
    setup_config_ns = sum(end - start for _s, parent, op_id, name, start, end in tracer.spans
                          if op_id == 0 and parent == 0 and name.startswith("config."))
    metrics = {
        "linalg.eig_hermitian.calls": (eig_calls / n, "count/op"),
        "linalg.eig_hermitian.us_per_call": (us_per_call("linalg.eig_hermitian"), "us"),
        "linalg.eig_hermitian.self_ms": (ms("linalg.eig_hermitian", key="self_ns"), "ms/op"),
        "linalg.expm_minus_i.calls": (calls("linalg.expm_minus_i") / n, "count/op"),
        "linalg.eig_hermitian.repeat_basis_ratio": (
            counts["repeat_basis"] / eig_calls if eig_calls else 0.0, "ratio"),
        "evolve.run_adiabatic.self_ms": (ms("evolve.run_adiabatic", key="self_ns"), "ms/op"),
        "evolve.ramp_steps": (
            (calls("evolve.trotter2_step") + calls("evolve.exact_midpoint_step")) / n, "count/op"),
        "evolve.step.us_per_call": (us_per_call("evolve.trotter2_step", "evolve.exact_midpoint_step"), "us"),
        "evolve.reference_ramps": (counts["reference_ramps"] / n, "count/op"),
        "evolve.decompose.ms": (ms("evolve.decompose"), "ms/op"),
        "measure.hold_series.self_ms": (ms("measure.hold_series", key="self_ns"), "ms/op"),
        "measure.hold_points": (counts["hold_points"] / n, "count/op"),
        "measure.expectation.calls": (calls("measure.expectation") / n, "count/op"),
        "measure.shots_drawn": (counts["shots_drawn"] / n, "count/op"),
        "analyze.oscillation_stats.ms": (ms("analyze.oscillation_stats"), "ms/op"),
        "analyze.diagnose.ms": (ms("analyze.diagnose_anticommuting", "analyze.diagnose_general"), "ms/op"),
        "analyze.predicted_series.ms": (ms("analyze.predicted_series"), "ms/op"),
        "runner.run_experiment.self_ms": (ms("runner.run_experiment", key="self_ns"), "ms/op"),
        "runner.sweep.self_ms": (ms("runner.sweep", key="self_ns"), "ms/op"),
        "runner.write_artifacts.ms": (ms("runner.write_artifacts"), "ms/op"),
        "runner.artifact_bytes": (
            sum(size for r in records for _sha, size in r["digest"].values()) / n, "bytes/op"),
        "runner.deviation_cache.hit_ratio": (hit_ratio, "ratio"),
        "svgplot.line_plot.ms": (ms("svgplot.line_plot"), "ms/op"),
        "config.build.ms": (setup_config_ns / 1e6, "ms"),
        "trace.overhead_ratio": (
            traced_ns / (sum(r["latency_s"] for r in untraced) * 1e9) if untraced else 0.0, "ratio"),
        "trace.unattributed_ratio": (1.0 - top_ns / traced_ns if traced_ns else 0.0, "ratio"),
    }
    tracer.write(WORK / f"spans-{args.workload}.tsv.gz",
                 f"workload {args.workload} seed {args.seed} ops {len(records)}")
    values = {k: v for k, (v, _unit) in metrics.items()}
    units = {k: unit for k, (_v, unit) in metrics.items()}
    return print_result(values, units, records, {}, args, problems)


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_started = perf_counter()
    adiaprep, workloads = import_library()
    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    # summary.json records the output directory, so the untraced and traced
    # halves of --trace 1 must write to the same one
    workdir = WORK / args.workload
    try:
        if args.trace:
            return traced(args, adiaprep, workloads, build, workdir)
        return end_to_end(args, workloads, build, workdir, setup_started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
