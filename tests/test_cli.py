import json
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adiaprep import runner
from adiaprep.cli import main
from adiaprep.config import (
    ConfigError,
    ExperimentConfig,
    PRESETS,
    apply_set_overrides,
    config_from_dict,
    load_config_file,
    preset_config,
)
from adiaprep.evolve import run_adiabatic
from adiaprep.runner import run_experiment, sweep

# CI's 3x3 inline config
INLINE3 = Path(__file__).parent / "data" / "inline3.json"
# model1's 2x2 block beside a block four levels up, conjugated by the 4x4
# Hadamard: no off-diagonal entry is zero, so the eigensolver reduces every
# matrix
INLINE4 = Path(__file__).parent / "data" / "inline4.json"

# frozen from reference runs of the Hadamard-model ramp on the fig2 grid
BETA_SQ_T_4_5 = 6.713687e-05
BETA_SQ_T_36 = 1.534404e-04


def run_cli(args):
    return main(list(args))


def read(path):
    return path.read_bytes()


def test_presets_are_valid():
    for name in PRESETS:
        cfg = preset_config(name)
        cfg.build_model()
        cfg.build_schedule()


def test_preset_config_resolves_sample_dt():
    cfg = preset_config("fig2")
    assert cfg.sample_dt_resolved == pytest.approx(1.0 / 24.0)
    assert cfg.shots == 1_000_000
    assert cfg.seed == 12345


def test_unknown_preset_lists_alternatives():
    with pytest.raises(ConfigError, match="fig1a, fig1b, fig2"):
        preset_config("fig3")


def test_config_from_dict_rejects_unknown_and_missing_fields():
    with pytest.raises(ConfigError, match="unknown fields"):
        config_from_dict({**PRESETS["fig1a"], "bogus": 1})
    with pytest.raises(ConfigError, match="missing required"):
        config_from_dict({"model": "model1"})
    with pytest.raises(ConfigError, match="^config: expected a JSON object, got list$"):
        config_from_dict([])


def test_config_validation_names_the_field():
    data = dict(PRESETS["fig1a"])
    data["step_width"] = -0.125
    with pytest.raises(ConfigError, match="step_width"):
        config_from_dict(data)
    data = dict(PRESETS["fig1a"])
    data["shots"] = 1.5
    with pytest.raises(ConfigError, match="shots"):
        config_from_dict(data)
    data = dict(PRESETS["fig1a"])
    data["seed"] = -1
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(data)


def test_apply_set_overrides():
    data = apply_set_overrides(
        dict(PRESETS["fig1a"]),
        ["shots=0", "outputs.svg=false", 'observables=["Z","-X"]', "seed=7"],
    )
    cfg = config_from_dict(data)
    assert cfg.shots == 0
    assert cfg.outputs.svg is False
    assert [str(o) for o in cfg.observables] == ["Z", "-X"]
    assert cfg.seed == 7
    with pytest.raises(ConfigError, match="key=value"):
        apply_set_overrides({}, ["oops"])


def test_cli_validate_echoes_resolved_config(capsys):
    assert run_cli(["validate", "--preset", "fig2"]) == 0
    echo = json.loads(capsys.readouterr().out)
    assert echo["model"] == "model2"
    assert echo["sample_dt"] == pytest.approx(1.0 / 24.0)
    assert echo["outputs"]["directory"] == "out/fig2"


def test_cli_validate_rejects_bad_field(capsys):
    code = run_cli(["validate", "--preset", "fig2", "--set", "step_width=-1"])
    assert code == 2
    assert "step_width" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["validate", "run"])
def test_cli_rejects_a_hold_shorter_than_one_sample_interval(verb, tmp_path, capsys):
    # 16 / 100 rounds to no interval: the hold grid would have one point
    args = [verb, "--preset", "fig2", "--set", "sample_dt=100"]
    if verb == "run":
        args += ["--out", str(tmp_path / "out")]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "'hold_duration': must exceed half a sample_dt of 100.0 (got 16.0)" in err
    assert not (tmp_path / "out").exists()
    # exactly half an interval rounds to none, just over half to one, which
    # passes this rule and fails the next: one interval holds no beat period
    assert run_cli(["validate", "--preset", "fig2", "--set", "sample_dt=32"]) == 2
    assert "'hold_duration': must exceed half a sample_dt" in capsys.readouterr().err
    assert run_cli(["validate", "--preset", "fig2", "--set", "sample_dt=31.9"]) == 2
    err = capsys.readouterr().err
    assert "must exceed half a sample_dt" not in err and "config field 'sample_dt'" in err


@pytest.mark.parametrize(
    "setting, message",
    [
        ("sample_dt=1", "config field 'sample_dt': 4 samples per period; need at least 16"),
        ("hold_duration=2", "config field 'hold_duration': record spans 0.5 periods; need at least one"),
    ],
)
def test_cli_rejects_a_hold_grid_that_cannot_show_the_beat_before_any_ramp(
    setting, message, tmp_path, monkeypatch, capsys
):
    ramps = []
    monkeypatch.setattr(runner, "run_adiabatic", lambda *args, **kwargs: ramps.append(args))
    out = tmp_path / "out"
    for args in (
        ["validate", "--preset", "fig2"],
        ["run", "--preset", "fig2", "--out", str(out)],
        ["sweep", "--preset", "fig2", "--parameter", "T", "--values", "4.5,9", "--out", str(out)],
    ):
        assert run_cli(args + ["--set", setting]) == 2, args[0]
        assert message in capsys.readouterr().err
    assert ramps == [] and not out.exists()


def test_sweep_checks_every_value_before_the_first_ramp(tmp_path, monkeypatch, capsys):
    # with sample_dt following dt, the first value is a sound grid and the
    # second holds 4 samples per beat period: the sweep exits 2 on the second
    # before it ramps or references the first
    ramps = []
    monkeypatch.setattr(runner, "run_adiabatic", lambda *args, **kwargs: ramps.append(args))
    out = tmp_path / "out"
    args = ["sweep", "--preset", "fig2", "--set", "sample_dt=null", "--set", "shots=0",
            "--parameter", "dt", "--values", "0.041666666666666664,1", "--out", str(out)]
    assert run_cli(args) == 2
    assert "config field 'sample_dt': 4 samples per period; need at least 16" in capsys.readouterr().err
    assert ramps == [] and not out.exists()


def test_hold_grid_check_reads_the_grid_the_hold_lays_out(tmp_path):
    # 3.99 rounds to 96 intervals of 1/24, one whole period of 4, and a
    # sample_dt of 1/4 gives exactly 16 samples per period: both run
    for setting in ("hold_duration=3.99", "sample_dt=0.25"):
        out = tmp_path / setting
        args = ["run", "--preset", "fig2", "--set", setting, "--set", "shots=0", "--out", str(out)]
        assert run_cli(args) == 0, setting
        assert (out / "summary.json").exists()
    assert run_cli(["validate", "--preset", "fig2", "--set", "sample_dt=0.2501"]) == 2


def test_cli_rejects_shots_past_the_sampler_range(tmp_path, capsys):
    # a shot count is drawn as a C long, so 2^63 would fail only at run time
    too_many = str(2**63)
    for args in (
        ["run", "--preset", "fig2", "--set", f"shots={too_many}"],
        ["sweep", "--preset", "fig2", "--parameter", "shots", "--values", too_many],
    ):
        assert run_cli(args + ["--out", str(tmp_path / "out")]) == 2, args[0]
        assert "config field 'shots': must be an integer in [0, 2^63)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    assert run_cli(["validate", "--preset", "fig2", "--set", f"shots={2**63 - 1}"]) == 0


def test_cli_sweep_keeps_a_shot_count_past_2_53_exact(tmp_path, capsys):
    # float() rounds 2^53 + 1 down to 2^53; 1e6 is still a shot count
    shots = 2**53 + 1
    out = tmp_path / "sweep"
    code = run_cli(
        ["sweep", "--preset", "fig1a", "--parameter", "shots", "--values", f"{shots},1e6",
         "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert f"shots={shots}  " in stdout and "shots=1000000  " in stdout
    lines = (out / "sweep_shots.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:2] for line in lines] == [["shots", str(shots)], ["shots", "1000000"]]


def test_cli_rejects_a_step_width_that_does_not_divide_the_ramp(tmp_path, capsys):
    # a rounded step count would ramp 35.98 of 36 and compare it with a
    # reference over 35.9997
    message = "step_width 0.07 does not divide total_time 36.0"
    assert run_cli(["validate", "--preset", "fig2", "--set", "step_width=0.07"]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "sweep"
    code = run_cli(
        ["sweep", "--preset", "fig2", "--parameter", "dt", "--values", "0.07",
         "--set", "shots=0", "--out", str(out)]
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (out / "sweep_dt.csv").exists()


def test_cli_validate_rejects_unknown_preset(capsys):
    assert run_cli(["validate", "--preset", "fig9"]) == 2
    err = capsys.readouterr().err
    assert "fig1a" in err and "fig2" in err


def test_cli_validate_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(PRESETS["fig1a"]))
    assert run_cli(["validate", "--config", str(path)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["validate", "--config", str(bad)]) == 2
    assert run_cli(["validate", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "fig1a"
    code = run_cli(["run", "--preset", "fig1a", "--out", str(out)])
    assert code == 0
    assert (out / "series_Z.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "series_Z.svg").exists()
    stdout = capsys.readouterr().out
    assert "beta_sq" in stdout


def test_cli_run_csv_format(tmp_path):
    out = tmp_path / "fig2"
    assert run_cli(["run", "--preset", "fig2", "--out", str(out)]) == 0
    lines = (out / "series_Z.csv").read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any("absolute time" in c for c in comments)
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "t,exact,sampled,stderr"
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 385
    first = rows[1].split(",")
    assert len(first) == 4
    # every float survives parse/format round trips at 17 significant digits
    for cell in first:
        assert "%.17g" % float(cell) == cell


def test_cli_run_exact_only_leaves_sampled_columns_empty(tmp_path):
    out = tmp_path / "exact"
    assert run_cli(["run", "--preset", "fig2", "--out", str(out), "--set", "shots=0"]) == 0
    rows = [l for l in (out / "series_Z.csv").read_text().splitlines() if not l.startswith("#")][1:]
    for row in rows:
        t, exact, sampled, stderr = row.split(",")
        assert sampled == "" and stderr == ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["headline_channel"] == "exact"


@pytest.mark.parametrize("scale", [1e4, 1e6])
def test_cli_run_accepts_a_scaled_observable(tmp_path, scale):
    # the imaginary residue of <v|O|v> is rounding of size |O|*eps, so the
    # guard scales with the observable; a fixed 1e-12 used to exit 3 here
    beta_sq = {}
    for label, s in (("Z", 1.0), ("Zs", scale)):
        out = tmp_path / label
        matrix = json.dumps([[s, 0], [0, -s]])
        observables = f'observables=[{{"label":"{label}","matrix":{matrix}}}]'
        args = ["run", "--preset", "fig2", "--set", "shots=0", "--set", observables]
        assert run_cli([*args, "--out", str(out)]) == 0
        beta_sq[label] = json.loads((out / "summary.json").read_text())["beta_sq"]
    assert beta_sq["Zs"] == pytest.approx(beta_sq["Z"], rel=1e-9)


def test_cli_run_summary_round_trips_and_has_no_volatile_fields(tmp_path):
    out = tmp_path / "fig2"
    assert run_cli(["run", "--preset", "fig2", "--out", str(out)]) == 0
    raw = (out / "summary.json").read_bytes()
    parsed = json.loads(raw)
    assert json.dumps(parsed, sort_keys=True, indent=2).encode() + b"\n" == raw
    assert not any("elapsed" in k or "duration" in k or "wall" in k for k in parsed)
    assert parsed["config"]["seed"] == 12345
    assert parsed["headline_observable"] == "Z"
    assert parsed["headline_channel"] == "sampled"
    obs = parsed["observables"]["Z"]
    assert {"stats_exact", "diagnosis_exact", "stats_sampled", "diagnosis_sampled"} <= set(obs)
    assert obs["stderr_window_mean"] > 0.0


def test_cli_run_is_deterministic(tmp_path):
    out = tmp_path / "rerun"
    assert run_cli(["run", "--preset", "fig1a", "--out", str(out)]) == 0
    first = {p.name: read(p) for p in out.iterdir()}
    assert run_cli(["run", "--preset", "fig1a", "--out", str(out)]) == 0
    second = {p.name: read(p) for p in out.iterdir()}
    assert first == second
    assert set(first) == {"series_Z.csv", "summary.json", "series_Z.svg"}


def test_cli_env_seed_override(tmp_path, monkeypatch):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert run_cli(["run", "--preset", "fig2", "--out", str(out_a)]) == 0
    monkeypatch.setenv("ADIAPREP_SEED", "999")
    assert run_cli(["run", "--preset", "fig2", "--out", str(out_b)]) == 0
    monkeypatch.setenv("ADIAPREP_SEED", "not-a-seed")
    assert run_cli(["run", "--preset", "fig2", "--out", str(out_c)]) == 2

    summary_a = json.loads((out_a / "summary.json").read_text())
    summary_b = json.loads((out_b / "summary.json").read_text())
    assert summary_a["config"]["seed"] == 12345
    assert summary_b["config"]["seed"] == 999

    def columns(path):
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
        cells = [r.split(",") for r in rows]
        exact = [c[1] for c in cells]
        sampled = [c[2] for c in cells]
        return exact, sampled

    exact_a, sampled_a = columns(out_a / "series_Z.csv")
    exact_b, sampled_b = columns(out_b / "series_Z.csv")
    assert exact_a == exact_b
    assert sampled_a != sampled_b


def test_cli_no_svg_when_disabled(tmp_path):
    out = tmp_path / "nosvg"
    assert run_cli(
        ["run", "--preset", "fig1a", "--out", str(out), "--set", "outputs.svg=false"]
    ) == 0
    assert not list(out.glob("*.svg"))
    assert (out / "summary.json").exists()


def test_cli_run_inline_model(tmp_path):
    cfg = {
        "model": {
            "name": "flip",
            "initial": [[-1, 0], [0, 1]],
            "target": [[0, -1], [-1, 0]],
        },
        "coupling": 1.0,
        "total_time": 18.0,
        "step_width": 0.125,
        "hold_duration": 6.5,
        "sample_dt": 0.125,
        "shots": 0,
        "seed": 1,
        "observables": ["Z"],
        "outputs": {"directory": str(tmp_path / "inline")},
    }
    path = tmp_path / "inline.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "inline" / "summary.json").read_text())
    # ramping -Z into -X: same physics as the built-in flip model
    assert summary["observables"]["Z"]["diagnosis_exact"]["model_kind"] == "anticommuting"
    assert 0.0 < summary["beta_sq"] < 0.1


def _json_matrix(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _beside(top, block):
    m = np.zeros((top.shape[0] + block.shape[0],) * 2, dtype=complex)
    m[:2, :2] = top
    m[2:, 2:] = block
    return m


def _seeded_block(rng, n):
    # a Hermitian block whose spectrum lies in [2, 4], above model2's [-1, 1]
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = (g + g.conj().T) / 2.0
    return a / np.linalg.norm(a) + 3.0 * np.eye(n)


@pytest.mark.parametrize("integrator", ["trotter2", "exact-midpoint"])
def test_block_diagonal_inline_model_reproduces_the_model2_run(integrator):
    # fig2's 2x2 block beside seeded 3x3 blocks whose spectra lie in [2, 4],
    # above the block's [-1, 1], as in the benchmark's wide_inline workload.
    # The dimension-5 ramp goes through the general eigensolver and
    # propagator, the model2 ramp through the 2x2 ones. The general kernel
    # finishes the 2x2 block with the 2x2 routine's rotation, so the states
    # agree to the bit today; the bound leaves room for the last bits, and the
    # sampled headline must be equal, as the benchmark requires.
    rng = np.random.default_rng(11)
    z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    plain = replace(preset_config("fig2"), total_time=4.5, shots=10_000, integrator=integrator)
    data = plain.to_dict()
    data.update(
        model={
            "initial": _json_matrix(_beside(-z, _seeded_block(rng, 3))),
            "target": _json_matrix(_beside(-(x + z) / np.sqrt(2.0), _seeded_block(rng, 3))),
        },
        observables=[{"label": "Z", "matrix": _json_matrix(_beside(z, np.zeros((3, 3))))}],
    )
    wide = config_from_dict(data, source="block-diagonal")
    schedule = plain.build_schedule()
    small = run_adiabatic(plain.build_model(), schedule, integrator)
    big = run_adiabatic(wide.build_model(), schedule, integrator)
    assert big.shape == (5,) and not big[2:].any()
    assert np.max(np.abs(big[:2] - small)) < 1e-14
    got, want = run_experiment(wide).summary, run_experiment(plain).summary
    exact = (got["observables"]["Z"]["diagnosis_exact"], want["observables"]["Z"]["diagnosis_exact"])
    for key in ("beta_sq", "raw_average", "corrected_value"):
        assert got[key] == want[key], key
        assert exact[0][key] == pytest.approx(exact[1][key], rel=1e-12, abs=1e-15), key


@pytest.mark.parametrize("seed", [115, 211])
def test_wide_inline_seeds_reproduce_the_model2_headline_to_the_bit(seed):
    # the benchmark's wide_inline config at the two seeds of 0-449 whose
    # sampled beta_sq sits on a rounding edge: built in the same rng draw
    # order, its dimension-8 run must give the plain model2 run's headline at
    # rtol 0, which holds only while model2's reference pair is the
    # eigensolver's own (a closed form 1 ulp off it failed both seeds)
    rng = np.random.default_rng(seed)
    z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    data = dict(
        PRESETS["fig2"],
        model={
            "name": "fig2+6x6",
            "initial": _json_matrix(_beside(-z, _seeded_block(rng, 6))),
            "target": _json_matrix(_beside(-(x + z) / np.sqrt(2.0), _seeded_block(rng, 6))),
        },
        total_time=9.0,
        seed=int(rng.integers(0, 2**63)),
        observables=[{"label": "Z", "matrix": _json_matrix(_beside(z, np.zeros((6, 6))))}],
    )
    wide = config_from_dict(data, source="wide_inline")
    plain = replace(wide, model="model2", observables=("Z",))
    got, want = run_experiment(wide).summary, run_experiment(plain).summary
    for key in ("beta_sq", "raw_average", "corrected_value"):
        assert got[key] == want[key], key


def test_cli_diagnoses_an_inline_observable_by_its_reference_pair(tmp_path):
    # D's reference-pair block is model1's Z, but <g|D|g> = <e|D|e> is rounding
    # (-2.2e-17), which must count as zero
    config = ["--config", str(INLINE3), "--set", "shots=0"]
    diagnoses = {}
    for name, overrides, label in (
        ("inline", ['observables=[{"label": "D", "matrix": [[1, 0, 0], [0, -1, 0], [0, 0, 0.5]]}]'], "D"),
        ("flip", ["model=model1", 'observables=["Z"]'], "Z"),
    ):
        sets = [arg for override in overrides for arg in ("--set", override)]
        assert run_cli(["run", *config, *sets, "--out", str(tmp_path / name)]) == 0
        summary = json.loads((tmp_path / name / "summary.json").read_text())
        diagnoses[name] = summary["observables"][label]["diagnosis_exact"]
    inline_diag, flip_diag = diagnoses["inline"], diagnoses["flip"]
    assert inline_diag["model_kind"] == "anticommuting"
    for key in ("beta_sq", "raw_average", "corrected_value"):
        assert inline_diag[key] == pytest.approx(flip_diag[key], rel=1e-12), key


def test_dense_inline_model_reproduces_the_model1_run():
    # inline4's A is model1's Z on the conjugated reference pair, so its
    # dense ramp and diagnosis read model1's state and Z diagnosis
    cfg = replace(config_from_dict(load_config_file(INLINE4)), shots=0)
    got = run_experiment(cfg).summary
    want = run_experiment(replace(cfg, model="model1", observables=("Z",))).summary
    for key in ("beta_sq", "theta"):
        assert got["state_decomposition"][key] == pytest.approx(
            want["state_decomposition"][key], rel=1e-12
        ), key
    diagnoses = got["observables"]["A"]["diagnosis_exact"], want["observables"]["Z"]["diagnosis_exact"]
    for key in ("beta_sq", "raw_average", "corrected_value"):
        assert diagnoses[0][key] == pytest.approx(diagnoses[1][key], rel=1e-12, abs=1e-15), key


def test_cli_reads_the_weight_of_a_scaled_anticommuting_observable(tmp_path):
    # 2Z is off-diagonal on model1's reference pair with |<g|O|e>| = 2; the
    # variance is divided by |O_ge|^2, so it reads Z's weight to the bit
    diagnoses = {}
    for label, s in (("Z", 1), ("Z2", 2)):
        observables = f'observables=[{{"label":"{label}","matrix":[[{s},0],[0,{-s}]]}}]'
        args = ["run", "--preset", "fig1a", "--set", "shots=0", "--set", observables]
        assert run_cli([*args, "--out", str(tmp_path / label)]) == 0
        summary = json.loads((tmp_path / label / "summary.json").read_text())
        diagnoses[label] = summary["observables"][label]["diagnosis_exact"]
    assert diagnoses["Z2"]["model_kind"] == "anticommuting"
    assert diagnoses["Z2"]["beta_sq"] == diagnoses["Z"]["beta_sq"]


def test_cli_reports_no_weight_for_a_non_beating_observable(tmp_path):
    # the excited-state projector on fig1a has O_gg = 0, O_ee = 1 and O_ge = 0:
    # its record cannot beat, so it reports no weight and no correction
    observables = 'observables=[{"label":"P","matrix":[[0.5,-0.5],[-0.5,0.5]]}]'
    args = ["run", "--preset", "fig1a", "--set", "shots=0", "--set", observables]
    assert run_cli([*args, "--out", str(tmp_path / "p")]) == 0
    summary = json.loads((tmp_path / "p" / "summary.json").read_text())
    diag = summary["observables"]["P"]["diagnosis_exact"]
    assert diag["beta_sq"] == 0.0
    assert diag["corrected_value"] == diag["raw_average"]
    assert diag["reference_value"] == 0.0


def test_cli_rejects_an_inline_model_whose_hermitian_part_overflows(tmp_path, capsys):
    # every entry is finite, but (a + a^H)/2 is not: this used to ramp into
    # NaN amplitudes and exit 3 after numpy overflow warnings
    cfg = {
        "model": {"initial": [[1.5e308, 0], [0, -1.5e308]], "target": [[0, -1], [-1, 0]]},
        "coupling": 1.0,
        "total_time": 18.0,
        "step_width": 0.125,
        "hold_duration": 6.5,
        "shots": 0,
        "seed": 1,
        "outputs": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config field 'model': operator 'initial': Hermitian part" in err
    assert "overflows at entry (0, 0)" in err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_observable_dimension_mismatch(tmp_path):
    data = apply_set_overrides(
        dict(PRESETS["fig1a"]),
        ['observables=[{"label":"big","matrix":[[1,0,0],[0,1,0],[0,0,1]]}]'],
    )
    with pytest.raises(ConfigError, match="dimension"):
        config_from_dict(data).build_model()


def test_cli_rejects_booleans_in_float_fields(capsys):
    # JSON true is a Python int subclass; it must not pass as J = 1
    for name in ("coupling", "total_time", "step_width", "hold_duration", "sample_dt"):
        assert run_cli(["validate", "--preset", "fig2", "--set", f"{name}=true"]) == 2
        assert f"config field {name!r}" in capsys.readouterr().err


def test_cli_rejects_non_boolean_output_flags(capsys):
    for name, text in (("svg", "no"), ("csv", "1"), ("json", '"true"')):
        assert run_cli(["validate", "--preset", "fig2", "--set", f"outputs.{name}={text}"]) == 2
        assert f"config field 'outputs.{name}'" in capsys.readouterr().err


_Z = '[[1,0],[0,-1]]'
_X = '[[0,1],[1,0]]'


def _inline(initial=_Z, target=_X, extra=""):
    return f'model={{"initial": {initial}, "target": {target}{extra}}}'


@pytest.mark.parametrize(
    "source, overrides, seed, message",
    [
        # inline matrices
        ("fig1a", [_inline(initial="5")], None,
         "config field 'model.initial': expected a matrix as a list of rows"),
        ("fig1a", [_inline(target='[[0,"1"],[1,0]]')], None,
         "config field 'model.target': matrix entries must be numbers or [re, im] pairs"),
        ("fig1a", [_inline(initial="[[true,0],[0,false]]")], None,
         "config field 'model.initial': matrix entries must be numbers or [re, im] pairs"),
        ("fig1a", [_inline(target="[[0,[1,false]],[1,0]]")], None,
         "config field 'model.target': matrix entries must be numbers or [re, im] pairs"),
        ("fig1a", [_inline(target="[[0,1],[1]]")], None, "config field 'model.target': "),
        ("fig1a", [_inline(target="[[0,1]]")], None,
         "config field 'model.target': matrix must be square, got (1, 2)"),
        # inline models
        ("fig1a", [_inline(extra=', "size": 2')], None,
         "config field 'model': unknown keys ['size']"),
        ("fig1a", [f'model={{"initial": {_Z}}}'], None,
         "config field 'model': missing 'target' matrix"),
        ("fig1a", [_inline(extra=', "name": ["flip"]')], None,
         "config field 'model.name': must be a string (got ['flip'])"),
        # inline observables
        ("fig1a", [f'observables=[{{"label": "A", "matrix": {_Z}, "scale": 2}}]'], None,
         "config field 'observables': unknown keys ['scale']"),
        ("fig1a", [f'observables=[{{"matrix": {_Z}}}]'], None,
         "config field 'observables': inline entries need label and matrix"),
        ("fig1a", ['observables=[{"label": "A"}]'], None,
         "config field 'observables': inline entries need label and matrix"),
        ("fig1a", [f'observables=[{{"label": ["a"], "matrix": {_Z}}}]'], None,
         "config field 'observables.label': must be a string (got ['a'])"),
        ("fig1a", ['observables=[{"label": "A", "matrix": [[1,0],[0,true]]}]'], None,
         "config field 'observables.matrix': matrix entries must be numbers or [re, im] pairs"),
        ("fig1a", ["observables=[5]"], None, "config field 'observables': bad entry 5"),
        # the config object, its file and the command line
        ("fig1a", ['observables="Z"'], None, "config: observables must be a list"),
        ("fig1a", ["outputs=5"], None, "config: outputs must be an object"),
        ("fig1a", ["outputs.png=true"], None, "config: unknown outputs fields ['png']"),
        ("[1]", [], None, "must hold a JSON object"),
        ("fig1a", ["=x"], None, "bad --set '=x': empty key"),
        ("fig1a", [], str(2**64), f"ADIAPREP_SEED must lie in [0, 2^64), got {2**64}"),
        ("fig1a", [], "-1", "ADIAPREP_SEED must lie in [0, 2^64), got -1"),
        # an empty inline label would write series_.csv and key summary.json by ""
        ("fig1a", [f'observables=[{{"label": "", "matrix": {_Z}}}]'], None,
         "config field 'observables.label': must not be empty"),
        ("fig1a", [_inline(initial="[1,2]")], None,
         "config field 'model.initial': matrix rows must be lists (row 0 is 1)"),
        # a line break in a label would split the CSV's "# observable" comment
        ("fig1a", [f'observables=[{{"label": "Z\\nt,exact", "matrix": {_Z}}}]'], None,
         "config field 'observables.label': must be printable (got 'Z\\nt,exact')"),
        # hold grids that cannot show fig2's beat, whose period is 4
        ("fig2", ["sample_dt=1"], None,
         "config field 'sample_dt': 4 samples per period; need at least 16"),
        ("fig2", ["hold_duration=2"], None,
         "config field 'hold_duration': record spans 0.5 periods; need at least one"),
    ],
)
def test_cli_config_errors_exit_2_naming_the_field(
    source, overrides, seed, message, tmp_path, monkeypatch, capsys
):
    if source in PRESETS:
        args = ["validate", "--preset", source]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(source)
        args = ["validate", "--config", str(path)]
        message = f"config file {path} {message}"
    if seed is None:
        monkeypatch.delenv("ADIAPREP_SEED", raising=False)
    else:
        monkeypatch.setenv("ADIAPREP_SEED", seed)
    for override in overrides:
        args += ["--set", override]
    assert run_cli(args) == 2
    assert message in capsys.readouterr().err


def test_non_hermitian_inline_observable_names_the_observables_field():
    data = apply_set_overrides(
        dict(PRESETS["fig1a"]),
        ['observables=[{"label":"bad","matrix":[[0,1],[0,0]]}]'],
    )
    with pytest.raises(ConfigError, match=r"^config field 'observables': .*'bad'.*not Hermitian"):
        config_from_dict(data).build_model()


def test_unknown_observable_label_names_the_observables_field(capsys):
    assert run_cli(["validate", "--preset", "fig1a", "--set", 'observables=["Q"]']) == 2
    err = capsys.readouterr().err
    assert "config field 'observables'" in err and "'Q'" in err
    assert "'model'" not in err


def test_duplicate_observable_labels_are_rejected(capsys):
    data = apply_set_overrides(dict(PRESETS["fig1a"]), ['observables=["Z","-X","Z"]'])
    with pytest.raises(ConfigError, match=r"'observables': duplicate labels \['Z'\]"):
        config_from_dict(data).build_model()
    assert run_cli(["validate", "--preset", "fig1a", "--set", 'observables=["Z","Z"]']) == 2
    assert "duplicate labels" in capsys.readouterr().err


def test_labels_sharing_an_artifact_name_are_rejected(tmp_path, capsys):
    z = [[1, 0], [0, -1]]
    observables = [{"label": "Z 1", "matrix": z}, {"label": "Z_1", "matrix": z}]
    data = {**PRESETS["fig1a"], "shots": 0, "observables": observables,
            "outputs": {"directory": str(tmp_path / "out")}}
    message = "config field 'observables': labels 'Z 1' and 'Z_1' share the artifact name series_Z_1"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        config_from_dict(data).build_model()
    path = tmp_path / "collide.json"
    path.write_text(json.dumps(data))
    assert run_cli(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "wrote" not in captured.out
    assert not (tmp_path / "out").exists()


def test_sweep_over_step_width(tmp_path):
    cfg = preset_config("fig2")
    cfg = config_from_dict(
        apply_set_overrides(
            dict(PRESETS["fig2"]),
            ["shots=0", f"outputs.directory={tmp_path / 'sweep_dt'}"],
        )
    )
    rows, path = sweep(cfg, "dt", [1.0 / 12.0, 1.0 / 24.0])
    assert [row["value"] for row in rows] == [pytest.approx(1.0 / 12.0), pytest.approx(1.0 / 24.0)]
    # halving the step shrinks the ramp error about fourfold
    ratio = rows[0]["trotter_deviation"] / rows[1]["trotter_deviation"]
    assert 3.5 < ratio < 4.5
    lines = path.read_text().splitlines()
    assert lines[0] == "parameter,value,beta_sq,raw_average,corrected_value,reference_value,stderr,trotter_deviation"
    assert len(lines) == 3
    assert lines[1].startswith("dt,")


def test_sweep_over_total_time(tmp_path):
    cfg = config_from_dict(
        apply_set_overrides(
            dict(PRESETS["fig2"]),
            ["shots=0", f"outputs.directory={tmp_path / 'sweep_T'}"],
        )
    )
    rows, _ = sweep(cfg, "T", [4.5, 36.0])
    assert rows[0]["beta_sq"] == pytest.approx(BETA_SQ_T_4_5, rel=1e-3)
    assert rows[1]["beta_sq"] == pytest.approx(BETA_SQ_T_36, rel=1e-3)


def test_sweep_over_shots_shrinks_stderr(tmp_path):
    cfg = config_from_dict(
        apply_set_overrides(
            dict(PRESETS["fig2"]),
            [f"outputs.directory={tmp_path / 'sweep_shots'}"],
        )
    )
    rows, path = sweep(cfg, "shots", [1000, 1_000_000])
    ratio = rows[0]["stderr"] / rows[1]["stderr"]
    assert ratio == pytest.approx(np.sqrt(1000.0), rel=0.25)
    cells = path.read_text().splitlines()[1].split(",")
    assert cells[1] == "1000"


def _count_reference_ramps(monkeypatch) -> list:
    built = []
    original = runner.run_adiabatic

    def counting(spec, schedule, integrator="trotter2", **kwargs):
        if integrator == "exact-midpoint":
            built.append(schedule.step_width)
        return original(spec, schedule, integrator, **kwargs)

    monkeypatch.setattr(runner, "run_adiabatic", counting)
    return built


def test_sweep_reference_cache_lives_for_one_call(tmp_path, monkeypatch):
    cfg = config_from_dict(
        apply_set_overrides(
            dict(PRESETS["fig1a"]),
            ["shots=0", "total_time=4.5", f"outputs.directory={tmp_path}"],
        )
    )
    built = _count_reference_ramps(monkeypatch)
    first, _ = sweep(cfg, "T", [4.5])
    second, _ = sweep(cfg, "T", [4.5])
    assert len(built) == 2
    assert first == second
    built.clear()
    rows, _ = sweep(cfg, "shots", [0, 100, 1000])
    assert len(built) == 1
    assert len({row["trotter_deviation"] for row in rows}) == 1


def test_sweep_builds_each_model_once(tmp_path, monkeypatch):
    cfg = config_from_dict(
        apply_set_overrides(
            dict(PRESETS["fig1a"]), ["shots=0", f"outputs.directory={tmp_path}"]
        )
    )
    built = []
    original = ExperimentConfig.build_model

    def counting(self):
        built.append(self.total_time)
        return original(self)

    monkeypatch.setattr(ExperimentConfig, "build_model", counting)
    rows, _ = sweep(cfg, "T", [4.5, 9.0])
    assert built == [4.5, 9.0]
    assert all(row["trotter_deviation"] > 0.0 for row in rows)


def test_sweep_rejects_unknown_parameter(tmp_path):
    cfg = config_from_dict(
        apply_set_overrides(dict(PRESETS["fig2"]), [f"outputs.directory={tmp_path}"])
    )
    with pytest.raises(ConfigError, match="sweep parameter"):
        sweep(cfg, "J", [1.0])
    with pytest.raises(ConfigError, match="at least one"):
        sweep(cfg, "T", [])


def test_sweep_rejects_bool_values(tmp_path):
    # config_from_dict rejects JSON booleans in these fields; a library caller
    # must not get True run as 1 shot or T = 1.0 either
    cfg = config_from_dict(
        apply_set_overrides(dict(PRESETS["fig2"]), [f"outputs.directory={tmp_path}"])
    )
    for parameter, value in (("shots", True), ("T", True), ("dt", np.True_), ("shots", np.False_)):
        with pytest.raises(ConfigError, match=f"sweep value for {parameter} must be a number"):
            sweep(cfg, parameter, [value])
    assert not list(tmp_path.iterdir())


def test_cli_sweep_verb(tmp_path, capsys):
    out = tmp_path / "cli_sweep"
    code = run_cli(
        [
            "sweep",
            "--preset",
            "fig2",
            "--out",
            str(out),
            "--set",
            "shots=0",
            "--parameter",
            "T",
            "--values",
            "4.5,36",
        ]
    )
    assert code == 0
    assert (out / "sweep_T.csv").exists()
    stdout = capsys.readouterr().out
    assert "T=4.5" in stdout and "T=36" in stdout
    assert "trotter_deviation=" in stdout


def test_cli_sweep_rejects_bad_values(capsys):
    code = run_cli(
        ["sweep", "--preset", "fig2", "--parameter", "T", "--values", "4.5,abc"]
    )
    assert code == 2
    assert "--values" in capsys.readouterr().err
    for value in ("inf", "nan", "-1", "1.5", "2.5"):
        code = run_cli(
            ["sweep", "--preset", "fig2", "--parameter", "shots", "--values", value]
        )
        assert code == 2, value
        assert "sweep value for shots must be a nonnegative integer" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    out = tmp_path / "proc"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "adiaprep",
            "run",
            "--preset",
            "fig2",
            "--out",
            str(out),
            "--set",
            "shots=0",
            "--set",
            "outputs.svg=false",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()


def test_runner_headline_matches_observable_entry():
    cfg = config_from_dict(apply_set_overrides(dict(PRESETS["fig2"]), ["shots=0"]))
    result = run_experiment(cfg)
    entry = result.summary["observables"]["Z"]["diagnosis_exact"]
    assert result.summary["beta_sq"] == entry["beta_sq"]
    assert result.summary["corrected_value"] == entry["corrected_value"]
    assert result.summary["reference_value"] == pytest.approx(1.0 / np.sqrt(2.0))


def _key_paths(node, prefix=""):
    if not isinstance(node, dict):
        return set()
    paths = set()
    for key, value in node.items():
        paths.add(prefix + key)
        paths |= _key_paths(value, prefix + key + ".")
    return paths


SUMMARY_TOP_KEYS = {
    "beta_sq",
    "config",
    "corrected_value",
    "headline_channel",
    "headline_observable",
    "oscillation_angular_frequency",
    "observables",
    "raw_average",
    "reference_value",
    "state_decomposition",
}
CONFIG_KEYS = {
    "coupling",
    "hold_duration",
    "integrator",
    "mean_estimator",
    "model",
    "observables",
    "outputs",
    "sample_dt",
    "seed",
    "shots",
    "step_width",
    "total_time",
}
OUTPUTS_KEYS = {"csv", "directory", "json", "svg"}
DECOMPOSITION_KEYS = {"alpha_mod", "beta_mod", "beta_sq", "theta", "theta_defined"}
STATS_KEYS = {
    "amplitude",
    "mean_arith",
    "mean_minmax",
    "peak_to_peak",
    "variance",
    "window_periods",
    "window_size",
}
DIAGNOSIS_KEYS = {
    "alpha_beta_sq",
    "beta_sq",
    "beta_sq_shortcut",
    "corrected_value",
    "model_kind",
    "noise_floor",
    "raw_average",
    "reference_value",
}


def _expected_summary_paths(observable, channels, diagnosis_keys, extra=()):
    paths = set(SUMMARY_TOP_KEYS)
    paths |= {f"config.{k}" for k in CONFIG_KEYS}
    paths |= {f"config.outputs.{k}" for k in OUTPUTS_KEYS}
    paths |= {f"state_decomposition.{k}" for k in DECOMPOSITION_KEYS}
    base = f"observables.{observable}"
    paths.add(base)
    paths |= {f"{base}.{k}" for k in extra}
    for channel in channels:
        paths |= {f"{base}.stats_{channel}"} | {f"{base}.stats_{channel}.{k}" for k in STATS_KEYS}
        paths |= {f"{base}.diagnosis_{channel}"}
        paths |= {f"{base}.diagnosis_{channel}.{k}" for k in diagnosis_keys}
    return paths


@pytest.mark.parametrize(
    "preset, shots, expected",
    [
        (
            "fig1a",
            10_000,
            _expected_summary_paths(
                "Z",
                ("exact", "sampled"),
                DIAGNOSIS_KEYS | {"predicted_conserved"},
                extra=("stderr_point_mean", "stderr_window_mean"),
            ),
        ),
        ("fig2", 0, _expected_summary_paths("Z", ("exact",), DIAGNOSIS_KEYS)),
    ],
)
def test_summary_json_key_set_is_pinned(tmp_path, preset, shots, expected):
    out = tmp_path / preset
    code = run_cli(
        ["run", "--preset", preset, "--out", str(out), "--set", f"shots={shots}",
         "--set", "outputs.csv=false", "--set", "outputs.svg=false"]
    )
    assert code == 0
    assert _key_paths(json.loads((out / "summary.json").read_text())) == expected
