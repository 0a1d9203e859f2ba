"""Golden regression pin on the presets' headline numbers.

The values were produced by the array-based Jacobi eigensolver (Python
3.11, numpy 2.4) and guard every later change to the numerics. Tolerance:
1e-12 relative plus 1e-15 absolute. The absolute part covers values that
are pure round-off, such as fig1a's raw average at shots=0 (1.2e-17).
"""

from dataclasses import replace

import numpy as np
import pytest

from adiaprep.config import preset_config
from adiaprep.runner import run_experiment

RTOL = 1e-12
ATOL = 1e-15

# (preset, shots) -> (beta_sq, raw_average, corrected_value,
#                     state_decomposition.beta_sq, state_decomposition.theta)
GOLDEN = {
    ("fig1a", 1_000_000): (
        0.00011747691022334639,
        0.00013000000000000164,
        0.00013000000000000164,
        0.00011817473226685028,
        0.9481978753673559,
    ),
    ("fig1a", 0): (
        0.00011817473226682917,
        1.214306433183765e-17,
        1.214306433183765e-17,
        0.00011817473226685028,
        0.9481978753673559,
    ),
    ("fig1b", 1_000_000): (
        0.0,
        -0.9997649999999998,
        -0.9997649999999998,
        0.00011817473226685028,
        0.9481978753673559,
    ),
    ("fig1b", 0): (
        0.0,
        -0.9997636505353554,
        -0.9997636505353554,
        0.00011817473226685028,
        0.9481978753673559,
    ),
    ("fig2", 1_000_000): (
        0.00015252240276281137,
        0.707042,
        0.7072577453013719,
        0.0001534403839240446,
        1.7210292527870807,
    ),
    ("fig2", 0): (
        0.00015344038392400838,
        0.706889783714546,
        0.707106781186507,
        0.0001534403839240446,
        1.7210292527870807,
    ),
}


@pytest.mark.parametrize(("preset", "shots"), sorted(GOLDEN))
def test_preset_headlines_match_golden(preset, shots):
    cfg = preset_config(preset)
    assert shots in (0, cfg.shots)
    summary = run_experiment(replace(cfg, shots=shots)).summary
    decomposition = summary["state_decomposition"]
    measured = (
        summary["beta_sq"],
        summary["raw_average"],
        summary["corrected_value"],
        decomposition["beta_sq"],
        decomposition["theta"],
    )
    np.testing.assert_allclose(measured, GOLDEN[preset, shots], rtol=RTOL, atol=ATOL)
