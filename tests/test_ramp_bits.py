"""Bit pin on the ramp: final states and sweep deviations, compared with ==.

The values were produced by the scalar Jacobi eigensolver with the array
H(s) of the exact-midpoint step (Python 3.11, numpy 2.4). Every later change
to the ramp's numerics either keeps these bits or replaces this pin with a
stated bound.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adiaprep.config import config_from_dict, load_config_file, preset_config
from adiaprep.evolve import run_adiabatic
from adiaprep.model import AdiabaticSchedule
from adiaprep.runner import sweep

# CI's 3x3 inline model; its observables do not enter the ramp
INLINE3 = Path(__file__).parent / "data" / "inline3.json"

# (config, total_time, integrator) -> final state
FINAL_STATES = {
    ("fig1a", 4.5, "trotter2"): [
        complex(-0.5398535005495151, -0.40869474565180386),
        complex(-0.612313428198424, -0.40816549152141834),
    ],
    ("fig1a", 4.5, "exact-midpoint"): [
        complex(-0.5400140075778024, -0.4086796099398417),
        complex(-0.6118388876645541, -0.40867960993984176),
    ],
    ("fig1a", 9.0, "trotter2"): [
        complex(0.37610312571492704, 0.6183449360665267),
        complex(0.3066092200040918, 0.6182125565505792),
    ],
    ("fig1a", 9.0, "exact-midpoint"): [
        complex(0.37550976423216875, 0.6186228680976572),
        complex(0.30594756266320755, 0.6186228680976567),
    ],
    ("fig2", 4.5, "trotter2"): [
        complex(-0.9008789512118354, -0.21807609228137045),
        complex(-0.3642875155423163, -0.09030248755570919),
    ],
    ("fig2", 4.5, "exact-midpoint"): [
        complex(-0.9008815218518914, -0.21807510324545726),
        complex(-0.3642750121578483, -0.09032966538018138),
    ],
    ("fig2", 9.0, "trotter2"): [
        complex(0.8425157217505013, 0.3940517856044793),
        complex(0.32901858137954126, 0.163209135688344),
    ],
    ("fig2", 9.0, "exact-midpoint"): [
        complex(0.842508562300061, 0.3940659045857695),
        complex(0.32901092295519585, 0.16322744214824786),
    ],
    ("inline3", 18.0, "trotter2"): [
        complex(-0.3167499447019181, 0.6226532708692845),
        complex(-0.35239233680727117, 0.6227294900408774),
        complex(0.0, 0.0),
    ],
    ("inline3", 18.0, "exact-midpoint"): [
        complex(-0.3180328123419657, 0.6219970526732983),
        complex(-0.35368695651002025, 0.6219970526732989),
        complex(0.0, 0.0),
    ],
}

# fig2's exact-midpoint reference at step_width/64 for T = 4.5, as sweep runs it
FIG2_REFERENCE_T_4_5 = [
    complex(-0.9008815220205724, -0.2180881085263345),
    complex(-0.36426588986523106, -0.09033505234390467),
]

# fig2's sweep over T at shots=0: trotter_deviation per value
FIG2_TROTTER_DEVIATION = {4.5: 4.0977244175397869e-05, 9.0: 3.3673033425737222e-05}


def _config(name, total_time):
    cfg = config_from_dict(load_config_file(INLINE3)) if name == "inline3" else preset_config(name)
    return replace(cfg, total_time=total_time)


def _assert_bits(got, want):
    # tobytes also tells a signed zero from an unsigned one
    want = np.array(want, dtype=np.complex128)
    assert got.tobytes() == want.tobytes(), (got.tolist(), want.tolist())


@pytest.mark.parametrize(("name", "total_time", "integrator"), sorted(FINAL_STATES))
def test_final_state_keeps_its_bits(name, total_time, integrator):
    cfg = _config(name, total_time)
    got = run_adiabatic(cfg.build_model(), cfg.build_schedule(), integrator)
    _assert_bits(got, FINAL_STATES[name, total_time, integrator])


def test_sweep_reference_keeps_its_bits():
    cfg = _config("fig2", 4.5)
    fine = AdiabaticSchedule(4.5, cfg.step_width / 64)
    _assert_bits(run_adiabatic(cfg.build_model(), fine, "exact-midpoint"), FIG2_REFERENCE_T_4_5)


def test_sweep_trotter_deviation_keeps_its_bits():
    cfg = preset_config("fig2")
    cfg = replace(cfg, shots=0, outputs=replace(cfg.outputs, csv=False))
    rows, path = sweep(cfg, "T", sorted(FIG2_TROTTER_DEVIATION))
    assert path is None
    got = {row["value"]: row["trotter_deviation"] for row in rows}
    assert got == FIG2_TROTTER_DEVIATION
