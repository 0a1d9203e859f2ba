"""Bit pin on the ramp: final states and sweep deviations, compared with ==.

The values were produced by the closed-form 2x2 eigensolver (one Jacobi
rotation with Rutishauser's diagonal update) and, for the 3x3 model, the
Householder-QL kernel, with the array H(s) of the exact-midpoint step (Python
3.11, numpy 2.4). Every later change to the ramp's numerics either keeps
these bits or replaces this pin with a stated bound; the 3x3 states are held
to INLINE3_BOUND.
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
        complex(-0.5398535005495149, -0.4086947456518041),
        complex(-0.6123134281984234, -0.40816549152141846),
    ],
    ("fig1a", 4.5, "exact-midpoint"): [
        complex(-0.5400140075778023, -0.40867960993984187),
        complex(-0.6118388876645545, -0.4086796099398417),
    ],
    ("fig1a", 9.0, "trotter2"): [
        complex(0.37610312571492666, 0.6183449360665266),
        complex(0.30660922000409163, 0.618212556550579),
    ],
    ("fig1a", 9.0, "exact-midpoint"): [
        complex(0.37550976423216864, 0.6186228680976579),
        complex(0.305947562663208, 0.6186228680976575),
    ],
    ("fig2", 4.5, "trotter2"): [
        complex(-0.9008789512118351, -0.21807609228137048),
        complex(-0.3642875155423162, -0.09030248755570919),
    ],
    ("fig2", 4.5, "exact-midpoint"): [
        complex(-0.9008815218518914, -0.21807510324545726),
        complex(-0.3642750121578483, -0.09032966538018143),
    ],
    ("fig2", 9.0, "trotter2"): [
        complex(0.842515721750501, 0.3940517856044809),
        complex(0.3290185813795417, 0.16320913568834472),
    ],
    ("fig2", 9.0, "exact-midpoint"): [
        complex(0.8425085623000598, 0.3940659045857677),
        complex(0.3290109229551952, 0.16322744214824716),
    ],
    ("inline3", 18.0, "trotter2"): [
        complex(-0.31674994470191736, 0.6226532708692837),
        complex(-0.352392336807271, 0.6227294900408771),
        complex(0.0, 0.0),
    ],
    ("inline3", 18.0, "exact-midpoint"): [
        complex(-0.31803281234196634, 0.6219970526732972),
        complex(-0.3536869565100203, 0.6219970526732984),
        complex(0.0, 0.0),
    ],
}

# norm distance allowed from the 3x3 pins, which come from the n >= 3 kernel:
# the Householder-QL kernel moved them by 1.4e-15 from the cyclic Jacobi
# sweeps before it, and a later change to that kernel may move them too
INLINE3_BOUND = 1e-13

# fig2's exact-midpoint reference at step_width/64 for T = 4.5, as sweep runs it
FIG2_REFERENCE_T_4_5 = [
    complex(-0.9008815220205726, -0.21808810852633442),
    complex(-0.36426588986523395, -0.09033505234390281),
]

# fig2's sweep over T at shots=0: trotter_deviation per value
FIG2_TROTTER_DEVIATION = {4.5: 4.0977244172333344e-05, 9.0: 3.367303342174201e-05}


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
    want = FINAL_STATES[name, total_time, integrator]
    if name == "inline3":
        assert np.linalg.norm(got - np.array(want)) <= INLINE3_BOUND, got.tolist()
    else:
        _assert_bits(got, want)


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
