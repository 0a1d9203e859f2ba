"""The series CSV: its vectorised kernel writes exactly the bytes of
'%.17g' % x for every cell, and whole files match the per-row oracle."""

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiaprep.config import config_from_dict, load_config_file, preset_config
from adiaprep.measure import TimeSeries
from adiaprep.runner import _CSV_BLOCK, _format_rows, _write_series_csv, run_experiment

from _oracles import write_series_csv

INLINE3 = Path(__file__).parent / "data" / "inline3.json"


def _assert_formats_exactly(values) -> None:
    x = np.asarray(values, dtype=np.float64)
    got = str(_format_rows(x[:, None], [b"\n"]), "ascii").split("\n")[:-1]
    want = ["%.17g" % v for v in x.tolist()]
    assert len(got) == len(want)
    bad = [(v, w, g) for v, w, g in zip(x.tolist(), want, got) if w != g]
    assert not bad, bad[:5]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            st.floats(min_value=1e-5, max_value=1e17),
            st.floats(min_value=-1e17, max_value=-1e-5),
        ),
        min_size=1,
        max_size=32,
    )
)
def test_kernel_matches_percent_format_on_any_float(values):
    _assert_formats_exactly(values)


def test_kernel_matches_percent_format_on_random_bit_patterns():
    rng = np.random.default_rng(20261020)
    anywhere = rng.integers(0, 2**64, size=50_000, dtype=np.uint64, endpoint=False)
    # the same, with the exponent field drawn around the fixed-notation range
    exponent = rng.integers(1023 - 18, 1023 + 58, size=50_000).astype(np.uint64)
    near = (anywhere & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (exponent << np.uint64(52))
    _assert_formats_exactly(np.concatenate([anywhere, near]).view(np.float64))


def test_kernel_rounds_exact_ties_half_to_even():
    # m * 2^-(p+1) with m odd times 10^p is m * 5^p / 2, an exact tie between
    # two 17-digit integers when it lies in [1e16, 1e17)
    rng = np.random.default_rng(7)
    ties = []
    for p in range(1, 22):
        low = -(-2 * 10**16 // 5**p)
        high = min(-(-2 * 10**17 // 5**p), 2**53)
        m = rng.integers(low, high, size=40) | 1
        m = m[m < high]
        x = np.ldexp(m.astype(np.float64), -(p + 1))
        for v in x.tolist():
            scaled = Fraction(v) * 10**p
            assert scaled.denominator == 2 and 10**16 <= scaled < 10**17
        ties.append(x)
    ties = np.concatenate(ties)
    _assert_formats_exactly(np.concatenate([ties, -ties]))


def test_kernel_matches_percent_format_next_to_short_decimals():
    # short decimals put D next to a multiple of 1e8, where the kernel's split
    # D = upper * 1e8 + lower needs its corrections
    rng = np.random.default_rng(5)
    digits, exponents = rng.integers(1, 10**5, 4000), rng.integers(-9, 13, 4000)
    short = np.array([float(f"{k}e{j}") for k, j in zip(digits, exponents)])
    up = down = short
    values = [short]
    for _ in range(3):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        values += [up, down]
    values = np.concatenate(values)
    _assert_formats_exactly(np.concatenate([values, -values]))


def test_kernel_matches_percent_format_next_to_powers_of_ten():
    # the largest double below each power of ten is the closest a cell comes
    # to rounding up into the next decade
    values = []
    for k in range(-6, 18):
        up = down = 10.0**k
        values.append(up)
        for _ in range(4):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
            values += [up, down]
    values = np.array(values)
    _assert_formats_exactly(np.concatenate([values, -values, [0.0, -0.0]]))


def test_kernel_writes_each_columns_separator():
    rng = np.random.default_rng(3)
    block = rng.uniform(-2.0, 2.0, size=(9, 2))
    block[4, 1] = -0.0
    got = str(_format_rows(block, [b",", b",,\n"]), "ascii")
    assert got == "".join("%.17g,%.17g,,\n" % (a, b) for a, b in block.tolist())


def _record_with_fallback_cells() -> TimeSeries:
    n = _CSV_BLOCK + 3
    rng = np.random.default_rng(11)
    exact = rng.uniform(-1.0, 1.0, n)
    sampled = exact + rng.normal(0.0, 1e-3, n)
    stderr = rng.uniform(0.0, 1e-3, n)
    special = [0.0, -0.0, 1e-5, -1e-5, 1e17, -1e17, 5e-324, -2.5, 1e-4, 9.999999999999999e-5]
    # in the first block and in the short last one
    for column in (exact, sampled, stderr):
        column[1 : 1 + len(special)] = special
        column[n - len(special) :] = special[::-1]
    return TimeSeries(np.arange(n) * 0.125, exact, sampled, stderr, 1000, "Z")


def _records(case: str) -> tuple[list[TimeSeries], float]:
    if case == "fallback cells":
        return [_record_with_fallback_cells()], 9.0
    if case == "inline3":
        cfg = config_from_dict(load_config_file(INLINE3))
    elif case == "fig2 shots=0":
        cfg = replace(preset_config("fig2"), shots=0)
    elif case == "fig2 three blocks":
        cfg = replace(preset_config("fig2"), hold_duration=48.0)
    else:
        cfg = preset_config(case)
    return list(run_experiment(cfg).series.values()), cfg.total_time


@pytest.mark.parametrize(
    "case",
    ["fig1a", "fig1b", "fig2", "fig2 shots=0", "inline3", "fig2 three blocks", "fallback cells"],
)
def test_series_csv_matches_the_per_row_writer(case, tmp_path):
    records, total_time = _records(case)
    if case == "fig2 three blocks":
        assert records[0].n_points > 2 * _CSV_BLOCK
    for series in records:
        _write_series_csv(tmp_path / "kernel.csv", series, total_time)
        write_series_csv(tmp_path / "oracle.csv", series, total_time)
        got = (tmp_path / "kernel.csv").read_bytes()
        assert got == (tmp_path / "oracle.csv").read_bytes(), series.observable_label
        if case == "fig2 shots=0":
            assert got.endswith(b",,\n")
