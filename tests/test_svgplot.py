import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from adiaprep.svgplot import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, line_plot

PLOT_W = WIDTH - MARGIN_L - MARGIN_R
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B


def test_line_plot_is_well_formed_xml_with_markup_characters(tmp_path):
    x = np.linspace(0.0, 1.0, 20)
    path = line_plot(
        tmp_path / "plot.svg",
        x,
        [("<Z> & 'exact'", np.cos(x), "#1f77b4")],
        title="<Z> during the hold",
        xlabel="hold time",
        ylabel="<Z>",
    )
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "<Z> during the hold" in texts
    assert "<Z> & 'exact'" in texts


def test_line_plot_is_deterministic(tmp_path):
    x = np.linspace(0.0, 2.0, 50)
    curves = [("a", np.sin(x), "#111111"), ("b", np.cos(x), "#222222")]
    first = line_plot(tmp_path / "a.svg", x, curves, title="t").read_bytes()
    second = line_plot(tmp_path / "b.svg", x, curves, title="t").read_bytes()
    assert first == second


def test_line_plot_flat_curve_gets_padded_axis(tmp_path):
    x = [0.0, 1.0, 2.0]
    path = line_plot(tmp_path / "flat.svg", x, [("", [0.5, 0.5, 0.5], "#000000")])
    ET.fromstring(path.read_text())


def test_line_plot_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError, match="two x values"):
        line_plot(tmp_path / "x.svg", [0.0], [("", [1.0], "#000")])
    with pytest.raises(ValueError, match="one curve"):
        line_plot(tmp_path / "x.svg", [0.0, 1.0], [])
    with pytest.raises(ValueError, match="length"):
        line_plot(tmp_path / "x.svg", [0.0, 1.0], [("", [1.0], "#000")])
    for x in ([1.0, 1.0], [1.0, 0.0], [0.0, 2.0, 1.0]):
        with pytest.raises(ValueError, match="x values must be strictly increasing"):
            line_plot(tmp_path / "x.svg", x, [("", [1.0] * len(x), "#000")])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="x values must be finite"):
            line_plot(tmp_path / "x.svg", [0.0, bad], [("", [1.0, 2.0], "#000")])
        with pytest.raises(ValueError, match="curve 'exact': values must be finite"):
            line_plot(tmp_path / "x.svg", [0.0, 1.0], [("exact", [1.0, bad], "#000")])
    with pytest.raises(ValueError, match="curve 'sampled': length 3"):
        line_plot(tmp_path / "x.svg", [0.0, 1.0], [("sampled", [1.0, 2.0, 3.0], "#000")])


def _polylines(path):
    root = ET.fromstring(path.read_text())
    return [el.get("points").split() for el in root.iter() if el.tag.endswith("polyline")]


def _raw_points(x, y):
    """Each raw point's pixel column and polyline string, by the per-point map
    of a single-curve plot."""
    lo, hi = float(np.min(y)), float(np.max(y))
    pad = max(abs(hi), 1.0) * 0.05 if hi - lo < 1e-12 else (hi - lo) * 0.08
    lo, hi = lo - pad, hi + pad
    x_lo, x_hi = float(x[0]), float(x[-1])
    cols, strings = [], []
    for a, b in zip(np.asarray(x).tolist(), np.asarray(y).tolist()):
        offset = (a - x_lo) / (x_hi - x_lo) * PLOT_W
        cols.append(math.floor(offset))
        strings.append("%.2f,%.2f" % (MARGIN_L + offset, MARGIN_T + (hi - b) / (hi - lo) * PLOT_H))
    return np.array(cols), strings


def test_line_plot_m4_keeps_each_column_extremes(tmp_path):
    rng = np.random.default_rng(20240607)
    x = np.linspace(0.0, 480.0, 20_000)
    y = np.cos(0.3 * x) + 0.2 * rng.standard_normal(len(x))
    curves = [("noisy", y, "#000000")]
    path = line_plot(tmp_path / "a.svg", x, curves)
    assert path.read_bytes() == line_plot(tmp_path / "b.svg", x, curves).read_bytes()

    (drawn,) = _polylines(path)
    cols, raw = _raw_points(x, y)
    # every drawn point is a raw point, in time order
    index, j = [], 0
    for point in drawn:
        j = raw.index(point, j)
        index.append(j)
        j += 1
    assert index[0] == 0 and index[-1] == len(x) - 1
    drawn_x = [float(p.split(",")[0]) for p in drawn]
    assert drawn_x == sorted(drawn_x)
    assert len(drawn) <= 4 * (PLOT_W + 1)

    raw_y = np.array([float(p.split(",")[1]) for p in raw])
    drawn_y = raw_y[index]
    drawn_cols = cols[index]
    for c in np.unique(cols):
        column, kept = raw_y[cols == c], drawn_y[drawn_cols == c]
        assert (kept.min(), kept.max()) == (column.min(), column.max())


def test_line_plot_m4_draws_every_point_of_a_sparse_curve(tmp_path):
    x = np.linspace(0.0, 96.0, 385)
    y = np.sin(x)
    (drawn,) = _polylines(line_plot(tmp_path / "s.svg", x, [("", y, "#000000")]))
    assert drawn == _raw_points(x, y)[1]


def test_line_plot_m4_constant_curve_keeps_first_and_last_of_each_column(tmp_path):
    x = np.linspace(0.0, 1.0, 20_000)
    y = np.full(len(x), 0.25)
    (drawn,) = _polylines(line_plot(tmp_path / "c.svg", x, [("", y, "#000000")]))
    cols, raw = _raw_points(x, y)
    edges = np.flatnonzero(np.diff(cols)) + 1
    expected = sorted({0, len(x) - 1, *edges.tolist(), *(edges - 1).tolist()})
    assert drawn == [raw[i] for i in expected]


def test_line_plot_m4_matches_a_per_column_loop_with_ties(tmp_path):
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 1.0, 5_000)
    y = rng.integers(0, 3, size=len(x)).astype(float)
    (drawn,) = _polylines(line_plot(tmp_path / "t.svg", x, [("", y, "#000000")]))
    cols, raw = _raw_points(x, y)
    columns = {}
    for i, c in enumerate(cols.tolist()):
        columns.setdefault(c, []).append(i)
    keep = set()
    for members in columns.values():
        # min and max return the first of equal values
        keep.update((members[0], members[-1], min(members, key=y.__getitem__),
                     max(members, key=y.__getitem__)))
    assert drawn == [raw[i] for i in sorted(keep)]
