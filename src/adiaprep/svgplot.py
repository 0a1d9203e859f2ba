"""Small self-contained SVG line plots; no plotting dependency.

Output is deterministic: fixed canvas, fixed tick ladder, fixed float
formatting, so repeated runs produce byte-identical files.

Curves are drawn at the resolution of the plot area with M4 aggregation
(Jugel et al., PVLDB 7(10), 2014). A point's pixel column is
floor((x - x_lo) / (x_hi - x_lo) * plot_w), so the last point sits alone in
column plot_w. Of each column the polyline keeps the first, the last, the
lowest and the highest point (ties to the first index), in time order. The
rasterised line is the same, and a column that holds one point keeps it, so
a curve with at most one point per column is drawn in full.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

__all__ = ["line_plot"]

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 30, 46


def _nice_step(span: float) -> float:
    raw = span / 5  # about five ticks per axis
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10.0 * magnitude


def _ticks(lo: float, hi: float, axis: str) -> list[float]:
    step = _nice_step(hi - lo)
    # a step below the float spacing at the axis ends cannot move a tick
    if not step > math.ulp(max(abs(lo), abs(hi))):
        raise ValueError(f"{axis} values must span more than the float spacing at their size")
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _escape(text: str) -> str:
    # the replacements of xml.sax.saxutils.escape, in its order; importing
    # that module pulls urllib, http, email and ssl into every process
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _m4_keep(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mask of each column's first, last, lowest and highest point.

    starts and sizes give the contiguous columns; ties go to the first index.
    """
    keep = np.zeros(len(values), dtype=bool)
    keep[starts] = keep[starts + sizes - 1] = True
    index = np.arange(len(values))
    for reduce in (np.minimum, np.maximum):
        extreme = np.repeat(reduce.reduceat(values, starts), sizes)
        at_extreme = np.where(values == extreme, index, len(values))
        keep[np.minimum.reduceat(at_extreme, starts)] = True
    return keep


def line_plot(
    path: str | Path,
    x,
    curves,
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> Path:
    """Write a line plot; curves is a list of (label, y-values, css color).

    x must be finite and strictly increasing, and every curve finite. The x
    span must reach the smallest normal float, and it and the padded y span
    must stay below the largest float and above the float spacing at their
    ends.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("need at least two x values in a 1-D sequence")
    if not np.isfinite(x).all():
        raise ValueError("x values must be finite")
    # spans as Python floats: past the largest double they read inf with no
    # numpy overflow warning, and a finite x span bounds every np.diff step
    x_lo, x_hi = float(x.min()), float(x.max())
    if not math.isfinite(x_hi - x_lo):
        raise ValueError("x values must span less than the largest float")
    if not (np.diff(x) > 0).all():
        raise ValueError("x values must be strictly increasing")
    # a subnormal span's tick step loses precision, and for the smallest
    # spans underflows to 0
    if x_hi - x_lo < sys.float_info.min:
        raise ValueError("x values must span at least the smallest normal float")
    x_ticks = _ticks(x_lo, x_hi, "x")
    ys = [np.asarray(y, dtype=np.float64) for _, y, _ in curves]
    if not ys:
        raise ValueError("need at least one curve")
    for (label, _, _), y in zip(curves, ys):
        if y.shape != x.shape:
            raise ValueError(
                f"curve {label!r}: length {len(y)} does not match {len(x)} x values"
            )
        if not np.isfinite(y).all():
            raise ValueError(f"curve {label!r}: values must be finite")

    y_lo = min(float(y.min()) for y in ys)
    y_hi = max(float(y.max()) for y in ys)
    if y_hi - y_lo < 1e-12:
        pad = max(abs(y_hi), 1.0) * 0.05
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = (y_hi - y_lo) * 0.08
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if not math.isfinite(y_hi - y_lo):
        raise ValueError("y values must span less than the largest float, with padding")
    y_ticks = _ticks(y_lo, y_hi, "y")

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(v: float) -> float:
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="19" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>'
        )

    axis_style = 'stroke="#333333" stroke-width="1"'
    grid_style = 'stroke="#dddddd" stroke-width="1"'
    for t in x_ticks:
        gx = px(t)
        parts.append(f'<line x1="{gx:.2f}" y1="{MARGIN_T}" x2="{gx:.2f}" '
                     f'y2="{MARGIN_T + plot_h}" {grid_style}/>')
        parts.append(f'<line x1="{gx:.2f}" y1="{MARGIN_T + plot_h}" x2="{gx:.2f}" '
                     f'y2="{MARGIN_T + plot_h + 5}" {axis_style}/>')
        parts.append(f'<text x="{gx:.2f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    for t in y_ticks:
        gy = py(t)
        parts.append(f'<line x1="{MARGIN_L}" y1="{gy:.2f}" x2="{MARGIN_L + plot_w}" '
                     f'y2="{gy:.2f}" {grid_style}/>')
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{gy:.2f}" x2="{MARGIN_L}" '
                     f'y2="{gy:.2f}" {axis_style}/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{gy + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
                 f'fill="none" {axis_style}/>')

    # px and py as array maps in the same operation order, so every point
    # rounds alike; x is increasing, so each pixel column is one run of x
    offset = (x - x_lo) / (x_hi - x_lo) * plot_w
    starts = np.flatnonzero(np.diff(np.floor(offset), prepend=-1.0))
    sizes = np.diff(starts, append=len(x))
    xs = MARGIN_L + offset
    for (_, _, color), values in zip(curves, ys):
        keep = _m4_keep(values, starts, sizes)
        points = " ".join(
            "%.2f,%.2f" % p
            for p in zip(
                xs[keep].tolist(),
                (MARGIN_T + (y_hi - values[keep]) / (y_hi - y_lo) * plot_h).tolist(),
            )
        )
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')

    legend_y = MARGIN_T + 14
    for label, _, color in curves:
        if not label:
            continue
        lx = MARGIN_L + plot_w - 150
        parts.append(f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 22}" y2="{legend_y - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{legend_y}" font-family="sans-serif" '
                     f'font-size="11">{_escape(label)}</text>')
        legend_y += 16

    if xlabel:
        parts.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 8}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="12">'
                     f'{_escape(xlabel)}</text>')
    if ylabel:
        cy = MARGIN_T + plot_h / 2
        parts.append(f'<text x="14" y="{cy:.1f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12" '
                     f'transform="rotate(-90 14 {cy:.1f})">{_escape(ylabel)}</text>')

    parts.append("</svg>")
    out = Path(path)
    out.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return out
