"""Small self-contained SVG line plots; no plotting dependency.

Output is deterministic: fixed canvas, fixed tick ladder, fixed float
formatting, so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path
from xml.sax.saxutils import escape

__all__ = ["line_plot"]

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 30, 46


def _nice_step(span: float, target: int = 5) -> float:
    raw = span / target
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10.0 * magnitude


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def line_plot(
    path: str | Path,
    x,
    curves,
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> Path:
    """Write a line plot; curves is a list of (label, y-values, css color)."""
    x = [float(v) for v in x]
    if len(x) < 2:
        raise ValueError("need at least two x values")
    ys = [list(map(float, y)) for _, y, _ in curves]
    if not ys:
        raise ValueError("need at least one curve")
    for y in ys:
        if len(y) != len(x):
            raise ValueError("curve length does not match x")

    x_lo, x_hi = min(x), max(x)
    y_lo = min(min(y) for y in ys)
    y_hi = max(max(y) for y in ys)
    if y_hi - y_lo < 1e-12:
        pad = max(abs(y_hi), 1.0) * 0.05
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = (y_hi - y_lo) * 0.08
        y_lo, y_hi = y_lo - pad, y_hi + pad

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
            f'font-family="sans-serif" font-size="14">{escape(title)}</text>'
        )

    axis_style = 'stroke="#333333" stroke-width="1"'
    grid_style = 'stroke="#dddddd" stroke-width="1"'
    for t in _ticks(x_lo, x_hi):
        gx = px(t)
        parts.append(f'<line x1="{gx:.2f}" y1="{MARGIN_T}" x2="{gx:.2f}" '
                     f'y2="{MARGIN_T + plot_h}" {grid_style}/>')
        parts.append(f'<line x1="{gx:.2f}" y1="{MARGIN_T + plot_h}" x2="{gx:.2f}" '
                     f'y2="{MARGIN_T + plot_h + 5}" {axis_style}/>')
        parts.append(f'<text x="{gx:.2f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        gy = py(t)
        parts.append(f'<line x1="{MARGIN_L}" y1="{gy:.2f}" x2="{MARGIN_L + plot_w}" '
                     f'y2="{gy:.2f}" {grid_style}/>')
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{gy:.2f}" x2="{MARGIN_L}" '
                     f'y2="{gy:.2f}" {axis_style}/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{gy + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
                 f'fill="none" {axis_style}/>')

    for (label, y, color), values in zip(curves, ys):
        # px and py inlined, same operation order, so every point rounds alike
        points = " ".join(
            "%.2f,%.2f"
            % (
                MARGIN_L + (a - x_lo) / (x_hi - x_lo) * plot_w,
                MARGIN_T + (y_hi - b) / (y_hi - y_lo) * plot_h,
            )
            for a, b in zip(x, values)
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
                     f'font-size="11">{escape(label)}</text>')
        legend_y += 16

    if xlabel:
        parts.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 8}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="12">'
                     f'{escape(xlabel)}</text>')
    if ylabel:
        cy = MARGIN_T + plot_h / 2
        parts.append(f'<text x="14" y="{cy:.1f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12" '
                     f'transform="rotate(-90 14 {cy:.1f})">{escape(ylabel)}</text>')

    parts.append("</svg>")
    out = Path(path)
    out.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return out
