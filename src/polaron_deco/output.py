"""Deterministic CSV and SVG emission.

Numbers are serialized with 9 significant digits and a lowercase exponent,
so repeated runs with the same resolved configuration produce byte-identical
files on any platform. The SVG writer draws a self-contained polyline chart
(fixed viewBox, no external assets), and plot_points picks the points that
set its pixels; the CSV stays the data contract, with every point.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = ["format_number", "plot_points", "write_csv", "write_svg"]

_PALETTE = ("#1f6fb4", "#d1495b", "#3a9d6c", "#8b5fbf", "#c98a2b", "#4f5d75")

# the chart's viewBox, and the left, right, top and bottom plot margins
WIDTH, HEIGHT = 640.0, 480.0
MARGINS = (62.0, 16.0, 34.0, 46.0)


def format_number(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if v == 0.0:
        return "0"
    return f"{v:.9g}"


def write_csv(path, header, columns, comments=()):
    """Write columns (equal-length sequences) under a header row.

    Payload is numeric only, so no quoting is ever required. Optional
    comment lines (already prefixed with '#') go above the header. Each row
    is one %-template over the columns with format_number's rules: integer
    columns as %d, float columns as %.9g after adding 0.0 (-0.0 prints 0).
    """
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("all CSV columns must have equal length")
    integer = [c.dtype.kind in "biu" for c in columns]
    row = ",".join("%d" if i else "%.9g" for i in integer)
    values = [(c if i else c + 0.0).tolist() for c, i in zip(columns, integer)]
    lines = list(comments)
    lines.append(",".join(header))
    lines.extend(row % cells for cells in zip(*values))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


def _axis(v, log: bool):
    """Values as drawn on a linear or a log10 axis (clamped at 1e-300)."""
    v = np.asarray(v, dtype=float)
    return np.log10(np.maximum(v, 1e-300)) if log else v


def _span(v):
    """(lo, hi) of an axis; a single value spans one unit."""
    lo, hi = float(np.min(v)), float(np.max(v))
    return (lo, hi) if hi > lo else (lo, lo + 1.0)


def _x_pixel(v, x_lo, x_hi):
    """Horizontal viewBox position of the axis value v."""
    ml, mr = MARGINS[:2]
    return ml + (v - x_lo) / (x_hi - x_lo) * (WIDTH - ml - mr)


def plot_points(x, ys, log_x=False, log_y=False) -> np.ndarray:
    """Sorted indices of the points that a write_svg chart of every y in ys
    against x needs to draw the same pixels (M4: Jugel et al., PVLDB 7(10),
    2014).

    Consecutive points in one pixel column, the integer part of the x
    position write_svg prints, form a run. Each run keeps its first and
    last point, and for every series the point of its minimum and of its
    maximum y, so each column spans the same y range and joins its
    neighbours as before. The chart's extreme x and y are always kept, so
    its axes and ticks do not change. A chart with a non-finite coordinate
    keeps every point.
    """
    x_t = _axis(x, log_x)
    ys_t = [_axis(y, log_y) for y in ys]
    if not all(np.all(np.isfinite(v)) for v in [x_t] + ys_t):
        return np.arange(len(x_t))
    # the pixel column of each x as write_svg prints it, to 0.01; px + 0.005
    # rounds, so a point within 1e-9 of a column edge is printed to decide
    px = _x_pixel(x_t, *_span(x_t))
    column = np.floor(px + 0.005)
    near = np.flatnonzero(np.abs(px + 0.005 - np.rint(px + 0.005)) < 1e-9)
    column[near] = [math.floor(float("%.2f" % v)) for v in px[near]]
    new_run = np.r_[True, column[1:] != column[:-1]]
    run = np.cumsum(new_run) - 1
    starts = np.flatnonzero(new_run)
    ends = np.r_[starts[1:], len(x_t)] - 1
    keep = [starts, ends, [np.argmin(x_t), np.argmax(x_t)]]
    for y_t in ys_t:
        for extreme in (np.minimum, np.maximum):
            # the first point of each run that reaches the run's extreme
            hit = np.flatnonzero(y_t == extreme.reduceat(y_t, starts)[run])
            keep.append(hit[np.r_[True, np.diff(run[hit]) > 0]])
    kept = np.zeros(len(x_t), dtype=bool)
    kept[np.concatenate(keep)] = True
    return np.flatnonzero(kept)


def write_svg(path, x, series, title="", x_label="", y_label="",
              log_x=False, log_y=False):
    """Single-file polyline chart; series maps label -> y array."""
    width, height = WIDTH, HEIGHT
    ml, mr, mt, mb = MARGINS
    pw, ph = width - ml - mr, height - mt - mb

    x_t = _axis(x, log_x)
    ys = {label: _axis(y, log_y) for label, y in series.items()}

    x_lo, x_hi = _span(x_t)
    y_lo, y_hi = _span(np.concatenate(list(ys.values())))
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(v):
        return _x_pixel(v, x_lo, x_hi)

    def py(v):
        return mt + ph - (v - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        f'<rect x="{ml:g}" y="{mt:g}" width="{pw:g}" height="{ph:g}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:g}" y="20" text-anchor="middle" '
                     f'font-size="14">{title}</text>')
    for v in _ticks(x_lo, x_hi):
        xp = px(v)
        label = format_number(10 ** v if log_x else v)
        parts.append(f'<line x1="{xp:.2f}" y1="{mt + ph:g}" x2="{xp:.2f}" '
                     f'y2="{mt + ph + 5:g}" stroke="#333"/>')
        parts.append(f'<text x="{xp:.2f}" y="{mt + ph + 18:g}" '
                     f'text-anchor="middle">{label}</text>')
    for v in _ticks(y_lo, y_hi):
        yp = py(v)
        label = format_number(10 ** v if log_y else v)
        parts.append(f'<line x1="{ml - 5:g}" y1="{yp:.2f}" x2="{ml:g}" '
                     f'y2="{yp:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{ml - 8:g}" y="{yp + 4:.2f}" '
                     f'text-anchor="end">{label}</text>')
    if x_label:
        parts.append(f'<text x="{ml + pw / 2:g}" y="{height - 8:g}" '
                     f'text-anchor="middle">{x_label}</text>')
    if y_label:
        parts.append(f'<text x="16" y="{mt + ph / 2:g}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {mt + ph / 2:g})">{y_label}</text>')

    x_px = px(x_t).tolist()
    for i, (label, y) in enumerate(ys.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join("%.2f,%.2f" % p for p in zip(x_px, py(y).tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = mt + 16 + 16 * i
        parts.append(f'<line x1="{ml + pw - 120:g}" y1="{ly:g}" '
                     f'x2="{ml + pw - 96:g}" y2="{ly:g}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw - 90:g}" y="{ly + 4:g}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
