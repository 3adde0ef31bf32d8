"""Deterministic CSV and SVG emission.

Numbers are serialized with 9 significant digits and a lowercase exponent,
so repeated runs with the same resolved configuration produce byte-identical
files on any platform. The SVG writer draws a self-contained polyline chart
(fixed viewBox, no external assets); the CSV stays the data contract.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["format_number", "write_csv", "write_svg"]

_PALETTE = ("#1f6fb4", "#d1495b", "#3a9d6c", "#8b5fbf", "#c98a2b", "#4f5d75")


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


def write_svg(path, x, series, title="", x_label="", y_label="",
              log_x=False, log_y=False):
    """Single-file polyline chart; series maps label -> y array."""
    width, height = 640.0, 480.0
    ml, mr, mt, mb = 62.0, 16.0, 34.0, 46.0
    pw, ph = width - ml - mr, height - mt - mb

    x = np.asarray(x, dtype=float)
    ys = {label: np.asarray(y, dtype=float) for label, y in series.items()}

    def tx(v):
        return np.log10(np.maximum(v, 1e-300)) if log_x else v

    def ty(v):
        return np.log10(np.maximum(v, 1e-300)) if log_y else v

    x_t = tx(x)
    all_y = np.concatenate([ty(y) for y in ys.values()])
    x_lo, x_hi = float(np.min(x_t)), float(np.max(x_t))
    y_lo, y_hi = float(np.min(all_y)), float(np.max(all_y))
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

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
        pts = " ".join("%.2f,%.2f" % p for p in zip(x_px, py(ty(y)).tolist()))
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
