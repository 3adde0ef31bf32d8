"""Reference CSV and SVG writers that format one cell and one point at a time.

write_csv calls format_number on every cell and write_svg formats every
polyline point with its own f-string. output.write_csv and output.write_svg
apply the same rules to whole rows and arrays; the tests hold the two to
identical bytes.
"""

import numpy as np

from polaron_deco.output import _PALETTE, _ticks, format_number


def reference_write_csv(path, header, columns, comments=()):
    """Write columns (equal-length sequences) under a header row.

    Payload is numeric only, so no quoting is ever required. Optional
    comment lines (already prefixed with '#') go above the header.
    """
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("all CSV columns must have equal length")
    lines = list(comments)
    lines.append(",".join(header))
    for i in range(n):
        lines.append(",".join(format_number(c[i]) for c in columns))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_write_svg(path, x, series, title="", x_label="", y_label="",
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

    for i, (label, y) in enumerate(ys.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(u):.2f},{py(v):.2f}" for u, v in zip(x_t, ty(y)))
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
