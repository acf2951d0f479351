"""Minimal self-contained SVG line plots.

No plotting toolchain: each figure is one hand-assembled <svg> string with
axes, tick labels, polyline series, a legend, and a leading XML comment
that records provenance (whatever config description or hash the caller
passes).  Output is deterministic, so plot files diff cleanly.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Series", "line_plot", "save_line_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MARGIN = {"left": 62.0, "right": 14.0, "top": 34.0, "bottom": 46.0}
_WIDTH, _HEIGHT = 640, 400
_TICKS = 5  # the tick count each axis aims at


@dataclass(frozen=True, eq=False)
class Series:
    """One polyline: x and y of equal length plus a legend label."""

    x: np.ndarray
    y: np.ndarray
    label: str

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("series x and y must be equal-length 1d arrays")
        if x.size < 2:
            raise ValueError("series needs at least two points")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def _data_range(values):
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi - lo < 1e-300:
        pad = max(abs(lo), 1.0) * 0.5
        return lo - pad, hi + pad
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo, hi):
    """Round tick positions at a 1/2/5 x 10^k step covering [lo, hi]."""
    raw = (hi - lo) / _TICKS
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    first = np.ceil(lo / step) * step
    ticks = np.arange(first, hi + 0.5 * step, step)
    # snap near-zero ticks that are pure rounding residue
    ticks[np.abs(ticks) < 1e-12 * step] = 0.0
    return ticks


def _escape(text):
    """Text as XML character data; & goes first so no entity is escaped twice."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v):
    return "%.6g" % v


def line_plot(series, title, x_label, y_label, provenance):
    """Render the series to a _WIDTH x _HEIGHT SVG document string."""
    if not series:
        raise ValueError("no series to plot")
    x_lo, x_hi = _data_range(np.concatenate([s.x for s in series]))
    y_lo, y_hi = _data_range(np.concatenate([s.y for s in series]))
    box_w = _WIDTH - _MARGIN["left"] - _MARGIN["right"]
    box_h = _HEIGHT - _MARGIN["top"] - _MARGIN["bottom"]

    def px(x):
        return _MARGIN["left"] + (x - x_lo) / (x_hi - x_lo) * box_w

    def py(y):
        return _MARGIN["top"] + (y_hi - y) / (y_hi - y_lo) * box_h

    # XML comments must not contain "--"
    note = _escape(str(provenance)).replace("--", "- -")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f"<!-- provenance: {note} -->",
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{px(x_lo):.2f}" y="{py(y_hi):.2f}" width="{box_w:.2f}" '
        f'height="{box_h:.2f}" fill="none" stroke="#444" stroke-width="1"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{py(y_lo):.2f}" x2="{x:.2f}" '
            f'y2="{py(y_lo) + 5:.2f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{py(y_lo) + 18:.2f}" text-anchor="middle">'
            f"{_escape(_fmt(t))}</text>"
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{px(x_lo) - 5:.2f}" y1="{y:.2f}" x2="{px(x_lo):.2f}" '
            f'y2="{y:.2f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{px(x_lo) - 8:.2f}" y="{y + 4:.2f}" text-anchor="end">'
            f"{_escape(_fmt(t))}</text>"
        )
    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(s.x, s.y))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    # legend, top-right inside the plot box
    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        lx = _MARGIN["left"] + box_w - 150
        ly = _MARGIN["top"] + 14 + 16 * i
        parts.append(
            f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" x2="{lx + 22:.2f}" '
            f'y2="{ly - 4:.2f}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{lx + 28:.2f}" y="{ly:.2f}">{_escape(s.label)}</text>')
    parts.append(
        f'<text x="{_WIDTH / 2:.2f}" y="20" text-anchor="middle" '
        f'font-size="14">{_escape(title)}</text>'
    )
    parts.append(
        f'<text x="{_MARGIN["left"] + box_w / 2:.2f}" y="{_HEIGHT - 10:.2f}" '
        f'text-anchor="middle">{_escape(x_label)}</text>'
    )
    yl_x, yl_y = 16, _MARGIN["top"] + box_h / 2
    parts.append(
        f'<text x="{yl_x}" y="{yl_y:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 {yl_x} {yl_y:.2f})">{_escape(y_label)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_line_plot(path, series, **kwargs):
    Path(path).write_text(line_plot(series, **kwargs))
    return Path(path)
