"""Minimal SVG emission for attractor pictures and parameter scans.

No plotting dependency: the outputs are a circle of direction ticks and
simple line plots, both cheap to write as strings.  A direction theta in
(0, pi] is drawn at circle angle 2*theta so the projective line wraps the
circle exactly once and antipodal angles coincide.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

_PALETTE = ("#1f4e8c", "#c0392b", "#1e8449", "#7d3c98", "#b7950b")

#: Side of the square direction-circle picture and length of its ticks.
_SIZE = 560
_TICK_LEN = 14.0

#: Size of a line plot.
_WIDTH = 640
_HEIGHT = 400


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def attractor_svg(
    points,
    max_ticks: int = 4000,
    title: str | None = None,
) -> str:
    """Direction cloud as radial ticks on a unit circle.

    Clouds beyond max_ticks points are thinned evenly; the cap keeps files
    viewable in a browser.
    """
    pts = np.sort(np.asarray(getattr(points, "points", points), dtype=float))
    if pts.size > max_ticks:
        idx = np.unique(np.linspace(0, pts.size - 1, max_ticks).astype(int))
        pts = pts[idx]
    cx = cy = _SIZE / 2.0
    radius = _SIZE * 0.42
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
        'fill="none" stroke="#999" stroke-width="1"/>',
    ]
    half = _TICK_LEN / 2.0
    for theta in pts:
        phi = 2.0 * float(theta)
        ux, uy = math.cos(phi), -math.sin(phi)
        x1, y1 = cx + (radius - half) * ux, cy + (radius - half) * uy
        x2, y2 = cx + (radius + half) * ux, cy + (radius + half) * uy
        out.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="#1f4e8c" stroke-width="1"/>'
        )
    if title:
        out.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(_SIZE - 12.0)}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="13">{title}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def line_plot_svg(
    xs: Sequence[float],
    series: Iterable[tuple[str, Sequence[float]]],
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Polyline plot of one or more y-series over a shared x-axis.

    Non-finite y values break the polyline into segments, so failed grid
    points in a scan show up as gaps rather than spikes.
    """
    xs = [float(x) for x in xs]
    series = [(name, [float(y) for y in ys]) for name, ys in series]
    if not xs or not series:
        raise ValueError("need at least one x value and one series")
    for name, ys in series:
        if len(ys) != len(xs):
            raise ValueError(f"series {name!r} length differs from x grid")
    finite = [
        y for _, ys in series for y in ys if math.isfinite(y)
    ]
    if not finite:
        raise ValueError("no finite values to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(finite), max(finite)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    ml, mr, mt, mb = 56, 16, 16, 44

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - ml - mr)

    def py(y):
        return _HEIGHT - mb - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - mt - mb)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{_WIDTH - ml - mr}" '
        f'height="{_HEIGHT - mt - mb}" fill="none" stroke="#333" '
        'stroke-width="1"/>',
    ]
    for label, value, anchor, x, y in (
        (x_label, None, "middle", (ml + _WIDTH - mr) / 2.0, _HEIGHT - 8.0),
        (f"{x_lo:g}", None, "middle", px(x_lo), _HEIGHT - mb + 16.0),
        (f"{x_hi:g}", None, "middle", px(x_hi), _HEIGHT - mb + 16.0),
        (f"{y_lo:.3g}", None, "end", ml - 6.0, py(y_lo) + 4.0),
        (f"{y_hi:.3g}", None, "end", ml - 6.0, py(y_hi) + 4.0),
    ):
        if label:
            out.append(
                f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
                f'font-family="sans-serif" font-size="12">{label}</text>'
            )
    if y_label:
        out.append(
            f'<text x="14" y="{_fmt((mt + _HEIGHT - mb) / 2.0)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {_fmt((mt + _HEIGHT - mb) / 2.0)})">'
            f"{y_label}</text>"
        )
    for i, (name, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        run: list[str] = []
        segments: list[list[str]] = []
        for x, y in zip(xs, ys):
            if math.isfinite(y):
                run.append(f"{_fmt(px(x))},{_fmt(py(y))}")
            elif run:
                segments.append(run)
                run = []
        if run:
            segments.append(run)
        for seg in segments:
            if len(seg) == 1:
                x_str, y_str = seg[0].split(",")
                out.append(
                    f'<circle cx="{x_str}" cy="{y_str}" r="2.5" '
                    f'fill="{color}"/>'
                )
            else:
                out.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
        out.append(
            f'<text x="{_WIDTH - mr - 6}" y="{mt + 18 + 16 * i}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{name}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
