"""Self-contained SVG charts (no plotting dependency).

Line charts take one or more DatedSeries; radar charts show a share
profile.  All text is XML-escaped and every file is a single <svg>
element, so the output can be embedded or opened directly.
"""

from __future__ import annotations

import math
from datetime import timedelta
from html import escape

from .series import DatedSeries

__all__ = ["line_chart", "radar_chart"]

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#bcbd22", "#e377c2", "#7f7f7f",
)

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 24, 40, 48


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e6:
        return str(int(x))
    return f"{x:.4g}"


def line_chart(
    series: list[DatedSeries],
    title: str,
    width: int = 900,
    height: int = 360,
    y_label: str = "",
) -> str:
    """Multi-line chart over the union of the series' date spans."""
    if not series:
        raise ValueError("no series to plot")
    start = min(s.start for s in series)
    end = max(s.end for s in series)
    n_days = (end - start).days
    lo = min(float(s.values.min()) for s in series)
    hi = max(float(s.values.max()) for s in series)
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    def sx(day_off: float) -> float:
        frac = day_off / n_days if n_days else 0.5
        return _MARGIN_L + frac * plot_w

    def sy(v: float) -> float:
        return _MARGIN_T + (hi - v) / (hi - lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" font-size="15">'
        f"{escape(title, quote=False)}</text>",
    ]
    # axes
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{_MARGIN_T}" x2="{x0}" y2="{y0}" stroke="#333"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="#333"/>'
    )
    for tick in _nice_ticks(lo, hi):
        y = sy(tick)
        parts.append(
            f'<line x1="{x0 - 4}" y1="{y:.1f}" x2="{x0 + plot_w}" y2="{y:.1f}" '
            f'stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{y + 4:.1f}" text-anchor="end">{_fmt(tick)}</text>'
        )
    n_x_ticks = min(6, n_days + 1)
    for i in range(n_x_ticks):
        off = round(i * n_days / max(n_x_ticks - 1, 1))
        x = sx(off)
        day = start + timedelta(days=off)
        parts.append(
            f'<line x1="{x:.1f}" y1="{y0}" x2="{x:.1f}" y2="{y0 + 4}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{y0 + 18}" text-anchor="middle">'
            f"{day.isoformat()}</text>"
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">'
            f"{escape(y_label, quote=False)}</text>"
        )
    # data
    for k, s in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        base = (s.start - start).days
        pts = " ".join(
            f"{sx(base + i):.2f},{sy(float(v)):.2f}" for i, v in enumerate(s.values)
        )
        if len(s) == 1:
            x, y = sx(base), sy(float(s.values[0]))
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
        else:
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        label = s.label or f"series {k}"
        lx = _MARGIN_L + 8 + 150 * (k % 5)
        ly = _MARGIN_T - 8 - 14 * (k // 5)
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 22}" y="{ly}">{escape(label, quote=False)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def radar_chart(
    labels: list[str],
    values,
    title: str,
    size: int = 420,
) -> str:
    """Share profile on radial axes, one spoke per label."""
    vals = [float(v) for v in values]
    if len(labels) != len(vals):
        raise ValueError(f"{len(labels)} labels for {len(vals)} values")
    if len(vals) < 2:
        raise ValueError("radar chart needs at least 2 axes")
    if any(v < 0 for v in vals):
        raise ValueError("radar values must be non-negative")
    vmax = max(vals) or 1.0
    cx = cy = size / 2.0
    radius = size / 2.0 - 60

    def point(i: int, r: float) -> tuple[float, float]:
        ang = -math.pi / 2 + 2 * math.pi * i / len(vals)
        return cx + r * math.cos(ang), cy + r * math.sin(ang)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}" font-family="sans-serif" font-size="12">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<text x="{cx:.1f}" y="20" text-anchor="middle" font-size="15">'
        f"{escape(title, quote=False)}</text>",
    ]
    for ring in (0.25, 0.5, 0.75, 1.0):
        pts = " ".join(
            f"{x:.2f},{y:.2f}"
            for x, y in (point(i, radius * ring) for i in range(len(vals)))
        )
        parts.append(f'<polygon points="{pts}" fill="none" stroke="#ddd"/>')
    for i, lab in enumerate(labels):
        x, y = point(i, radius)
        parts.append(
            f'<line x1="{cx:.1f}" y1="{cy:.1f}" x2="{x:.2f}" y2="{y:.2f}" '
            f'stroke="#bbb"/>'
        )
        lx, ly = point(i, radius + 18)
        anchor = "middle"
        if lx > cx + 1:
            anchor = "start"
        elif lx < cx - 1:
            anchor = "end"
        parts.append(
            f'<text x="{lx:.1f}" y="{ly + 4:.1f}" text-anchor="{anchor}">'
            f"{escape(lab, quote=False)}</text>"
        )
    pts = " ".join(
        f"{x:.2f},{y:.2f}"
        for x, y in (
            point(i, radius * (v / vmax)) for i, v in enumerate(vals)
        )
    )
    parts.append(
        f'<polygon points="{pts}" fill="#1f77b4" fill-opacity="0.35" '
        f'stroke="#1f77b4" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts)
