"""Minimal SVG rendering for evaluation curves.

No plotting dependency: curves are written as standalone SVG with fixed
canvas geometry and fixed-precision coordinates, so the same curve always
produces byte-identical output.
"""

from __future__ import annotations

import math
from pathlib import Path
from xml.sax.saxutils import escape

from .errors import DataError
from .evaluation import EvalCurve

WIDTH, HEIGHT = 640, 480
LEFT, RIGHT, TOP, BOTTOM = 70, 20, 42, 52

_AXIS_COLOR = "#444444"
_GRID_COLOR = "#dddddd"
_LINE_COLOR = "#1f6fb2"

# Fixed axis ranges; points outside are clamped (miss) or dropped (zero FPPI
# has no place on a log axis).
_FPPI_DECADES = (-4, 1)
_MISS_DECADES = (-2, 0)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _plot_x(frac: float) -> float:
    return LEFT + frac * (WIDTH - LEFT - RIGHT)


def _plot_y(frac: float) -> float:
    # frac 0 = bottom of the plot area
    return HEIGHT - BOTTOM - frac * (HEIGHT - TOP - BOTTOM)


def _frame(title: str, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" fill="#222222">{escape(title)}</text>',
        f'<text x="{_fmt(_plot_x(0.5))}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="{_AXIS_COLOR}">{x_label}</text>',
        f'<text x="16" y="{_fmt(_plot_y(0.5))}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="{_AXIS_COLOR}" '
        f'transform="rotate(-90 16 {_fmt(_plot_y(0.5))})">{y_label}</text>',
    ]
    return parts


def _axes_box() -> str:
    x0, x1 = _fmt(_plot_x(0.0)), _fmt(_plot_x(1.0))
    y0, y1 = _fmt(_plot_y(0.0)), _fmt(_plot_y(1.0))
    return (
        f'<rect x="{x0}" y="{y1}" width="{_fmt(_plot_x(1.0) - _plot_x(0.0))}" '
        f'height="{_fmt(_plot_y(0.0) - _plot_y(1.0))}" fill="none" '
        f'stroke="{_AXIS_COLOR}" stroke-width="1"/>'
    )


def _tick(x: float, y: float, label: str, axis: str) -> list[str]:
    if axis == "x":
        return [
            f'<line x1="{_fmt(x)}" y1="{_fmt(y)}" x2="{_fmt(x)}" y2="{_fmt(y + 5)}" '
            f'stroke="{_AXIS_COLOR}" stroke-width="1"/>',
            f'<text x="{_fmt(x)}" y="{_fmt(y + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="{_AXIS_COLOR}">{label}</text>',
        ]
    return [
        f'<line x1="{_fmt(x - 5)}" y1="{_fmt(y)}" x2="{_fmt(x)}" y2="{_fmt(y)}" '
        f'stroke="{_AXIS_COLOR}" stroke-width="1"/>',
        f'<text x="{_fmt(x - 8)}" y="{_fmt(y + 4)}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11" fill="{_AXIS_COLOR}">{label}</text>',
    ]


def _gridline(p0: tuple[float, float], p1: tuple[float, float]) -> str:
    return (
        f'<line x1="{_fmt(p0[0])}" y1="{_fmt(p0[1])}" x2="{_fmt(p1[0])}" '
        f'y2="{_fmt(p1[1])}" stroke="{_GRID_COLOR}" stroke-width="1"/>'
    )


def _polyline(points: list[tuple[float, float]]) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return (
        f'<polyline points="{coords}" fill="none" stroke="{_LINE_COLOR}" '
        f'stroke-width="2"/>'
    )


def _log_frac(v: float, decades: tuple[int, int]) -> float:
    lo, hi = decades
    return (math.log10(v) - lo) / (hi - lo)


def _render_fppi_miss(curve: EvalCurve, title: str) -> str:
    parts = _frame(title, "false positives per image", "miss rate")
    lo, hi = _FPPI_DECADES
    for d in range(lo, hi + 1):
        x = _plot_x(_log_frac(10.0**d, _FPPI_DECADES))
        if lo < d < hi:
            parts.append(_gridline((x, _plot_y(0.0)), (x, _plot_y(1.0))))
        parts.extend(_tick(x, _plot_y(0.0), f"1e{d}", "x"))
    mlo, mhi = _MISS_DECADES
    for d in range(mlo, mhi + 1):
        y = _plot_y(_log_frac(10.0**d, _MISS_DECADES))
        if mlo < d < mhi:
            parts.append(_gridline((_plot_x(0.0), y), (_plot_x(1.0), y)))
        parts.extend(_tick(_plot_x(0.0), y, f"1e{d}", "y"))
    parts.append(_axes_box())

    points = []
    for _, fppi, miss in curve.samples:
        if fppi <= 0.0:
            continue
        fx = min(max(_log_frac(fppi, _FPPI_DECADES), 0.0), 1.0)
        my = min(max(_log_frac(max(miss, 10.0 ** _MISS_DECADES[0]), _MISS_DECADES), 0.0), 1.0)
        points.append((_plot_x(fx), _plot_y(my)))
    if points:
        parts.append(_polyline(points))
    return _wrap(parts)


def _render_pr(curve: EvalCurve, title: str) -> str:
    parts = _frame(title, "recall", "precision")
    for i in range(6):
        frac = i / 5.0
        x = _plot_x(frac)
        y = _plot_y(frac)
        if 0 < i < 5:
            parts.append(_gridline((x, _plot_y(0.0)), (x, _plot_y(1.0))))
            parts.append(_gridline((_plot_x(0.0), y), (_plot_x(1.0), y)))
        parts.extend(_tick(x, _plot_y(0.0), _fmt(frac), "x"))
        parts.extend(_tick(_plot_x(0.0), y, _fmt(frac), "y"))
    parts.append(_axes_box())

    points = [
        (_plot_x(min(max(recall, 0.0), 1.0)), _plot_y(min(max(precision, 0.0), 1.0)))
        for _, recall, precision in curve.samples
    ]
    if points:
        parts.append(_polyline(points))
    return _wrap(parts)


def _wrap(parts: list[str]) -> str:
    body = "\n".join("  " + p for p in parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n{body}\n</svg>\n'
    )


def render_curve_svg(curve: EvalCurve, title: str | None = None) -> str:
    """SVG text for a curve; an empty curve still renders titled axes."""
    if curve.kind == "fppi_miss":
        default = "miss rate vs FPPI"
        return _render_fppi_miss(curve, title or default)
    if curve.kind == "pr":
        default = "precision vs recall"
        return _render_pr(curve, title or default)
    raise DataError(f"cannot plot curve kind {curve.kind!r}")


def write_curve_svg(path, curve: EvalCurve, title: str | None = None) -> None:
    Path(path).write_text(render_curve_svg(curve, title), encoding="utf-8")
