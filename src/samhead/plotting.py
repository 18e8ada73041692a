"""Minimal SVG rendering for evaluation curves.

No plotting dependency: curves are written as standalone SVG with fixed
canvas geometry and fixed-precision coordinates, so the same curve always
produces byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
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
    return [
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" fill="#222222">{escape(title)}</text>',
        f'<text x="{_fmt(_plot_x(0.5))}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="{_AXIS_COLOR}">{x_label}</text>',
        f'<text x="16" y="{_fmt(_plot_y(0.5))}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="{_AXIS_COLOR}" '
        f'transform="rotate(-90 16 {_fmt(_plot_y(0.5))})">{y_label}</text>',
    ]


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


def _axis(ticks: list[tuple[float, str]], axis: str) -> list[str]:
    """Tick marks and labels along one axis, with a gridline at each inner tick."""
    parts = []
    for k, (frac, label) in enumerate(ticks):
        x, y = (_plot_x(frac), _plot_y(0.0)) if axis == "x" else (_plot_x(0.0), _plot_y(frac))
        if 0 < k < len(ticks) - 1:
            far_x, far_y = (x, _plot_y(1.0)) if axis == "x" else (_plot_x(1.0), y)
            parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(y)}" x2="{_fmt(far_x)}" '
                         f'y2="{_fmt(far_y)}" stroke="{_GRID_COLOR}" stroke-width="1"/>')
        parts.extend(_tick(x, y, label, axis))
    return parts


def _polyline(points: list[tuple[float, float]]) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return (
        f'<polyline points="{coords}" fill="none" stroke="{_LINE_COLOR}" '
        f'stroke-width="2"/>'
    )


def _log_frac(v: float, decades: tuple[int, int]) -> float:
    lo, hi = decades
    return (math.log10(v) - lo) / (hi - lo)


def _clamp(frac: float) -> float:
    return min(max(frac, 0.0), 1.0)


def _log_ticks(decades: tuple[int, int]) -> list[tuple[float, str]]:
    lo, hi = decades
    return [(_log_frac(10.0**d, decades), f"1e{d}") for d in range(lo, hi + 1)]


def _fppi_miss_point(sample) -> tuple[float, float] | None:
    _, fppi, miss = sample
    if fppi <= 0.0:
        return None
    return (_clamp(_log_frac(fppi, _FPPI_DECADES)),
            _clamp(_log_frac(max(miss, 10.0 ** _MISS_DECADES[0]), _MISS_DECADES)))


def _pr_point(sample) -> tuple[float, float]:
    _, recall, precision = sample
    return _clamp(recall), _clamp(precision)


@dataclass(frozen=True)
class _Kind:
    """How one curve kind is drawn: labels, ticks as (fraction, label), sample to fractions."""

    title: str
    x_label: str
    y_label: str
    x_ticks: list[tuple[float, str]]
    y_ticks: list[tuple[float, str]]
    point: Callable  # sample -> (x, y) plot-area fractions, or None to drop it


_FIFTHS = [(i / 5.0, _fmt(i / 5.0)) for i in range(6)]

_KINDS = {
    "fppi_miss": _Kind("miss rate vs FPPI", "false positives per image", "miss rate",
                       _log_ticks(_FPPI_DECADES), _log_ticks(_MISS_DECADES), _fppi_miss_point),
    "pr": _Kind("precision vs recall", "recall", "precision", _FIFTHS, _FIFTHS, _pr_point),
}


def _wrap(parts: list[str]) -> str:
    body = "\n".join("  " + p for p in parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n{body}\n</svg>\n'
    )


def render_curve_svg(curve: EvalCurve, title: str | None = None) -> str:
    """SVG text for a curve; an empty curve still renders titled axes."""
    kind = _KINDS.get(curve.kind)
    if kind is None:
        raise DataError(f"cannot plot curve kind {curve.kind!r}")
    parts = _frame(title or kind.title, kind.x_label, kind.y_label)
    parts += _axis(kind.x_ticks, "x") + _axis(kind.y_ticks, "y")
    parts.append(_axes_box())
    points = [p for p in map(kind.point, curve.samples) if p is not None]
    if points:
        parts.append(_polyline([(_plot_x(fx), _plot_y(fy)) for fx, fy in points]))
    return _wrap(parts)


def write_curve_svg(path, curve: EvalCurve, title: str | None = None) -> None:
    Path(path).write_text(render_curve_svg(curve, title), encoding="utf-8")
