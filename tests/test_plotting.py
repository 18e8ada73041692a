"""SVG curve rendering."""

import xml.etree.ElementTree as ET

import pytest

from samhead.errors import DataError
from samhead.evaluation import EvalCurve
from samhead.plotting import BOTTOM, HEIGHT, LEFT, RIGHT, TOP, WIDTH, render_curve_svg

SVG_TEXT = "{http://www.w3.org/2000/svg}text"
SVG_POLYLINE = "{http://www.w3.org/2000/svg}polyline"


def polyline_points(svg):
    """The (x, y) points of the curve's polyline, or [] when none is drawn."""
    lines = list(ET.fromstring(svg).iter(SVG_POLYLINE))
    assert len(lines) <= 1
    if not lines:
        return []
    return [tuple(float(v) for v in p.split(",")) for p in lines[0].get("points").split()]


@pytest.mark.parametrize(
    "curve",
    [
        EvalCurve(kind="fppi_miss", samples=[(0.5, 0.1, 0.4), (0.2, 1.0, 0.1)]),
        EvalCurve(kind="pr"),
    ],
)
def test_title_with_markup_characters_stays_well_formed(curve):
    root = ET.fromstring(render_curve_svg(curve, "A & B <x>"))
    assert "A & B <x>" in [t.text for t in root.iter(SVG_TEXT)]


@pytest.mark.parametrize("kind", ["fppi_miss", "pr"])
def test_the_same_curve_renders_the_same_text(kind):
    samples = [(0.9, 0.013, 0.71), (0.5, 0.37, 0.42), (0.1, 2.9, 0.083)]
    first = render_curve_svg(EvalCurve(kind=kind, samples=list(samples)), "curve")
    second = render_curve_svg(EvalCurve(kind=kind, samples=list(samples)), "curve")
    assert first == second
    assert len(polyline_points(first)) == 3


def test_samples_without_positive_fppi_are_dropped():
    kept = [(0.5, 0.1, 0.4), (0.2, 1.0, 0.1)]
    with_zero = [(0.9, 0.0, 0.9), (0.8, -1.0, 0.7)] + kept
    svg = render_curve_svg(EvalCurve(kind="fppi_miss", samples=with_zero))
    assert svg == render_curve_svg(EvalCurve(kind="fppi_miss", samples=kept))
    assert len(polyline_points(svg)) == 2
    only_zero = render_curve_svg(EvalCurve(kind="fppi_miss", samples=with_zero[:2]))
    assert polyline_points(only_zero) == []


def test_points_off_the_log_axes_are_clamped_into_the_frame():
    # FPPI 100 lies past the x axis's 1e1 end and miss rate 1e-5 below the
    # y axis's 1e-2 end.
    samples = [(0.9, 100.0, 0.5), (0.5, 1.0, 1e-5), (0.1, 100.0, 0.0)]
    points = polyline_points(render_curve_svg(EvalCurve(kind="fppi_miss", samples=samples)))
    right, bottom = WIDTH - RIGHT, HEIGHT - BOTTOM
    assert points[0][0] == right
    assert points[1][1] == bottom
    assert points[2] == (right, bottom)
    for x, y in points:
        assert LEFT <= x <= right and TOP <= y <= bottom


def test_unknown_curve_kind_is_a_data_error():
    with pytest.raises(DataError, match="cannot plot curve kind 'roc'"):
        render_curve_svg(EvalCurve(kind="roc", samples=[(0.5, 0.1, 0.4)]))


@pytest.mark.parametrize("kind, x_labels, y_labels", [
    ("fppi_miss", ["1e-4", "1e-3", "1e-2", "1e-1", "1e0", "1e1"], ["1e-2", "1e-1", "1e0"]),
    ("pr", ["0.00", "0.20", "0.40", "0.60", "0.80", "1.00"],
     ["0.00", "0.20", "0.40", "0.60", "0.80", "1.00"]),
])
def test_each_kind_gets_its_ticks_and_a_gridline_at_each_inner_tick(kind, x_labels, y_labels):
    root = ET.fromstring(render_curve_svg(EvalCurve(kind=kind)))
    labels = [t.text for t in root.iter(SVG_TEXT) if t.get("font-size") == "11"]
    assert labels == x_labels + y_labels
    gridlines = [g for g in root.iter("{http://www.w3.org/2000/svg}line")
                 if g.get("stroke") == "#dddddd"]
    assert len(gridlines) == len(x_labels) - 2 + len(y_labels) - 2
