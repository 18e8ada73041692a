"""SVG curve rendering."""

import xml.etree.ElementTree as ET

import pytest

from samhead.evaluation import EvalCurve
from samhead.plotting import render_curve_svg

SVG_TEXT = "{http://www.w3.org/2000/svg}text"


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
