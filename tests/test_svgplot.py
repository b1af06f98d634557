"""Tests of the SVG line-chart writer."""

import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from oracles import polyline_points
from qlitho.svgplot import format_rows, render_line_chart, write_line_chart

# Points per formatted block: each point is a row of two cells, (x, y).
_BLOCK = next(format_rows([np.zeros(1 << 16)] * 2, "%g%g\n")).count("\n")


def _polylines(text):
    root = ET.fromstring(text)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    return [el for el in root.iter() if el.tag.endswith("polyline")]


def _points(text):
    return re.findall(r'<polyline points="([^"]*)"', text)


@pytest.mark.parametrize("rows", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 32768])
def test_polylines_match_per_point_oracle(rows):
    rng = np.random.default_rng(rows)
    x = np.sort(rng.uniform(-4.0, 4.0, rows))
    for n_series in range(1, 7):
        ys = [rng.standard_normal(rows) * 10.0 ** rng.integers(-3, 4) for _ in range(n_series)]
        text = render_line_chart(x, [(f"s{j}", y) for j, y in enumerate(ys)], title="t")
        assert _points(text) == polyline_points(x, ys), n_series
        assert len(_polylines(text)) == n_series


def test_chart_rejects_empty_series_and_length_mismatch():
    x = np.linspace(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        render_line_chart(x, [])
    with pytest.raises(ValueError):
        render_line_chart(x, [("a", np.ones(8)), ("b", np.ones(7))])


def test_constant_series_and_constant_x_render():
    x = np.linspace(0.0, 1.0, 8)
    flat = [("flat", np.full(8, 2.5))]
    text = render_line_chart(x, flat)
    assert len(_polylines(text)) == 1
    assert _points(text) == polyline_points(x, [np.full(8, 2.5)])
    assert len({p.split(",")[1] for p in _points(text)[0].split()}) == 1

    same_x = np.full(8, 3.0)
    ramp = np.arange(8.0)
    text = render_line_chart(same_x, [("ramp", ramp)])
    assert _points(text) == polyline_points(same_x, [ramp])
    assert {p.split(",")[0] for p in _points(text)[0].split()} == {"70.00"}


def test_written_chart_parses_with_one_polyline_per_series(tmp_path):
    x = np.linspace(0.0, np.pi, 64)
    series = [(f"cos {j}x", np.cos(j * x)) for j in range(1, 8)]
    path = tmp_path / "chart.svg"
    write_line_chart(path, x, series, title="harmonics")
    text = path.read_text(encoding="ascii")
    assert text == render_line_chart(x, series, title="harmonics")
    assert len(_polylines(text)) == len(series)
