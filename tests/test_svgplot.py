"""Tests of the SVG line-chart writer."""

import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import polyline_points
from qlitho import svgplot
from qlitho.svgplot import format_rows, render_line_chart, write_line_chart

# Points per formatted block of a one-series chart: each row holds the two
# cells x and y.
_BLOCK = next(format_rows([np.zeros(1 << 16)] * 2, "%.2f")).count("\n")

_SPECS = ("%.17g", "%.2f")
# Doubles whose %.17g rounding is a tie, or within 1e-6 of one (found by
# a search over random doubles, checked with exact decimal arithmetic).
_G17_TIES = [float.fromhex("0x1.ca83050d5c6fep+49"), float.fromhex("0x1.7680e6ebc67e5p-52")]


def _by_formatter(columns, spec):
    return "".join(format_rows([np.asarray(col, dtype=float) for col in columns], spec))


def _by_percent(columns, spec):
    return "".join(",".join(spec % v for v in row) + "\n" for row in zip(*columns))


def _edge_values():
    powers = [float(f"1e{k}") for k in range(-300, 301)]
    values = powers + list(np.nextafter(powers, 0.0)) + list(np.nextafter(powers, np.inf))
    values += [
        0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, float(2**53 + 1),
        float(2**53 + 2), 9.9999999999999998e-17, 0.1, 0.125, 2.675, 0.005, 1.005, 0.995,
        1e15, np.nextafter(1e15, 0.0), 1e280, np.nextafter(1e280, 0.0), 1e-280,
        np.nextafter(1e-280, 0.0), np.nan, np.inf, *_G17_TIES,
    ]
    return [float(v) for v in values] + [-float(v) for v in values]


@pytest.mark.parametrize("spec", _SPECS)
def test_formatter_matches_percent_on_edge_values(spec):
    values = _edge_values()
    assert _by_formatter([values], spec) == _by_percent([values], spec)


@pytest.mark.parametrize("miss", [-1.0, 1.0])
def test_g17_exponent_estimate_is_corrected_either_way(monkeypatch, miss):
    # The decimal exponent comes from log10, which may round across an
    # integer next to a power of ten; a miss by one either way is corrected.
    # Values away from powers of ten, where log10 itself does not miss.
    rng = np.random.default_rng(3)
    values = list(rng.uniform(1.5, 9.5, 2000) * 10.0 ** rng.integers(-280, 280, 2000))
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + miss)
    assert _by_formatter([values], "%.17g") == _by_percent([values], "%.17g")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_formatter_matches_percent_property(data):
    spec = data.draw(st.sampled_from(_SPECS))
    k = data.draw(st.integers(1, 4))
    rows = data.draw(st.integers(1, 40))
    columns = [data.draw(st.lists(st.floats(), min_size=rows, max_size=rows)) for _ in range(k)]
    assert _by_formatter(columns, spec) == _by_percent(columns, spec)


@pytest.mark.parametrize("spec, leftover", [
    ("%.17g", [np.nan, np.inf, -np.inf]),
    ("%.17g", [1e280, -1e300, 1.7976931348623157e308, 9.9e-281, 5e-324, -2.2250738585072014e-308]),
    ("%.17g", _G17_TIES),
    ("%.2f", [np.nan, np.inf, -np.inf]),
    ("%.2f", [1e15, -1e16, 1e300]),
    ("%.2f", [0.125, 2.675, 0.005, -1.005]),
], ids=["g17-nonfinite", "g17-range", "g17-tie", "f2-nonfinite", "f2-range", "f2-tie"])
def test_fallback_classes_take_the_percent_path(monkeypatch, spec, leftover):
    # Non-finite cells, cells outside the kernel's range and near-ties are
    # formatted by % one at a time, and no other cell is.
    seen = []
    percent = svgplot._percent

    def recording(spec, value, sep):
        seen.append(value)
        return percent(spec, value, sep)

    monkeypatch.setattr(svgplot, "_percent", recording)
    values = [1.5, -0.25, 3.14159, 1e-5, 123.456, 0.0, -0.0] + leftover
    assert _by_formatter([values], spec) == _by_percent([values], spec)
    assert [repr(v) for v in seen] == [repr(float(v)) for v in leftover]


def test_formatter_rejects_other_formats():
    with pytest.raises(ValueError, match="unsupported format"):
        next(format_rows([np.ones(3)], "%g"))


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


@pytest.mark.parametrize("n_series", range(2, 7))
def test_polylines_match_oracle_at_shared_x_block_edges(n_series):
    # A block holds x and every series' y, so its row count falls with the
    # number of series.
    block = next(format_rows([np.zeros(1 << 16)] * (1 + n_series), "%.2f")).count("\n")
    rng = np.random.default_rng(n_series)
    for rows in (block - 1, block, block + 1, 2 * block + 1):
        x = np.sort(rng.uniform(-4.0, 4.0, rows))
        ys = [rng.standard_normal(rows) * 10.0 ** rng.integers(-3, 4) for _ in range(n_series)]
        text = render_line_chart(x, [(f"s{j}", y) for j, y in enumerate(ys)])
        assert _points(text) == polyline_points(x, ys), rows


def test_chart_formats_x_once_for_all_series(monkeypatch):
    cells = []
    text = svgplot._text

    def counting(values, spec, seps):
        cells.append(values.size)
        return text(values, spec, seps)

    monkeypatch.setattr(svgplot, "_text", counting)
    x = np.linspace(0.0, 1.0, 3 * _BLOCK)
    render_line_chart(x, [(f"s{j}", np.cos(j * x)) for j in range(3)])
    assert sum(cells) == len(x) * (1 + 3)


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


def test_written_chart_holds_its_text_about_once(tmp_path):
    # Three 32768-point series make a 1.36 MB file.  Writing the chart part
    # by part peaks near 2.4 MB above the inputs; joining the parts into one
    # document first, and copying each polyline into its element, took 4.1 MB.
    x = np.arange(32768) * (2.0 * np.pi / 32768)
    series = [("a", 1.0 + np.cos(20.0 * x)), ("b", 1.0 + np.cos(2.0 * x)), ("c", np.abs(np.sin(7.0 * x)))]
    path = tmp_path / "chart.svg"
    tracemalloc.start()
    try:
        write_line_chart(path, x, series, title="memory")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 1_300_000
    assert peak <= 2.8e6
    assert path.read_text(encoding="ascii") == render_line_chart(x, series, title="memory")


def test_chart_that_fails_validation_writes_no_file(tmp_path):
    path = tmp_path / "chart.svg"
    with pytest.raises(ValueError):
        write_line_chart(path, np.arange(8.0), [("a", np.ones(7))])
    assert not path.exists()
