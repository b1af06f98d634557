"""Tests of the SVG line-chart writer."""

import re
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import polyline_points
from qlitho import svgplot
from qlitho.svgplot import format_rows, render_line_chart, write_line_chart

# Points per formatted block of a polyline: each point is the two cells x
# and y, and every series formats its own points.
_BLOCK = svgplot._BLOCK_CELLS // 2

_SPECS = ("%.17g", "%.2f")
# Doubles whose %.17g rounding is a tie, or within 1e-6 of one (found by
# a search over random doubles, checked with exact decimal arithmetic).
_G17_TIES = [float.fromhex("0x1.ca83050d5c6fep+49"), float.fromhex("0x1.7680e6ebc67e5p-52")]


def _by_formatter(columns, spec):
    """``columns`` as rows of cells joined by "," and LF: by format_rows for
    %.17g, and by the chart's pixel formatter for %.2f."""
    columns = [np.asarray(col, dtype=float) for col in columns]
    if spec == "%.17g":
        return "".join(format_rows(columns))
    return svgplot._join(svgplot._pixels(np.column_stack(columns), "," * (len(columns) - 1) + "\n"))


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


def _percent_calls(monkeypatch, values, spec):
    """The values that the formatter of ``spec`` hands to % one at a time,
    as it formats ``values``."""
    seen = []
    with_percent = svgplot._with_percent

    def recording(text, v, fallback, spec, seps):
        seen.extend(v[fallback].tolist())
        return with_percent(text, v, fallback, spec, seps)

    monkeypatch.setattr(svgplot, "_with_percent", recording)
    assert _by_formatter([values], spec) == _by_percent([values], spec)
    return seen


@pytest.mark.parametrize("spec, leftover", [
    ("%.17g", [np.nan, np.inf, -np.inf]),
    ("%.17g", [1e280, -1e300, 1.7976931348623157e308, 9.9e-281, 5e-324, -2.2250738585072014e-308]),
    ("%.17g", _G17_TIES),
    ("%.2f", [np.nan, np.inf, -np.inf]),
    ("%.2f", [9999.995, 9999.996, 1e4, 2e7, 1e300, 1.7976931348623157e308]),
    ("%.2f", [0.125, 2.675, 0.005, 1.005]),
    ("%.2f", [-0.0, -0.25, -5e-324, -123.456, -1.005]),
], ids=["g17-nonfinite", "g17-range", "g17-tie", "f2-nonfinite", "f2-range", "f2-tie", "f2-sign"])
def test_fallback_classes_take_the_percent_path(monkeypatch, spec, leftover):
    # Non-finite cells, cells outside the kernel's range (for %.2f, also
    # any cell with its sign bit set) and near-ties are formatted by % one
    # at a time, and no other cell is.
    values = [1.5, 0.25, 3.14159, 1e-5, 123.456, 0.0, 9999.994] + leftover
    if spec == "%.17g":
        values += [-0.25, -0.0, -123.456]
    seen = _percent_calls(monkeypatch, values, spec)
    assert [repr(v) for v in seen] == [repr(float(v)) for v in leftover]


def test_f2_words_match_percent_on_explicit_cells(monkeypatch):
    # Integer parts with and without leading zeros, and the edge of the
    # word path at 9999.995, past which %.2f prints a fifth integer digit
    # (9999.996 -> 10000.00).  Cells with the sign bit set, negative zero
    # among them, take % too.
    cells = [0.0, 5e-324, 0.004, 0.5, 7.25, 40.0, 99.999, 780.0, 1000.0, 9999.994, 9999.9949]
    leftover = [9999.995, float(np.nextafter(9999.995, np.inf)), 9999.996, 12345.67, 1e7 - 0.01, -0.0, -0.004]
    seen = _percent_calls(monkeypatch, cells + leftover, "%.2f")
    assert [repr(v) for v in seen] == [repr(v) for v in leftover]
    assert _by_formatter([[9999.996, -0.004]], "%.2f") == "10000.00\n-0.00\n"


@pytest.mark.parametrize("offset, near_tie", [(5e-7, True), (-5e-7, True), (2e-6, False), (-2e-6, False)])
def test_f2_cells_near_a_tie_take_percent_only_inside_the_band(monkeypatch, offset, near_tie):
    # v 100 lies `offset` from a rounding tie: inside the 1e-6 band the
    # float product cannot decide the rounding, so % formats the cell.
    halves = [0, 7, 12, 4500, 99999, 999998]
    values = [(n + 0.5 + offset) / 100 for n in halves]
    for v, n in zip(values, halves):
        assert abs(abs(Fraction(v) * 100 - n - Fraction(1, 2)) - abs(offset)) < 2e-7
    seen = _percent_calls(monkeypatch, values, "%.2f")
    assert len(seen) == (len(values) if near_tie else 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-2e7, 2e7), min_size=1, max_size=60))
def test_f2_formatter_matches_percent_below_its_range_limit(values):
    assert _by_formatter([values], "%.2f") == _by_percent([values], "%.2f")


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


@pytest.mark.parametrize("n_series", range(1, 7))
def test_polylines_match_oracle_at_shared_x_block_edges(n_series):
    # Every series formats its own (x, y) pairs, _BLOCK points a block,
    # whatever the number of series.
    rng = np.random.default_rng(n_series)
    for rows in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
        x = np.sort(rng.uniform(-4.0, 4.0, rows))
        ys = [rng.standard_normal(rows) * 10.0 ** rng.integers(-3, 4) for _ in range(n_series)]
        text = render_line_chart(x, [(f"s{j}", y) for j, y in enumerate(ys)])
        assert _points(text) == polyline_points(x, ys), rows


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


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_output_path_peak_memory_is_bounded():
    # The benchmark gates peak RSS, so the formatter's working memory is
    # held to blocks: 32768 rows of four %.17g cells peak near 2.0 MB, and
    # the parts of a three-series 32768-point chart near 1.9 MB.
    x = np.arange(32768) * (2.0 * np.pi / 32768)
    series = [("a", 1.0 + np.cos(20.0 * x)), ("b", 1.0 + np.cos(2.0 * x)), ("c", np.abs(np.sin(7.0 * x)))]
    columns = [np.random.default_rng(j).standard_normal(32768) for j in range(4)]
    next(format_rows([np.ones(2)]))  # build the formatters' tables outside the traced runs
    render_line_chart(np.arange(2.0), [("a", np.ones(2))])

    def consume():
        for _ in format_rows(columns):
            pass

    assert _traced_peak(consume) <= 3.0e6
    assert _traced_peak(lambda: svgplot._chart_parts(x, series, "memory")) <= 3.0e6


@pytest.mark.parametrize("value", [1e20, -1e300, sys.float_info.max, -sys.float_info.max])
def test_chart_of_a_huge_constant_has_a_nonzero_span(value):
    # value + 1 == value at these magnitudes, so the span of constant data
    # is widened by a fraction of |value| instead, towards zero.
    ramp, flat = np.arange(8.0), np.full(8, value)
    for x, y, constant in ((ramp, flat, 1), (flat, ramp, 0)):
        text = render_line_chart(x, [("c", y)])
        points = [p.split(",") for p in _points(text)[0].split()]
        pixels = np.array(points, dtype=float)
        assert np.isfinite(pixels).all()
        assert (pixels[:, 0] >= 70.0).all() and (pixels[:, 0] <= 780.0).all()
        assert (pixels[:, 1] >= 40.0).all() and (pixels[:, 1] <= 450.0).all()
        assert len({p[constant] for p in points}) == 1
        assert len({p[1 - constant] for p in points}) == 8
        assert len(_polylines(text)) == 1


def test_chart_wider_than_the_float_range_has_finite_pixels_and_ticks():
    # x_hi - x_lo and y_hi - y_lo overflow here, so each axis maps halved
    # values; a span of subnormals, which halving would zero, still maps
    # exactly as the per-point oracle does.
    wide = np.array([-1e308, 1e308])
    tiny = np.array([0.0, 5e-324, 1e-323])
    to_max = np.array([-1e305, sys.float_info.max])  # the halved top tick rounds up
    cases = ((wide, wide), (wide, np.array([-1.0, 2.0])), (to_max, to_max), (np.arange(3.0), tiny), (tiny, tiny))
    for x, y in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = render_line_chart(x, [("a", y)])
        pixels = np.array([p.split(",") for p in _points(text)[0].split()], dtype=float)
        assert np.isfinite(pixels).all()
        assert (pixels[:, 0] >= 70.0).all() and (pixels[:, 0] <= 780.0).all()
        assert (pixels[:, 1] >= 40.0).all() and (pixels[:, 1] <= 450.0).all()
        ticks = re.findall(r'font-size="11">([^<]*)</text>', text)
        assert len(ticks) == 10 and np.isfinite(np.array(ticks, dtype=float)).all()
        if x is not wide and x is not to_max:
            assert _points(text) == polyline_points(x, [y])
    # y is padded out to the float range, so +-1e308 lie 1e308 / max of
    # the half height from the middle, 245 px.
    assert _points(render_line_chart(wide, [("a", wide)])) == ["70.00,359.04 780.00,130.96"]


def test_tick_labels_fit_the_margin_at_any_magnitude():
    # In %.2f a constant 1e20 series labels 99999899864196775936.00 and
    # +-1e308 labels of 311-313 characters; such an axis switches to %.3g,
    # while the other axis of the chart keeps its %.2f labels.
    flat = (np.arange(8.0), np.full(8, 1e20))
    wide = (np.array([-1e308, 1e308]), np.array([-1.0, 2.0]))
    for (x, y), plain in ((flat, 0), (wide, 1)):
        labels = re.findall(r'font-size="11">([^<]*)</text>', render_line_chart(x, [("a", y)]))
        assert len(labels) == 10 and max(map(len, labels)) <= 9
        assert all(re.fullmatch(r"-?\d+\.\d\d", label) for label in labels[plain::2])
        assert not any(re.fullmatch(r"-?\d+\.\d\d", label) for label in labels[1 - plain::2])


def test_chart_that_fails_validation_writes_no_file(tmp_path):
    path = tmp_path / "chart.svg"
    with pytest.raises(ValueError):
        write_line_chart(path, np.arange(8.0), [("a", np.ones(7))])
    assert not path.exists()
